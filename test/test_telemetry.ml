open Repro_runtime

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Minimal JSON parser — validation only, enough to check that the
   Chrome trace output is well-formed and structurally correct. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some (('"' | '\\' | '/') as c) ->
          Buffer.add_char b c;
          advance ();
          go ()
        | Some 'n' -> Buffer.add_char b '\n'; advance (); go ()
        | Some 't' -> Buffer.add_char b '\t'; advance (); go ()
        | Some 'r' -> Buffer.add_char b '\r'; advance (); go ()
        | Some 'b' -> Buffer.add_char b '\b'; advance (); go ()
        | Some 'f' -> Buffer.add_char b '\012'; advance (); go ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            (match peek () with
             | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
             | _ -> fail "bad \\u escape")
          done;
          Buffer.add_char b '?';
          go ()
        | _ -> fail "bad escape")
      | Some c ->
        if Char.code c < 0x20 then fail "raw control char in string";
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Obj [] end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((k, v) :: acc)
          | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); Arr [] end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elems (v :: acc)
          | Some ']' -> advance (); Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        elems []
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ------------------------------------------------------------------ *)

let with_telemetry f =
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_enabled false;
      Telemetry.reset ())
    f

let spin () =
  (* a little real work so spans have nonzero width *)
  let acc = ref 0.0 in
  for i = 1 to 10_000 do
    acc := !acc +. sqrt (float_of_int i)
  done;
  ignore (Sys.opaque_identity !acc)

let find_span name =
  match List.find_opt (fun (s : Telemetry.span) -> s.name = name)
          (Telemetry.spans ())
  with
  | Some s -> s
  | None -> Alcotest.failf "span %s not recorded" name

let test_span_nesting () =
  with_telemetry (fun () ->
      Telemetry.with_span (Telemetry.site "outer") (fun () ->
          spin ();
          Telemetry.with_span (Telemetry.site "inner") (fun () -> spin ());
          spin ());
      let outer = find_span "outer" in
      let inner = find_span "inner" in
      check_bool "inner starts after outer" true
        (inner.Telemetry.start_ns >= outer.Telemetry.start_ns);
      check_bool "inner ends before outer" true
        (inner.Telemetry.start_ns + inner.Telemetry.dur_ns
         <= outer.Telemetry.start_ns + outer.Telemetry.dur_ns);
      check_bool "inner shorter" true
        (inner.Telemetry.dur_ns <= outer.Telemetry.dur_ns);
      check_int "same domain" outer.Telemetry.tid inner.Telemetry.tid)

let test_span_ordering () =
  with_telemetry (fun () ->
      Telemetry.with_span (Telemetry.site "first") spin;
      Telemetry.with_span (Telemetry.site "second") spin;
      match Telemetry.spans () with
      | [ a; b ] ->
        Alcotest.(check string) "order" "first" a.Telemetry.name;
        Alcotest.(check string) "order" "second" b.Telemetry.name;
        check_bool "sorted by start" true
          (a.Telemetry.start_ns <= b.Telemetry.start_ns)
      | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l))

let test_span_exception () =
  with_telemetry (fun () ->
      (try
         Telemetry.with_span (Telemetry.site "boom") (fun () -> failwith "x")
       with Failure _ -> ());
      ignore (find_span "boom"))

let test_counters_under_parallel () =
  let pool = Parallel.create 3 in
  with_telemetry (fun () ->
      let c = Telemetry.counter "test.par" in
      Parallel.parallel_for pool ~lo:1 ~hi:200 (fun _ -> Telemetry.add c 1);
      (* join the workers: their per-region chunk/busy updates land after
         the last loop index completes, so read counters only after *)
      Parallel.teardown pool;
      check_int "all increments" 200 (Telemetry.value c);
      let chunks =
        List.assoc "parallel.chunks" (Telemetry.counters ())
      in
      check_int "every index claimed once" 200 chunks;
      let busy =
        List.filter
          (fun (s : Telemetry.span) -> s.Telemetry.cat = "parallel")
          (Telemetry.spans ())
      in
      check_bool "busy spans recorded" true (List.length busy >= 1);
      let busy_ns = List.assoc "parallel.busy_ns" (Telemetry.counters ()) in
      check_bool "busy time accumulated" true (busy_ns > 0))

let test_counter_max_to () =
  with_telemetry (fun () ->
      let c = Telemetry.counter "test.max" in
      Telemetry.max_to c 10;
      Telemetry.max_to c 5;
      check_int "max semantics" 10 (Telemetry.value c))

let test_trace_json_roundtrip () =
  with_telemetry (fun () ->
      Telemetry.with_span ~cat:"test"
        ~args:
          [ ("quote", Telemetry.Str "a\"b\\c\nd");
            ("n", Telemetry.Int 42);
            ("x", Telemetry.Float 1.5) ]
        (Telemetry.site "span \"quoted\" name")
        spin;
      Telemetry.with_span (Telemetry.site "plain") spin;
      let trace = Telemetry.chrome_trace () in
      match parse_json trace with
      | Obj fields ->
        let events =
          match List.assoc_opt "traceEvents" fields with
          | Some (Arr evs) -> evs
          | _ -> Alcotest.fail "traceEvents missing or not an array"
        in
        check_int "one event per span" 2 (List.length events);
        List.iter
          (fun ev ->
            match ev with
            | Obj f ->
              let has k = List.mem_assoc k f in
              check_bool "name" true (has "name");
              check_bool "ts" true (has "ts");
              check_bool "dur" true (has "dur");
              check_bool "tid" true (has "tid");
              check_bool "pid" true (has "pid");
              (match List.assoc "ph" f with
               | Str "X" -> ()
               | _ -> Alcotest.fail "ph must be \"X\"")
            | _ -> Alcotest.fail "event not an object")
          events
      | _ -> Alcotest.fail "trace is not a JSON object")

let test_trace_file () =
  with_telemetry (fun () ->
      Telemetry.with_span (Telemetry.site "filed") spin;
      let path = Filename.temp_file "telemetry" ".json" in
      Snapshot.atomic_write_string ~path (Telemetry.chrome_trace ());
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let contents = really_input_string ic len in
      close_in ic;
      Sys.remove path;
      match parse_json contents with
      | Obj _ -> ()
      | _ -> Alcotest.fail "file trace is not a JSON object")

let test_disabled_noop () =
  Telemetry.set_enabled false;
  Telemetry.reset ();
  Profile.set_enabled false;
  let c = Telemetry.counter "test.disabled" in
  let never = Telemetry.site "never" in
  check_int "start token" 0 (Telemetry.start ());
  Telemetry.stop 0 never;
  Telemetry.add c 5;
  Telemetry.max_to c 5;
  check_int "counter untouched" 0 (Telemetry.value c);
  check_int "no spans" 0 (List.length (Telemetry.spans ()));
  (* the disabled path must not allocate *)
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    let t = Telemetry.start () in
    Telemetry.stop t never;
    Telemetry.add c 1
  done;
  let w1 = Gc.minor_words () in
  check_bool "no allocation when disabled" true (w1 -. w0 < 256.0)

let test_disabled_cheap () =
  Telemetry.set_enabled false;
  Profile.set_enabled false;
  let c = Telemetry.counter "test.cheap" in
  let never = Telemetry.site "never" in
  let iters = 100_000 in
  let t0 = Telemetry.now_ns () in
  for _ = 1 to iters do
    let t = Telemetry.start () in
    Telemetry.stop t never;
    Telemetry.add c 1
  done;
  let per_call =
    float_of_int (Telemetry.now_ns () - t0) /. float_of_int iters
  in
  (* a handful of atomic loads; 1us is orders of magnitude of headroom,
     so this cannot flake while still catching a clock read sneaking in *)
  check_bool "disabled path under 1us per site" true (per_call < 1000.0)

let test_reset () =
  with_telemetry (fun () ->
      let c = Telemetry.counter "test.reset" in
      Telemetry.add c 3;
      Telemetry.with_span (Telemetry.site "gone") spin;
      Telemetry.reset ();
      check_int "spans cleared" 0 (List.length (Telemetry.spans ()));
      check_int "counters zeroed" 0 (Telemetry.value c))

let test_report_smoke () =
  with_telemetry (fun () ->
      let c = Telemetry.counter "test.report" in
      Telemetry.add c 7;
      Telemetry.with_span (Telemetry.site "reported") spin;
      let out = Format.asprintf "%t" Telemetry.report in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh
          && (String.sub hay i nn = needle || go (i + 1)) in
        nn = 0 || go 0
      in
      check_bool "span row" true (contains out "reported");
      check_bool "counter row" true (contains out "test.report");
      check_bool "counter sections" true (contains out "counters"))


(* One clock read per probe end: with the span and stats sinks (and the
   recorder) on, each cycle's reported seconds, its cycle span and the
   cycle site's stats sample are the same nanoseconds, and the
   recorder's Cycle_begin/Cycle_end events carry the same two reads —
   for the plain solver loop and the guarded one alike. *)
let test_one_clock_read () =
  let open Repro_mg in
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(2, 2, 2) in
  let n = 32 in
  let problem = Problem.poisson ~dims:2 ~n in
  Repro_core.Exec.with_runtime @@ fun rt ->
  let stepper =
    Solver.polymg_stepper cfg ~n ~opts:Repro_core.Options.opt_plus ~rt
  in
  let check_loop name run =
    with_telemetry @@ fun () ->
    Profile.reset ();
    Profile.set_enabled true;
    Flightrec.reset ();
    Flightrec.set_enabled true;
    let stats =
      Fun.protect
        ~finally:(fun () ->
          Profile.set_enabled false;
          Flightrec.set_enabled false)
        run
    in
    let spans =
      List.filter
        (fun (s : Telemetry.span) -> s.name = name)
        (Telemetry.spans ())
    in
    check_int (name ^ " spans") 3 (List.length spans);
    let durs = List.map (fun (s : Telemetry.span) -> s.dur_ns) spans in
    List.iter2
      (fun (c : Solver.cycle_stats) d ->
        check_int
          (Printf.sprintf "%s %d seconds = span dur_ns" name c.Solver.cycle)
          d
          (int_of_float (Float.round (c.Solver.seconds *. 1e9))))
      stats durs;
    (match Profile.stats (Telemetry.site name) with
     | None -> Alcotest.failf "%s: no site sample" name
     | Some st ->
       (* three samples are pinned by their count, sum, min and max *)
       check_int "site count" 3 st.Profile.count;
       check_int "site total = span total" (List.fold_left ( + ) 0 durs)
         (int_of_float st.Profile.total);
       check_int "site min" (List.fold_left min max_int durs)
         (int_of_float st.Profile.min);
       check_int "site max" (List.fold_left max 0 durs)
         (int_of_float st.Profile.max));
    let stamps pick =
      List.filter_map
        (fun (e : Flightrec.event) -> pick e.Flightrec.kind e.Flightrec.t_ns)
        (Flightrec.events ())
    in
    let begins =
      stamps (fun k t ->
          match k with Flightrec.Cycle_begin _ -> Some t | _ -> None)
    and ends =
      stamps (fun k t ->
          match k with Flightrec.Cycle_end _ -> Some t | _ -> None)
    in
    check_bool (name ^ " Cycle_begin at span start") true
      (begins = List.map (fun (s : Telemetry.span) -> s.start_ns) spans);
    check_bool (name ^ " Cycle_end at span end") true
      (ends
       = List.map (fun (s : Telemetry.span) -> s.start_ns + s.dur_ns) spans);
    Flightrec.reset ();
    Profile.reset ()
  in
  check_loop "solver.cycle" (fun () ->
      (Solver.iterate stepper ~problem ~cycles:3 ()).Solver.stats);
  check_loop "guard.cycle" (fun () ->
      (Guard.run
         ~policy:{ Guard.default_policy with Guard.max_cycles = 3 }
         ~primary:stepper ~problem ())
        .Guard.stats)

let () =
  Alcotest.run "telemetry"
    [ ( "spans",
        [ Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "ordering" `Quick test_span_ordering;
          Alcotest.test_case "exception safety" `Quick test_span_exception ] );
      ( "counters",
        [ Alcotest.test_case "parallel totals" `Quick
            test_counters_under_parallel;
          Alcotest.test_case "max_to" `Quick test_counter_max_to ] );
      ( "probe",
        [ Alcotest.test_case "one clock read per probe" `Quick
            test_one_clock_read ] );
      ( "trace",
        [ Alcotest.test_case "json roundtrip" `Quick test_trace_json_roundtrip;
          Alcotest.test_case "file output" `Quick test_trace_file ] );
      ( "disabled",
        [ Alcotest.test_case "no-op" `Quick test_disabled_noop;
          Alcotest.test_case "cheap" `Quick test_disabled_cheap ] );
      ( "lifecycle",
        [ Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "report smoke" `Quick test_report_smoke ] ) ]
