(* Metrics registry: percentiles on a known distribution, OpenMetrics
   exposition well-formedness (label escaping, counter monotonicity),
   JSON document round-trips through the parser, and the disabled path
   allocating nothing. *)

module Telemetry = Repro_runtime.Telemetry
module Metrics = Repro_runtime.Metrics
module Json = Repro_runtime.Json

let with_metrics f =
  Metrics.reset ();
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_enabled false;
      Telemetry.reset ();
      Metrics.reset ())
    f

let in_range name lo hi v =
  if not (v >= lo && v <= hi) then
    Alcotest.failf "%s: %g not in [%g, %g]" name v lo hi

(* 90 observations of 100 and 10 of 10000: count/sum/min/max are exact;
   percentiles land in the right log2 bucket, clamped to observed
   extremes (p50 in [100, 128); p99 in [8192, 10000]). *)
let test_percentiles () =
  with_metrics @@ fun () ->
  let h = Metrics.histogram "t_hist" in
  for _ = 1 to 90 do
    Metrics.observe h 100.0
  done;
  for _ = 1 to 10 do
    Metrics.observe h 10000.0
  done;
  Alcotest.(check int) "count" 100 (Metrics.hist_count h);
  Alcotest.(check (float 1e-6)) "sum" 109000.0 (Metrics.hist_sum h);
  in_range "p50" 100.0 128.0 (Metrics.percentile h 0.5);
  in_range "p90" 100.0 10000.0 (Metrics.percentile h 0.9);
  in_range "p99" 8192.0 10000.0 (Metrics.percentile h 0.99);
  let p50 = Metrics.percentile h 0.5
  and p90 = Metrics.percentile h 0.9
  and p99 = Metrics.percentile h 0.99 in
  Alcotest.(check bool) "monotone quantiles" true (p50 <= p90 && p90 <= p99);
  (* extreme quantiles clamp to the observed min/max *)
  Alcotest.(check (float 1e-6)) "p0" 100.0 (Metrics.percentile h 0.0);
  Alcotest.(check (float 1e-6)) "p100" 10000.0 (Metrics.percentile h 1.0)

(* An empty series has no percentiles: every quantile is nan (and the
   JSON sink renders them as null), never a fabricated 0. *)
let test_percentiles_empty () =
  with_metrics @@ fun () ->
  let h = Metrics.histogram "t_empty" in
  Alcotest.(check int) "count" 0 (Metrics.hist_count h);
  List.iter
    (fun q ->
      Alcotest.(check bool)
        (Printf.sprintf "p%g is nan" (100.0 *. q))
        true
        (Float.is_nan (Metrics.percentile h q)))
    [ 0.0; 0.5; 1.0 ];
  match Json.member "histograms" (Metrics.to_json ()) with
  | None -> Alcotest.fail "no histograms block"
  | Some hs ->
    let h0 = List.hd (Json.to_list hs) in
    List.iter
      (fun k ->
        Alcotest.(check bool)
          (k ^ " is null") true
          (Json.member k h0 = Some Json.Null))
      [ "p50"; "p90"; "p99" ]

(* One sample: every quantile collapses to it. *)
let test_percentiles_one_sample () =
  with_metrics @@ fun () ->
  let h = Metrics.histogram "t_one" in
  Metrics.observe h 300.0;
  Alcotest.(check (float 1e-9)) "p0" 300.0 (Metrics.percentile h 0.0);
  Alcotest.(check (float 1e-9)) "p50" 300.0 (Metrics.percentile h 0.5);
  Alcotest.(check (float 1e-9)) "p100" 300.0 (Metrics.percentile h 1.0)

(* Two samples in distant log2 buckets: the median stays in the lower
   bucket, clamped below by the observed min; p100 is the exact max. *)
let test_percentiles_two_buckets () =
  with_metrics @@ fun () ->
  let h = Metrics.histogram "t_two" in
  Metrics.observe h 100.0;
  Metrics.observe h 10000.0;
  Alcotest.(check (float 1e-9)) "p0" 100.0 (Metrics.percentile h 0.0);
  in_range "p50" 100.0 128.0 (Metrics.percentile h 0.5);
  Alcotest.(check (float 1e-9)) "p100" 10000.0 (Metrics.percentile h 1.0)

let is_float s = match float_of_string_opt s with Some _ -> true | None -> false

(* minimal exposition-format checker: every non-comment line must be
   `name value` or `name{k="v",...} value` with a numeric value *)
let check_exposition text =
  let check_line ln =
    if ln = "" || String.length ln >= 1 && ln.[0] = '#' then ()
    else begin
      let sp =
        match String.rindex_opt ln ' ' with
        | Some i -> i
        | None -> Alcotest.failf "no value separator in %S" ln
      in
      let series = String.sub ln 0 sp in
      let value = String.sub ln (sp + 1) (String.length ln - sp - 1) in
      if not (is_float value) then
        Alcotest.failf "non-numeric value %S in %S" value ln;
      let name =
        match String.index_opt series '{' with
        | Some i ->
          if series.[String.length series - 1] <> '}' then
            Alcotest.failf "unterminated label set in %S" ln;
          String.sub series 0 i
        | None -> series
      in
      if name = "" then Alcotest.failf "empty metric name in %S" ln;
      String.iter
        (fun c ->
          match c with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ()
          | c -> Alcotest.failf "bad char %C in metric name %S" c name)
        name
    end
  in
  List.iter check_line (String.split_on_char '\n' text)

let test_openmetrics () =
  with_metrics @@ fun () ->
  let h =
    Metrics.histogram ~labels:[ ("name", "stage:a\"b\\c\nd") ] "span_ns"
  in
  Metrics.observe h 5.0;
  Metrics.observe h 300.0;
  let c = Metrics.lcounter ~labels:[ ("kind", "tiles") ] "work" in
  Metrics.incr_by c 7;
  let g = Metrics.gauge "bandwidth_gbs" in
  Metrics.set_gauge g 12.5;
  ignore (Telemetry.counter "exec.tiles");
  let text = Metrics.to_openmetrics () in
  check_exposition text;
  let contains_in hay sub =
    let nh = String.length hay and ns = String.length sub in
    let rec go i = i + ns <= nh && (String.sub hay i ns = sub || go (i + 1)) in
    ns = 0 || go 0
  in
  let contains sub = contains_in text sub in
  Alcotest.(check bool) "ends with EOF" true
    (String.length text >= 6
     && String.sub text (String.length text - 6) 6 = "# EOF\n");
  Alcotest.(check bool) "histogram declared" true
    (contains "# TYPE polymg_span_ns histogram");
  Alcotest.(check bool) "escaped label value" true
    (contains "name=\"stage:a\\\"b\\\\c\\nd\"");
  Alcotest.(check bool) "counter sample is _total" true
    (contains "polymg_work_total{kind=\"tiles\"} 7");
  Alcotest.(check bool) "+Inf bucket present" true
    (contains "le=\"+Inf\"");
  (* counter monotonicity across successive scrapes *)
  Metrics.incr_by c 3;
  let text2 = Metrics.to_openmetrics () in
  Alcotest.(check bool) "counter grew monotonically" true
    (contains_in text2 "polymg_work_total{kind=\"tiles\"} 10")

let rec json_equal a b =
  match (a, b) with
  | Json.Null, Json.Null -> true
  | Json.Bool x, Json.Bool y -> x = y
  | Json.Num x, Json.Num y -> x = y || (Float.is_nan x && Float.is_nan y)
  | Json.Str x, Json.Str y -> x = y
  | Json.Arr x, Json.Arr y ->
    List.length x = List.length y && List.for_all2 json_equal x y
  | Json.Obj x, Json.Obj y ->
    List.length x = List.length y
    && List.for_all2
         (fun (k1, v1) (k2, v2) -> k1 = k2 && json_equal v1 v2)
         x y
  | _ -> false

let test_json_roundtrip () =
  with_metrics @@ fun () ->
  let h = Metrics.histogram ~labels:[ ("name", "x\"y\\z") ] "span_ns" in
  Metrics.observe h 17.0;
  Metrics.observe h 90000.0;
  Metrics.set_gauge (Metrics.gauge "g") 0.25;
  Metrics.incr_by (Metrics.lcounter "c") 3;
  let doc = Metrics.to_json () in
  let text = Json.to_string doc in
  match Json.parse text with
  | Error m -> Alcotest.failf "metrics JSON does not parse: %s" m
  | Ok doc' ->
    Alcotest.(check bool) "round-trips" true (json_equal doc doc');
    (* and the accessors reach into the parsed document *)
    (* earlier tests' series stay registered (reset zeroes them in
       place): only this test's histogram holds samples *)
    let hists =
      Json.to_list (Option.get (Json.member "histograms" doc'))
      |> List.filter (fun h ->
             Option.bind (Json.member "count" h) Json.to_int <> Some 0)
    in
    Alcotest.(check int) "one histogram" 1 (List.length hists);
    let h0 = List.hd hists in
    Alcotest.(check (option int)) "count" (Some 2)
      (Option.bind (Json.member "count" h0) Json.to_int)

(* A series interned before a reset — as Mempool's governance gauges are,
   at module init — stays registered: the reset zeroes it in place, and
   a later update shows up in the sinks. *)
let test_reset_keeps_series () =
  with_metrics @@ fun () ->
  let g = Metrics.gauge "t_reset_gauge" in
  Metrics.set_gauge g 3.0;
  Metrics.reset ();
  Alcotest.(check (float 0.0)) "zeroed in place" 0.0 (Metrics.gauge_value g);
  Metrics.set_gauge g 42.0;
  let gauges =
    Json.to_list (Option.get (Json.member "gauges" (Metrics.to_json ())))
  in
  match
    List.find_opt
      (fun j -> Json.member "name" j = Some (Json.Str "t_reset_gauge"))
      gauges
  with
  | None -> Alcotest.fail "gauge detached by reset"
  | Some j ->
    Alcotest.(check (option (float 0.0))) "value" (Some 42.0)
      (Option.bind (Json.member "value" j) Json.to_float)

let test_disabled_allocates_nothing () =
  Metrics.reset ();
  Telemetry.reset ();
  Telemetry.set_enabled false;
  (* interning happens once, outside the measured window *)
  let h = Metrics.histogram "noalloc_h" in
  let c = Metrics.lcounter "noalloc_c" in
  (* a pre-boxed value: the loop must not allocate, and neither may the
     disabled observe/incr paths *)
  let v = Sys.opaque_identity 17.0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Metrics.observe h v;
    Metrics.incr_by c 1
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "allocated %.0f minor words" words)
    true (words < 256.0);
  Alcotest.(check int) "no observations recorded" 0 (Metrics.hist_count h);
  Alcotest.(check int) "no counts recorded" 0 (Metrics.lcounter_value c)

let () =
  Alcotest.run "metrics"
    [ ( "histogram",
        [ Alcotest.test_case "percentiles on known distribution" `Quick
            test_percentiles;
          Alcotest.test_case "empty series has nan percentiles" `Quick
            test_percentiles_empty;
          Alcotest.test_case "one-sample percentiles collapse" `Quick
            test_percentiles_one_sample;
          Alcotest.test_case "two-bucket percentiles clamp" `Quick
            test_percentiles_two_buckets ] );
      ( "sinks",
        [ Alcotest.test_case "openmetrics exposition" `Quick test_openmetrics;
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "reset keeps interned series" `Quick
            test_reset_keeps_series ] );
      ( "overhead",
        [ Alcotest.test_case "disabled path allocates nothing" `Quick
            test_disabled_allocates_nothing ] ) ]
