type arg =
  | Int of int
  | Float of float
  | Str of string

type span = {
  name : string;
  cat : string;
  tid : int;
  start_ns : int;
  dur_ns : int;
  args : (string * arg) list;
}

(* ------------------------------------------------------------------ *)
(* The sink mask: the disabled path is one atomic load (a plain mov on
   x86) and a predictable branch, before any clock read. *)

type sink = Spans | Stats | Ring

let spans_bit = 1
let stats_bit = 2
let timing = spans_bit lor stats_bit
let[@inline] bit = function Spans -> spans_bit | Stats -> stats_bit | Ring -> 4
let mask = Atomic.make 0
let[@inline] sink_on s = Atomic.get mask land bit s <> 0

let rec set_sink s on =
  let cur = Atomic.get mask in
  let next = if on then cur lor bit s else cur land lnot (bit s) in
  if not (Atomic.compare_and_set mask cur next) then set_sink s on

let probing () = Atomic.get mask land timing <> 0
let enabled () = Atomic.get mask land spans_bit <> 0
let set_enabled b = set_sink Spans b
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ------------------------------------------------------------------ *)
(* Counters *)

type counter = { cname : string; v : int Atomic.t }

let counter_registry : (string, counter) Hashtbl.t = Hashtbl.create 32
let counter_mutex = Mutex.create ()

let counter name =
  Mutex.protect counter_mutex (fun () ->
      match Hashtbl.find_opt counter_registry name with
      | Some c -> c
      | None ->
        let c = { cname = name; v = Atomic.make 0 } in
        Hashtbl.replace counter_registry name c;
        c)

let add c n = if enabled () then ignore (Atomic.fetch_and_add c.v n)

let max_to c n =
  if enabled () then begin
    let rec go () =
      let cur = Atomic.get c.v in
      if n > cur && not (Atomic.compare_and_set c.v cur n) then go ()
    in
    go ()
  end

let value c = Atomic.get c.v

let counters () =
  Mutex.protect counter_mutex (fun () ->
      Hashtbl.fold
        (fun _ c acc -> (c.cname, Atomic.get c.v) :: acc)
        counter_registry [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Mirrors of the stats sink (registered with it, in Profile; counters
   intern by name) *)
let c_samples = counter "profile.samples"
let c_sites = counter "profile.sites"

(* ------------------------------------------------------------------ *)
(* Sites: the id is a dense index into the per-domain accumulators. *)

type site = { id : int; sname : string }

let site_registry : (string, site) Hashtbl.t = Hashtbl.create 64
let site_mutex = Mutex.create ()

let site name =
  Mutex.protect site_mutex (fun () ->
      match Hashtbl.find_opt site_registry name with
      | Some s -> s
      | None ->
        let s = { id = Hashtbl.length site_registry; sname = name } in
        Hashtbl.replace site_registry name s;
        add c_sites 1;
        s)

let site_name s = s.sname

let all_sites () =
  Mutex.protect site_mutex (fun () ->
      Hashtbl.fold (fun _ s acc -> s :: acc) site_registry [])
  |> List.sort (fun a b -> String.compare a.sname b.sname)

(* ------------------------------------------------------------------ *)
(* Per-domain tables: the span buffer and the site accumulators.  Tables
   register themselves on first use and outlive their domain, so the
   sinks can merge them at quiescence. *)

let dummy_span =
  { name = ""; cat = ""; tid = 0; start_ns = 0; dur_ns = 0; args = [] }

type dtab = {
  tid : int;
  mutable sp : span array;
  mutable len : int;
  mutable accs : Hist.t option array;  (* by site id *)
}

let registry : dtab list ref = ref []
let registry_mutex = Mutex.create ()

let tab_key : dtab Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let t =
        { tid = (Domain.self () :> int);
          sp = Array.make 1024 dummy_span;
          len = 0;
          accs = Array.make 64 None }
      in
      Mutex.protect registry_mutex (fun () -> registry := t :: !registry);
      t)

let tables () = Mutex.protect registry_mutex (fun () -> !registry)

let push_span t sp =
  if t.len = Array.length t.sp then begin
    let bigger = Array.make (2 * t.len) dummy_span in
    Array.blit t.sp 0 bigger 0 t.len;
    t.sp <- bigger
  end;
  t.sp.(t.len) <- sp;
  t.len <- t.len + 1

(* the enabled path allocates only on a (domain, site) pair's first
   sample *)
let record_in t s v =
  let n = Array.length t.accs in
  if s.id >= n then begin
    let bigger = Array.make (Int.max (2 * n) (s.id + 1)) None in
    Array.blit t.accs 0 bigger 0 n;
    t.accs <- bigger
  end;
  let h =
    match t.accs.(s.id) with
    | Some h -> h
    | None ->
      let h = Hist.create () in
      t.accs.(s.id) <- Some h;
      h
  in
  Hist.record h v;
  add c_samples 1

let record s v =
  if Atomic.get mask land stats_bit <> 0 then
    record_in (Domain.DLS.get tab_key) s v

let start () = if probing () then now_ns () else 0

let stop_at ?(cat = "") ?(args = []) t0 t1 s =
  let m = Atomic.get mask in
  if m land timing <> 0 then begin
    let t = Domain.DLS.get tab_key in
    let dur = t1 - t0 in
    if m land spans_bit <> 0 then
      push_span t
        { name = s.sname; cat; tid = t.tid; start_ns = t0; dur_ns = dur; args };
    if m land stats_bit <> 0 then record_in t s (float_of_int dur)
  end

let stop ?cat ?args t0 s = if t0 <> 0 then stop_at ?cat ?args t0 (now_ns ()) s

let with_span ?cat ?args s f =
  let t0 = start () in
  Fun.protect ~finally:(fun () -> stop ?cat ?args t0 s) f

let spans () =
  List.concat_map (fun t -> Array.to_list (Array.sub t.sp 0 t.len)) (tables ())
  |> List.sort (fun a b -> compare a.start_ns b.start_ns)

let site_hists s =
  List.filter_map
    (fun t -> if s.id < Array.length t.accs then t.accs.(s.id) else None)
    (tables ())

let reset_stats () =
  List.iter
    (fun t -> Array.fill t.accs 0 (Array.length t.accs) None)
    (tables ())

let reset () =
  List.iter (fun t -> t.len <- 0) (tables ());
  Mutex.protect counter_mutex (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.v 0) counter_registry)

(* ------------------------------------------------------------------ *)
(* Span sinks *)

let span_total_ns name =
  List.fold_left
    (fun acc s -> if s.name = name then acc + s.dur_ns else acc)
    0 (spans ())

let report fmt =
  let sp = spans () in
  let tbl : (string, int * int) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let count, total =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0)
      in
      Hashtbl.replace tbl s.name (count + 1, total + s.dur_ns))
    sp;
  let rows = Hashtbl.fold (fun name (c, t) acc -> (name, c, t) :: acc) tbl [] in
  let rows = List.sort (fun (_, _, a) (_, _, b) -> compare b a) rows in
  (* wall = the outermost measured region: the cycle spans if present,
     otherwise the largest aggregate *)
  let wall =
    match List.find_opt (fun (n, _, _) -> n = "solver.cycle") rows with
    | Some (_, _, t) -> t
    | None -> List.fold_left (fun acc (_, _, t) -> Int.max acc t) 0 rows
  in
  Format.fprintf fmt "@[<v>== telemetry: spans ==@,";
  Format.fprintf fmt "%-36s %8s %12s %12s %7s@," "name" "count" "total ms"
    "mean us" "wall";
  List.iter
    (fun (name, c, t) ->
      Format.fprintf fmt "%-36s %8d %12.3f %12.1f %6.1f%%@," name c
        (float_of_int t /. 1e6)
        (float_of_int t /. float_of_int c /. 1e3)
        (if wall = 0 then 0.0
         else 100.0 *. float_of_int t /. float_of_int wall))
    rows;
  let busy : (int, int * int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if s.cat = "parallel" then begin
        let t, n = Option.value (Hashtbl.find_opt busy s.tid) ~default:(0, 0) in
        let chunks =
          List.fold_left
            (fun acc kv ->
              match kv with "chunks", Int c -> acc + c | _ -> acc)
            0 s.args
        in
        Hashtbl.replace busy s.tid (t + s.dur_ns, n + chunks)
      end)
    sp;
  if Hashtbl.length busy > 0 then begin
    Format.fprintf fmt "== telemetry: per-domain busy ==@,";
    Hashtbl.fold (fun tid tn acc -> (tid, tn) :: acc) busy []
    |> List.sort compare
    |> List.iter (fun (tid, (t, n)) ->
           Format.fprintf fmt "domain %d: %.3f ms busy, %d chunks@," tid
             (float_of_int t /. 1e6)
             n)
  end;
  Format.fprintf fmt "== telemetry: counters ==@,";
  List.iter
    (fun (n, v) -> Format.fprintf fmt "%-36s %d@," n v)
    (counters ());
  Format.fprintf fmt "@]"

let arg_json = function
  | Int i -> string_of_int i
  | Float f ->
    if Float.is_finite f then Printf.sprintf "%.17g" f
    else "\"" ^ string_of_float f ^ "\""
  | Str s -> "\"" ^ Json.escape s ^ "\""

let chrome_trace () =
  let sp = spans () in
  let t0 = match sp with [] -> 0 | s :: _ -> s.start_ns in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f"
           (Json.escape s.name)
           (Json.escape (if s.cat = "" then "default" else s.cat))
           s.tid
           (float_of_int (s.start_ns - t0) /. 1e3)
           (float_of_int s.dur_ns /. 1e3));
      (match s.args with
       | [] -> ()
       | args ->
         Buffer.add_string b ",\"args\":{";
         List.iteri
           (fun j (k, v) ->
             if j > 0 then Buffer.add_char b ',';
             Buffer.add_string b ("\"" ^ Json.escape k ^ "\":" ^ arg_json v))
           args;
         Buffer.add_char b '}');
      Buffer.add_char b '}')
    sp;
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents b
