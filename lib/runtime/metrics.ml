(* Series are interned by (name, sorted labels).  A histogram is one
   Hist accumulator under a lock: recording is per request or per run,
   never per tile, and the disabled path is the single telemetry flag
   test, which touches nothing. *)

type histogram = { lock : Mutex.t; h : Hist.t }
type gauge = float Atomic.t
type lcounter = int Atomic.t

type series =
  | S_hist of histogram
  | S_gauge of gauge
  | S_counter of lcounter

(* identity -> series; the mutex guards interning only, not updates *)
let registry : (string * (string * string) list, series) Hashtbl.t =
  Hashtbl.create 32

let registry_mutex = Mutex.create ()

let canon_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let intern name labels make =
  let key = (name, canon_labels labels) in
  Mutex.protect registry_mutex (fun () ->
      match Hashtbl.find_opt registry key with
      | Some s -> s
      | None ->
        let s = make () in
        Hashtbl.replace registry key s;
        s)

let wrong_kind name =
  invalid_arg ("Metrics: series " ^ name ^ " registered with another kind")

let histogram ?(labels = []) name =
  match
    intern name labels (fun () ->
        S_hist { lock = Mutex.create (); h = Hist.create () })
  with
  | S_hist h -> h
  | S_gauge _ | S_counter _ -> wrong_kind name

let gauge ?(labels = []) name =
  match intern name labels (fun () -> S_gauge (Atomic.make 0.0)) with
  | S_gauge g -> g
  | S_hist _ | S_counter _ -> wrong_kind name

let lcounter ?(labels = []) name =
  match intern name labels (fun () -> S_counter (Atomic.make 0)) with
  | S_counter c -> c
  | S_hist _ | S_gauge _ -> wrong_kind name

let locked h f = Mutex.protect h.lock (fun () -> f h.h)

let observe h v =
  if Telemetry.enabled () then locked h (fun acc -> Hist.record acc v)

let incr_by c n =
  if Telemetry.enabled () then ignore (Atomic.fetch_and_add c n)

let lcounter_value c = Atomic.get c
let set_gauge g v = Atomic.set g v
let gauge_value g = Atomic.get g
let hist_count h = locked h Hist.count
let hist_sum h = locked h Hist.sum
let percentile h q = locked h (fun acc -> Hist.percentile acc q)
let buckets h = locked h Hist.cumulative

let reset () =
  Mutex.protect registry_mutex (fun () ->
      Hashtbl.iter
        (fun _ s ->
          match s with
          | S_hist h -> locked h Hist.clear
          | S_gauge g -> Atomic.set g 0.0
          | S_counter c -> Atomic.set c 0)
        registry)

(* ------------------------------------------------------------------ *)
(* Sinks *)

(* A consistent read of every series, sorted by identity: the registry
   plus the probe's per-site stats as span_duration_ns{name=site}. *)
type value = V_hist of Hist.t | V_gauge of float | V_counter of int

let sorted_series () =
  let registered =
    Mutex.protect registry_mutex (fun () ->
        Hashtbl.fold (fun k s acc -> (k, s) :: acc) registry [])
    |> List.map (fun (k, s) ->
           ( k,
             match s with
             | S_hist h -> V_hist (locked h Hist.copy)
             | S_gauge g -> V_gauge (Atomic.get g)
             | S_counter c -> V_counter (Atomic.get c) ))
  in
  let span_series =
    List.map
      (fun (site, h) -> (("span_duration_ns", [ ("name", site) ]), V_hist h))
      (Profile.histograms ())
  in
  List.sort (fun (a, _) (b, _) -> compare a b) (registered @ span_series)

let labels_json labels =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)

let to_json () =
  let of_kind pick =
    List.filter_map
      (fun ((name, labels), v) ->
        Option.map
          (fun fields ->
            Json.Obj
              (("name", Json.Str name) :: ("labels", labels_json labels)
              :: fields))
          (pick v))
      (sorted_series ())
  in
  let hist = function
    | V_hist h ->
      let stat f = if Hist.count h = 0 then Json.Null else Json.Num f in
      Some
        [ ("count", Json.num (Hist.count h));
          ("sum", Json.Num (Hist.sum h));
          ("min", stat (Hist.min h));
          ("max", stat (Hist.max h));
          ("p50", stat (Hist.percentile h 0.5));
          ("p90", stat (Hist.percentile h 0.9));
          ("p99", stat (Hist.percentile h 0.99));
          ( "buckets",
            Json.Arr
              (List.map
                 (fun (le, c) -> Json.Arr [ Json.Num le; Json.num c ])
                 (Hist.cumulative h)) ) ]
    | V_gauge _ | V_counter _ -> None
  in
  let gauge = function
    | V_gauge g -> Some [ ("value", Json.Num g) ]
    | V_hist _ | V_counter _ -> None
  in
  let lcounter = function
    | V_counter c -> Some [ ("value", Json.num c) ]
    | V_hist _ | V_gauge _ -> None
  in
  Json.Obj
    [ ("histograms", Json.Arr (of_kind hist));
      ("gauges", Json.Arr (of_kind gauge));
      ("labelled_counters", Json.Arr (of_kind lcounter));
      ( "counters",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.num v)) (Telemetry.counters ())) )
    ]

(* OpenMetrics text exposition.  Metric names are sanitized to the
   allowed charset; label values use the escaping of the spec. *)

let sanitize_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let label_escape v =
  let b = Buffer.create (String.length v + 4) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let render_labels labels =
  match labels with
  | [] -> ""
  | _ ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) ->
             Printf.sprintf "%s=\"%s\"" (sanitize_name k) (label_escape v))
           labels)
    ^ "}"

let float_om f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let to_openmetrics () =
  let b = Buffer.create 4096 in
  let typed : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let declare name kind =
    if not (Hashtbl.mem typed name) then begin
      Hashtbl.replace typed name ();
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  List.iter
    (fun ((name, labels), v) ->
      let name = "polymg_" ^ sanitize_name name in
      match v with
      | V_hist h ->
        declare name "histogram";
        List.iter
          (fun (le, c) ->
            Buffer.add_string b
              (Printf.sprintf "%s_bucket%s %d\n" name
                 (render_labels (labels @ [ ("le", float_om le) ]))
                 c))
          (Hist.cumulative h);
        Buffer.add_string b
          (Printf.sprintf "%s_bucket%s %d\n" name
             (render_labels (labels @ [ ("le", "+Inf") ]))
             (Hist.count h));
        Buffer.add_string b
          (Printf.sprintf "%s_sum%s %s\n" name (render_labels labels)
             (float_om (Hist.sum h)));
        Buffer.add_string b
          (Printf.sprintf "%s_count%s %d\n" name (render_labels labels)
             (Hist.count h))
      | V_gauge g ->
        declare name "gauge";
        Buffer.add_string b
          (Printf.sprintf "%s%s %s\n" name (render_labels labels) (float_om g))
      | V_counter c ->
        declare name "counter";
        Buffer.add_string b
          (Printf.sprintf "%s_total%s %d\n" name (render_labels labels) c))
    (sorted_series ());
  (* the raw Telemetry runtime counters, as one labelled family *)
  let rc = "polymg_runtime_counter" in
  declare rc "counter";
  List.iter
    (fun (cname, v) ->
      Buffer.add_string b
        (Printf.sprintf "%s_total%s %d\n" rc
           (render_labels [ ("name", cname) ])
           v))
    (Telemetry.counters ());
  Buffer.add_string b "# EOF\n";
  Buffer.contents b
