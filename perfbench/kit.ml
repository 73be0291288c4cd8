(* The benchmark's own arithmetic, kept apart from the workloads so the
   self-test can pin it down: nearest-rank percentiles (a failed
   operation enters as +infinity), Python-compatible quartiles, the
   seeded open-loop arrival schedule, and an in-memory span recorder
   with self-time accounting. *)

(* ------------------------------------------------------------------ *)
(* Percentiles                                                          *)

let sorted samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  a

(* Nearest rank: the smallest sample such that at least [p]% of the
   samples are <= it.  Failures are recorded as [infinity], so they sort
   last and a percentile that reaches them reads +inf.  [nan] when there
   are no samples. *)
let percentile samples p =
  let a = sorted samples in
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 1 (min n rank) - 1)

let median samples = percentile samples 50.0

(* Median of the values of the [k] samples whose times lie nearest to
   [t] (all of them when there are fewer); [samples] are (time, value)
   pairs sorted by time.  [nan] when there are none. *)
let nearest_median ~k (samples : (float * float) array) t =
  let n = Array.length samples in
  (* first index whose time is >= t *)
  let rec first lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if fst samples.(mid) < t then first (mid + 1) hi else first lo mid
  in
  let j = first 0 n in
  (* grow the window [lo, hi) around j by the nearer neighbour *)
  let rec grow lo hi =
    if hi - lo >= min k n then (lo, hi)
    else if lo = 0 then grow lo (hi + 1)
    else if hi = n then grow (lo - 1) hi
    else if t -. fst samples.(lo - 1) <= fst samples.(hi) -. t then grow (lo - 1) hi
    else grow lo (hi + 1)
  in
  let lo, hi = grow j j in
  median (List.init (hi - lo) (fun i -> snd samples.(lo + i)))

(* Samples strictly above the nearest-rank position of [p]: the number
   a tail percentile rests on. *)
let beyond ~n p =
  n - max 1 (min n (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))))

(* Quartiles exactly as Python's [statistics.quantiles(data, n=4)]
   (the default "exclusive" method), so the spread printed here is the
   one a reader recomputes from the result lines. *)
let quartiles samples =
  let a = sorted samples in
  let n = Array.length a in
  if n < 2 then invalid_arg "Kit.quartiles: need at least two samples";
  let m = n + 1 in
  let q i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 2, q 3)

(* ------------------------------------------------------------------ *)
(* Open-loop schedule                                                   *)

(* Poisson arrivals at [rate] per second over [seconds]: exponential
   gaps drawn from a state seeded only by [seed], each arrival tagged
   with a class picked from [weights] and a tenant index in
   [0, tenants).  Everything is drawn before the clock starts, so the
   server only ever sees the generated requests. *)
type arrival = { at : float; cls : int; tenant : int }

let schedule ~seed ~rate ~seconds ~weights ~tenants =
  let st = Random.State.make [| seed; 0x5eed |] in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let pick () =
    let x = Random.State.float st total in
    let rec go i acc =
      let acc = acc +. weights.(i) in
      if x < acc || i = Array.length weights - 1 then i else go (i + 1) acc
    in
    go 0 0.0
  in
  let rec gen t acc =
    let u = 1.0 -. Random.State.float st 1.0 in
    let t = t -. (log u /. rate) in
    if t >= seconds then List.rev acc
    else
      let cls = pick () in
      let tenant = Random.State.int st tenants in
      gen t ({ at = t; cls; tenant } :: acc)
  in
  Array.of_list (gen 0.0 [])

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)

let now_ns = Repro_runtime.Telemetry.now_ns

type span = {
  id : int;
  name : string;
  op : int;  (** operation the span belongs to *)
  parent : int;  (** span id of the caller; -1 for an operation's root *)
  start : int;  (** ns, monotonic *)
  stop : int;
}

type recorder = {
  mu : Mutex.t;
  mutable next : int;
  mutable spans : span list;
  mutable stack : int list;  (** open spans of {!with_span} callers *)
}

let recorder () = { mu = Mutex.create (); next = 0; spans = []; stack = [] }

(* Span ids come from here only. *)
let fresh_id r =
  Mutex.protect r.mu (fun () ->
      let id = r.next in
      r.next <- id + 1;
      id)

let push r span = Mutex.protect r.mu (fun () -> r.spans <- span :: r.spans)

let add r ~name ~op ~parent ~start ~stop =
  let id = fresh_id r in
  push r { id; name; op; parent; start; stop };
  id

let spans r = Mutex.protect r.mu (fun () -> List.rev r.spans)

(* Times [f] as a span under the innermost open [with_span] of the same
   recorder (single-threaded nesting). *)
let with_span r ~op name f =
  let parent = match r.stack with p :: _ -> p | [] -> -1 in
  let id = fresh_id r in
  r.stack <- id :: r.stack;
  let start = now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let stop = now_ns () in
      r.stack <- List.tl r.stack;
      push r { id; name; op; parent; start; stop })
    f

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let rec sum acc cur = function
    | [] -> (match cur with None -> acc | Some (a, b) -> acc + (b - a))
    | (a, b) :: rest -> (
      match cur with
      | None -> sum acc (Some (a, b)) rest
      | Some (ca, cb) ->
        if a <= cb then sum acc (Some (ca, max cb b)) rest
        else sum (acc + (cb - ca)) (Some (a, b)) rest)
  in
  sum 0 None (List.sort compare clipped)

(* Self time: a span's duration minus the part of it its children
   cover. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent (s.start, s.stop))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.stop - s.start - covered ~lo:s.start ~hi:s.stop kids))
    spans

(* Per-operation accounting: for each op, its wall time (the root
   span), the self time of every named layer below the root, and the
   root's own self time as the explicit [unaccounted] remainder.  For a
   properly nested tree the layers plus [unaccounted] equal [wall]
   exactly. *)
type op_account = {
  op_id : int;
  wall : int;
  layers : (string * int) list;  (** name, summed self ns; first-seen order *)
  unaccounted : int;
}

let accounts spans =
  let selfs = self_times spans in
  let ops = List.sort_uniq compare (List.map (fun s -> s.op) spans) in
  List.map
    (fun op ->
      let mine = List.filter (fun (s, _) -> s.op = op) selfs in
      let root = List.filter (fun (s, _) -> s.parent < 0) mine in
      let wall = List.fold_left (fun acc (s, _) -> acc + s.stop - s.start) 0 root in
      let unaccounted = List.fold_left (fun acc (_, t) -> acc + t) 0 root in
      let names =
        List.fold_left
          (fun acc (s, _) ->
            if s.parent < 0 || List.mem s.name acc then acc else s.name :: acc)
          [] mine
      in
      let layers =
        List.rev_map
          (fun name ->
            ( name,
              List.fold_left
                (fun acc (s, t) ->
                  if s.parent >= 0 && s.name = name then acc + t else acc)
                0 mine ))
          names
      in
      { op_id = op; wall; layers; unaccounted })
    ops
