open Repro_grid

type stats = {
  fresh_allocs : int;
  reuse_hits : int;
  live_bytes : int;
  pool_bytes : int;
  peak_live_bytes : int;
}

exception
  Budget_exceeded of { requested_bytes : int; budget_bytes : int;
                       pool_bytes : int }

let () =
  Printexc.register_printer (function
    | Budget_exceeded { requested_bytes; budget_bytes; pool_bytes } ->
      Some
        (Printf.sprintf
           "Mempool.Budget_exceeded(requested %d B with %d B pooled, \
            budget %d B)"
           requested_bytes pool_bytes budget_bytes)
    | _ -> None)

(* Global telemetry counters (shared by all pools; in practice one pool
   per runtime).  Updates are no-ops while telemetry is disabled. *)
let c_acquire = Telemetry.counter "mempool.acquire"
let c_release = Telemetry.counter "mempool.release"
let c_hit = Telemetry.counter "mempool.hit"
let c_miss = Telemetry.counter "mempool.miss"
let c_peak = Telemetry.counter "mempool.peak_live_bytes"
let c_guard_trips = Telemetry.counter "mempool.guard_trips"

(* The grid free list's takes (Grid.create and Grid.copy): served from
   a released grid, or freshly allocated. *)
let c_grid_fresh = Telemetry.counter "grid.fresh"
let c_grid_reused = Telemetry.counter "grid.reused"

let () =
  Grid.set_take_hook (fun ~reused ->
      Telemetry.add (if reused then c_grid_reused else c_grid_fresh) 1)

(* Resource-governance series: budget overruns, free-list trims made to
   stay under budget, and the cross-pool high-water gauge the pressure
   campaign asserts against. *)
let c_budget_exceeded = Telemetry.counter "govern.budget_exceeded"
let c_trims = Telemetry.counter "govern.pool_trims"
let c_high_water = Telemetry.counter "govern.pool_high_water_bytes"
let g_high_water = Metrics.gauge "govern_pool_high_water_bytes"
let g_budget = Metrics.gauge "govern_pool_budget_bytes"

(* Poison mode constants: a signaling-NaN payload so any arithmetic on a
   stale or uninitialized read yields a NaN the solver-level guard can
   catch, and a recognizable canary bit pattern for the guard words laid
   down past each handed-out window. *)
(* ------------------------------------------------------------------ *)
(* Process-wide quiescence accounting.

   [outstanding] counts buffers currently acquired across *every* pool
   (ungated by the telemetry flag, so the ledger is exact whether or not
   instrumentation is on).  [clear]-ing a pool that still holds acquired
   buffers moves them to the leak ledger instead of silently forgiving
   them — a runtime torn down mid-request with live buffers is exactly
   the bug a long-running server must surface.  Campaign teardowns call
   {!assert_quiescent} to turn either kind of residue into a failure. *)

exception
  Not_quiescent of {
    outstanding : int;
    leaked : int;
    detail : string list;
  }

let () =
  Printexc.register_printer (function
    | Not_quiescent { outstanding; leaked; detail } ->
      Some
        (Printf.sprintf
           "Mempool.Not_quiescent(%d outstanding, %d leaked at clear%s)"
           outstanding leaked
           (match detail with
            | [] -> ""
            | l -> "; " ^ String.concat "; " l))
    | _ -> None)

let q_outstanding = Atomic.make 0
let q_leaked = Atomic.make 0
let q_mutex = Mutex.create ()
let q_detail : string list ref = ref []
let q_detail_cap = 16

let note_leak ~buffers ~bytes ~poison =
  ignore (Atomic.fetch_and_add q_leaked buffers);
  ignore (Atomic.fetch_and_add q_outstanding (-buffers));
  Mutex.lock q_mutex;
  if List.length !q_detail < q_detail_cap then
    q_detail :=
      Printf.sprintf "pool cleared with %d live buffer(s), %d B%s" buffers
        bytes
        (if poison then " [poison]" else "")
      :: !q_detail;
  Mutex.unlock q_mutex

let guard_elems = 4
let snan = Int64.float_of_bits 0x7ff0_0000_dead_beefL
let canary = Int64.float_of_bits 0x5CA1_AB1E_5CA1_AB1EL
let is_canary v = Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float canary)

type entry = {
  raw : Buf.t;  (* full allocation, including guard words in poison mode *)
  mutable free : bool;
  mutable view : Buf.t;  (* the buffer handed to the caller *)
  mutable acquires : int;  (* times this entry served an acquire *)
}

type t = {
  poison : bool;
  mutable budget : int option;  (* byte ceiling on [pool_bytes] *)
  mutable entries : entry list;
  mutable fresh_allocs : int;
  mutable reuse_hits : int;
  mutable live_bytes : int;
  mutable pool_bytes : int;
  mutable peak_live_bytes : int;
  mutable hw_next_quarter : int;
      (* next quarter-of-budget threshold (1..4) the recorder has not
         yet seen live_bytes cross; 5 = all reported *)
}

let create ?(poison = false) () =
  { poison;
    budget = None;
    entries = [];
    fresh_allocs = 0;
    reuse_hits = 0;
    live_bytes = 0;
    pool_bytes = 0;
    peak_live_bytes = 0;
    hw_next_quarter = 1 }

let poisoned t = t.poison

let set_budget t budget =
  (match budget with
   | Some b when b <= 0 ->
     invalid_arg "Mempool.set_budget: budget must be positive"
   | Some b -> Metrics.set_gauge g_budget (float_of_int b)
   | None -> ());
  t.budget <- budget

let budget t = t.budget

let note_live t delta =
  t.live_bytes <- t.live_bytes + delta;
  if t.live_bytes > t.peak_live_bytes then t.peak_live_bytes <- t.live_bytes;
  Telemetry.max_to c_peak t.peak_live_bytes;
  Telemetry.max_to c_high_water t.peak_live_bytes;
  Metrics.set_gauge g_high_water (float_of_int t.peak_live_bytes);
  (* Flight-recorder breadcrumbs as live bytes cross each quarter of the
     budget: cheap (at most 4 events per pool lifetime), and the tail
     shows how close to the ceiling the solve was running. *)
  match t.budget with
  | Some b when t.hw_next_quarter <= 4 ->
    while
      t.hw_next_quarter <= 4 && 4 * t.live_bytes >= t.hw_next_quarter * b
    do
      if Flightrec.on () then
        Flightrec.emit
          (Flightrec.High_water { bytes = t.live_bytes; budget_bytes = b });
      t.hw_next_quarter <- t.hw_next_quarter + 1
    done
  | Some _ | None -> ()

(* A buffer under twice the request: a much longer one (a fine grid's
   buffer asked for a coarse grid) would stay held at its full length,
   and the request of its own size would then allocate afresh. *)
let serves ~buffer ~need = buffer >= need && buffer < 2 * need

(* Best fit: smallest free buffer that serves the request. *)
let find_fit t need =
  List.fold_left
    (fun best e ->
      if e.free && serves ~buffer:(Buf.len e.raw) ~need then
        match best with
        | Some b when Buf.len b.raw <= Buf.len e.raw -> best
        | _ -> Some e
      else best)
    None t.entries

(* Arm an entry for hand-out: in poison mode the caller gets an exact
   [len]-element window filled with signaling NaNs, with canary guard
   words written just past it (the raw allocation always reserves at
   least [guard_elems] beyond the request, so guards never go missing). *)
let arm t e len =
  e.free <- false;
  e.acquires <- e.acquires + 1;
  ignore (Atomic.fetch_and_add q_outstanding 1);
  if t.poison then begin
    let view = Buf.sub_view e.raw ~pos:0 ~len in
    Buf.fill view snan;
    Buf.fill_range e.raw ~pos:len ~len:guard_elems canary;
    e.view <- view
  end
  else e.view <- e.raw;
  note_live t (Buf.bytes e.raw);
  e.view

(* Budget enforcement: a fresh allocation that would push [pool_bytes]
   past the budget first trims free (released) buffers — largest first,
   so the fewest entries are sacrificed — and only if the pool still
   cannot make room raises the typed {!Budget_exceeded}.  Reuse never
   grows the pool, so it is always allowed; thus [pool_bytes] (and with
   it [live_bytes] and the high-water mark) never exceeds the budget. *)
let trim_for t need_bytes budget =
  let frees =
    List.filter (fun e -> e.free) t.entries
    |> List.sort (fun a b -> compare (Buf.len b.raw) (Buf.len a.raw))
  in
  let rec drop dropped = function
    | _ when t.pool_bytes + need_bytes <= budget -> dropped
    | [] -> dropped
    | e :: rest ->
      t.pool_bytes <- t.pool_bytes - Buf.bytes e.raw;
      Telemetry.add c_trims 1;
      drop (e :: dropped) rest
  in
  let dropped = drop [] frees in
  if dropped <> [] then begin
    if Flightrec.on () then
      Flightrec.emit
        (Flightrec.Pool_trim
           { dropped_bytes =
               List.fold_left (fun acc e -> acc + Buf.bytes e.raw) 0 dropped
           });
    t.entries <-
      List.filter (fun e -> not (List.memq e dropped)) t.entries
  end

let acquire t len =
  if len < 0 then invalid_arg "Mempool.acquire: negative length";
  Telemetry.add c_acquire 1;
  let need = if t.poison then len + guard_elems else len in
  match find_fit t need with
  | Some e ->
    t.reuse_hits <- t.reuse_hits + 1;
    Telemetry.add c_hit 1;
    arm t e len
  | None ->
    let need_bytes = 8 * need in
    (match t.budget with
     | Some b when t.pool_bytes + need_bytes > b ->
       trim_for t need_bytes b;
       if t.pool_bytes + need_bytes > b then begin
         Telemetry.add c_budget_exceeded 1;
         if Flightrec.on () then
           Flightrec.emit
             (Flightrec.Budget_exceeded
                { requested_bytes = need_bytes;
                  budget_bytes = b;
                  pool_bytes = t.pool_bytes });
         raise
           (Budget_exceeded
              { requested_bytes = need_bytes;
                budget_bytes = b;
                pool_bytes = t.pool_bytes })
       end
     | Some _ | None -> ());
    let raw = Buf.create_uninit need in
    let e = { raw; free = false; view = raw; acquires = 0 } in
    t.entries <- e :: t.entries;
    t.fresh_allocs <- t.fresh_allocs + 1;
    Telemetry.add c_miss 1;
    t.pool_bytes <- t.pool_bytes + Buf.bytes raw;
    arm t e len

let check_guard e =
  let lo = Buf.len e.view in
  for i = lo to lo + guard_elems - 1 do
    if not (is_canary (Buf.get e.raw i)) then begin
      Telemetry.add c_guard_trips 1;
      invalid_arg
        (Printf.sprintf
           "Mempool.release: guard word %d past a %d-element buffer was \
            clobbered (out-of-bounds write; buffer acquired %d times)"
           (i - lo) lo e.acquires)
    end
  done

let release t buf =
  let rec find = function
    | [] ->
      invalid_arg "Mempool.release: buffer not from this pool (or stale view)"
    | e :: rest -> if e.view == buf then e else find rest
  in
  let e = find t.entries in
  if e.free then
    invalid_arg
      (Printf.sprintf
         "Mempool.release: double release of a %d-element buffer (acquired \
          %d times from this pool)"
         (Buf.len e.view) e.acquires);
  if t.poison then begin
    check_guard e;
    Buf.fill e.raw snan
  end;
  Telemetry.add c_release 1;
  e.free <- true;
  ignore (Atomic.fetch_and_add q_outstanding (-1));
  t.live_bytes <- t.live_bytes - Buf.bytes e.raw

let stats t =
  { fresh_allocs = t.fresh_allocs;
    reuse_hits = t.reuse_hits;
    live_bytes = t.live_bytes;
    pool_bytes = t.pool_bytes;
    peak_live_bytes = t.peak_live_bytes }

let live_count t =
  List.length (List.filter (fun e -> not e.free) t.entries)

let clear t =
  let live = List.filter (fun e -> not e.free) t.entries in
  if live <> [] then
    note_leak ~buffers:(List.length live)
      ~bytes:(List.fold_left (fun acc e -> acc + Buf.bytes e.raw) 0 live)
      ~poison:t.poison;
  t.entries <- [];
  t.fresh_allocs <- 0;
  t.reuse_hits <- 0;
  t.live_bytes <- 0;
  t.pool_bytes <- 0;
  t.peak_live_bytes <- 0;
  t.hw_next_quarter <- 1

let with_pool ?poison f =
  let t = create ?poison () in
  Fun.protect ~finally:(fun () -> clear t) (fun () -> f t)

let with_buf t len f =
  let b = acquire t len in
  Fun.protect ~finally:(fun () -> release t b) (fun () -> f b)

let outstanding () = Atomic.get q_outstanding

let assert_quiescent () =
  let out = Atomic.get q_outstanding in
  let leaked = Atomic.get q_leaked in
  if out <> 0 || leaked <> 0 then begin
    Mutex.lock q_mutex;
    let detail = List.rev !q_detail in
    Mutex.unlock q_mutex;
    raise (Not_quiescent { outstanding = out; leaked; detail })
  end;
  0
