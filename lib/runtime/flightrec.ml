(* Flight recorder: per-domain event rings + incident-report dumps.
   The on/off flag is the probe mask's ring bit: disabled = one atomic
   load and a predictable branch, no allocation. *)

(* ------------------------------------------------------------------ *)
(* Generic bounded ring with drop counting. *)

module Ring = struct
  type 'a t = {
    cap : int;
    buf : 'a option array;
    mutable head : int;  (* next write index *)
    mutable count : int;
    mutable drops : int;
  }

  let create cap =
    if cap < 1 then invalid_arg "Flightrec.Ring.create: capacity must be >= 1";
    { cap; buf = Array.make cap None; head = 0; count = 0; drops = 0 }

  let push t x =
    if t.count = t.cap then t.drops <- t.drops + 1
    else t.count <- t.count + 1;
    t.buf.(t.head) <- Some x;
    t.head <- (t.head + 1) mod t.cap

  let to_list t =
    let oldest = (t.head - t.count + (2 * t.cap)) mod t.cap in
    List.init t.count (fun i ->
        match t.buf.((oldest + i) mod t.cap) with
        | Some x -> x
        | None -> assert false)

  let length t = t.count
  let capacity t = t.cap
  let dropped t = t.drops
end

(* ------------------------------------------------------------------ *)
(* Events *)

type kind =
  | Cycle_begin of { cycle : int; fallback : bool }
  | Cycle_end of { cycle : int; residual : float; status : string }
  | Group_begin of { gid : int; kind : string }
  | Group_end of { gid : int }
  | Plan_set of { digest : string; variant : string }
  | Checkpoint of { cycle : int; residual : float }
  | Fault of { cycle : int; fault : string }
  | Rollback of { cycle : int }
  | Retry of { cycle : int; attempt : int; backoff_s : float }
  | Fallback_switch of { cycle : int }
  | Quarantine of { cycle : int; faults : int }
  | Watchdog_armed of { stage : string; budget_ns : int }
  | Deadline_trip of { stage : string; elapsed_ns : int; budget_ns : int }
  | Budget_exceeded of {
      requested_bytes : int;
      budget_bytes : int;
      pool_bytes : int;
    }
  | Pool_trim of { dropped_bytes : int }
  | High_water of { bytes : int; budget_bytes : int }
  | Demotion of { from_rung : string; to_rung : string; over_bytes : int }
  | Runtime_demotion of { rung : string }
  | Infeasible of {
      budget_bytes : int;
      floor_bytes : int;
      floor_rung : string;
    }
  | Checkpoint_write of { gen : int; cycle : int }
  | Checkpoint_restore of { gen : int; cycle : int }
  | Checkpoint_reject of { gen : int; reason : string }
  | Resume_replan of { old_digest : string; new_digest : string }
  | Note of string

type event = { t_ns : int; dom : int; seq : int; kind : kind }

let on () = Telemetry.sink_on Telemetry.Ring
let set_enabled b = Telemetry.set_sink Telemetry.Ring b

let default_capacity = 512
let capacity = Atomic.make default_capacity

let set_capacity n =
  if n < 1 then invalid_arg "Flightrec.set_capacity: capacity must be >= 1";
  Atomic.set capacity n

(* Global sequence counter: events within one domain's ring are already
   ordered, the seq gives a total order across domains for the merged
   tail in incident reports. *)
let seq_counter = Atomic.make 0

(* Telemetry mirrors (gated on the telemetry flag, like every counter;
   the ring's own drop count is authoritative for incident reports). *)
let c_events = Telemetry.counter "flightrec.events"
let c_dropped = Telemetry.counter "flightrec.dropped"
let c_incidents = Telemetry.counter "flightrec.incidents"
let c_suppressed = Telemetry.counter "flightrec.incidents_suppressed"

(* Each domain owns one ring, but systhreads multiplexed onto the same
   domain (the solver daemon's admission threads) share it — so every
   ring operation takes the owning dbuf's lock.  Uncontended in the
   domain-only case; the emit fast path when disabled is still just the
   flag load. *)
type dbuf = { dom : int; lock : Mutex.t; mutable ring : event Ring.t }

let registry : dbuf list ref = ref []
let registry_mutex = Mutex.create ()

let dbuf_key : dbuf Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b =
        { dom = (Domain.self () :> int);
          lock = Mutex.create ();
          ring = Ring.create (Atomic.get capacity) }
      in
      Mutex.lock registry_mutex;
      registry := b :: !registry;
      Mutex.unlock registry_mutex;
      b)

let emit_at t_ns kind =
  if on () then begin
    let b = Domain.DLS.get dbuf_key in
    let seq = Atomic.fetch_and_add seq_counter 1 in
    Mutex.lock b.lock;
    let was_full = Ring.length b.ring = Ring.capacity b.ring in
    Ring.push b.ring { t_ns; dom = b.dom; seq; kind };
    Mutex.unlock b.lock;
    Telemetry.add c_events 1;
    if was_full then Telemetry.add c_dropped 1
  end

let emit kind = if on () then emit_at (Telemetry.now_ns ()) kind

let with_rings f =
  Mutex.lock registry_mutex;
  let bufs = !registry in
  Mutex.unlock registry_mutex;
  List.map
    (fun b ->
      Mutex.lock b.lock;
      let r = f b in
      Mutex.unlock b.lock;
      r)
    bufs

let events () =
  with_rings (fun b -> Ring.to_list b.ring)
  |> List.concat
  |> List.sort (fun a b -> compare a.seq b.seq)

let dropped_events () =
  with_rings (fun b -> Ring.dropped b.ring) |> List.fold_left ( + ) 0

(* ------------------------------------------------------------------ *)
(* Plan context *)

let plan_note : (string * string) option Atomic.t = Atomic.make None

let note_plan ~digest ~variant =
  Atomic.set plan_note (Some (digest, variant));
  if on () then emit (Plan_set { digest; variant })

let noted_plan () = Atomic.get plan_note

(* ------------------------------------------------------------------ *)
(* JSON *)

let event_fields = function
  | Cycle_begin { cycle; fallback } ->
    ("cycle_begin", [ ("cycle", Json.num cycle); ("fallback", Json.Bool fallback) ])
  | Cycle_end { cycle; residual; status } ->
    ( "cycle_end",
      [ ("cycle", Json.num cycle);
        ("residual", Json.Num residual);
        ("status", Json.Str status) ] )
  | Group_begin { gid; kind } ->
    ("group_begin", [ ("gid", Json.num gid); ("group_kind", Json.Str kind) ])
  | Group_end { gid } -> ("group_end", [ ("gid", Json.num gid) ])
  | Plan_set { digest; variant } ->
    ("plan", [ ("digest", Json.Str digest); ("variant", Json.Str variant) ])
  | Checkpoint { cycle; residual } ->
    ( "checkpoint",
      [ ("cycle", Json.num cycle); ("residual", Json.Num residual) ] )
  | Fault { cycle; fault } ->
    ("fault", [ ("cycle", Json.num cycle); ("fault", Json.Str fault) ])
  | Rollback { cycle } -> ("rollback", [ ("cycle", Json.num cycle) ])
  | Retry { cycle; attempt; backoff_s } ->
    ( "retry",
      [ ("cycle", Json.num cycle);
        ("attempt", Json.num attempt);
        ("backoff_s", Json.Num backoff_s) ] )
  | Fallback_switch { cycle } ->
    ("fallback_switch", [ ("cycle", Json.num cycle) ])
  | Quarantine { cycle; faults } ->
    ("quarantine", [ ("cycle", Json.num cycle); ("faults", Json.num faults) ])
  | Watchdog_armed { stage; budget_ns } ->
    ( "watchdog_armed",
      [ ("stage", Json.Str stage); ("budget_ns", Json.num budget_ns) ] )
  | Deadline_trip { stage; elapsed_ns; budget_ns } ->
    ( "deadline_trip",
      [ ("stage", Json.Str stage);
        ("elapsed_ns", Json.num elapsed_ns);
        ("budget_ns", Json.num budget_ns) ] )
  | Budget_exceeded { requested_bytes; budget_bytes; pool_bytes } ->
    ( "budget_exceeded",
      [ ("requested_bytes", Json.num requested_bytes);
        ("budget_bytes", Json.num budget_bytes);
        ("pool_bytes", Json.num pool_bytes) ] )
  | Pool_trim { dropped_bytes } ->
    ("pool_trim", [ ("dropped_bytes", Json.num dropped_bytes) ])
  | High_water { bytes; budget_bytes } ->
    ( "high_water",
      [ ("bytes", Json.num bytes); ("budget_bytes", Json.num budget_bytes) ] )
  | Demotion { from_rung; to_rung; over_bytes } ->
    ( "demotion",
      [ ("from", Json.Str from_rung);
        ("to", Json.Str to_rung);
        ("over_bytes", Json.num over_bytes) ] )
  | Runtime_demotion { rung } ->
    ("runtime_demotion", [ ("rung", Json.Str rung) ])
  | Infeasible { budget_bytes; floor_bytes; floor_rung } ->
    ( "infeasible",
      [ ("budget_bytes", Json.num budget_bytes);
        ("floor_bytes", Json.num floor_bytes);
        ("floor_rung", Json.Str floor_rung) ] )
  | Checkpoint_write { gen; cycle } ->
    ( "checkpoint_write",
      [ ("gen", Json.num gen); ("cycle", Json.num cycle) ] )
  | Checkpoint_restore { gen; cycle } ->
    ( "checkpoint_restore",
      [ ("gen", Json.num gen); ("cycle", Json.num cycle) ] )
  | Checkpoint_reject { gen; reason } ->
    ( "checkpoint_reject",
      [ ("gen", Json.num gen); ("reason", Json.Str reason) ] )
  | Resume_replan { old_digest; new_digest } ->
    ( "resume_replan",
      [ ("old_digest", Json.Str old_digest);
        ("new_digest", Json.Str new_digest) ] )
  | Note s -> ("note", [ ("text", Json.Str s) ])

let event_to_json e =
  let kind, fields = event_fields e.kind in
  Json.Obj
    (("kind", Json.Str kind)
     :: ("seq", Json.num e.seq)
     :: ("dom", Json.num e.dom)
     :: ("t_ns", Json.num e.t_ns)
     :: fields)

(* ------------------------------------------------------------------ *)
(* Incident reports *)

let incident_dir : string option Atomic.t = Atomic.make None
let set_incident_dir d = Atomic.set incident_dir d

let max_incidents = Atomic.make 32

let set_max_incidents n =
  if n < 0 then invalid_arg "Flightrec.set_max_incidents";
  Atomic.set max_incidents n

(* Two counters: [incident_seq] hands out file numbers (advanced past
   any number another process already claimed on disk), while
   [incidents_written] counts reports this process actually wrote and
   enforces the per-process cap.  Keeping them separate means a number
   lost to a cross-process EEXIST race doesn't eat into the cap. *)
let incidents_written = Atomic.make 0
let incident_seq = Atomic.make 0
let incident_count () = Atomic.get incidents_written
let incident_mutex = Mutex.create ()

let rec ensure_dir dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then ensure_dir parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Filenames stay shell- and artifact-safe whatever the kind string. *)
let sanitize_kind k =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
      | _ -> '-')
    k

let environment_json () =
  Json.Obj
    [ ("ocaml_version", Json.Str Sys.ocaml_version);
      ("os_type", Json.Str Sys.os_type);
      ("word_size", Json.num Sys.word_size);
      ( "argv",
        Json.Arr (Array.to_list (Array.map (fun a -> Json.Str a) Sys.argv)) )
    ]

(* Claim a numbered incident path atomically: O_CREAT|O_EXCL creates
   the placeholder iff the number is unclaimed, so two processes (or a
   process racing a crashed predecessor's leftovers) can never agree on
   the same filename.  The placeholder is immediately replaced by the
   full report via [Snapshot.atomic_write_string] (write temp + rename),
   so readers only ever see empty-or-complete, never torn.  Bounded so a
   pathological directory cannot spin forever. *)
let claim_path dir kind =
  let rec try_claim attempts =
    if attempts <= 0 then None
    else begin
      let n = Atomic.fetch_and_add incident_seq 1 in
      let path =
        Filename.concat dir
          (Printf.sprintf "incident-%03d-%s.json" (n + 1) (sanitize_kind kind))
      in
      match
        Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644
      with
      | fd ->
        Unix.close fd;
        Some (n, path)
      | exception Unix.Unix_error (Unix.EEXIST, _, _) ->
        try_claim (attempts - 1)
    end
  in
  try_claim 1000

let incident ~kind ?cycle ?(detail = []) () =
  if not (on ()) then None
  else
    match Atomic.get incident_dir with
    | None -> None
    | Some dir ->
      Mutex.lock incident_mutex;
      let result =
        Fun.protect ~finally:(fun () -> Mutex.unlock incident_mutex)
          (fun () ->
            (* Cap check under the mutex: concurrent solves can't both
               sneak past a cap with one slot left. *)
            if Atomic.get incidents_written >= Atomic.get max_incidents then
              None
            else
              try
                ensure_dir dir;
                match claim_path dir kind with
                | None -> None
                | Some (n, path) ->
                  let plan_digest, plan_variant =
                    match noted_plan () with
                    | Some (d, v) -> (d, v)
                    | None -> ("", "")
                  in
                  let doc =
                    Json.Obj
                      [ ("schema", Json.Str "polymg.incident/1");
                        ("seq", Json.num (n + 1));
                        ("kind", Json.Str kind);
                        ( "cycle",
                          match cycle with
                          | Some c -> Json.num c
                          | None -> Json.Null );
                        ( "plan",
                          Json.Obj
                            [ ("digest", Json.Str plan_digest);
                              ("variant", Json.Str plan_variant) ] );
                        ("detail", Json.Obj detail);
                        ( "events",
                          Json.Arr (List.map event_to_json (events ())) );
                        ("dropped_events", Json.num (dropped_events ()));
                        ( "counters",
                          Json.Obj
                            (List.map
                               (fun (k, v) -> (k, Json.num v))
                               (Telemetry.counters ())) );
                        ("environment", environment_json ())
                      ]
                  in
                  (* atomic replacement: a crash mid-dump must never leave
                     a torn JSON file for incident_check/compare to trip
                     on *)
                  Snapshot.atomic_write_string ~path
                    (Json.to_string doc ^ "\n");
                  ignore (Atomic.fetch_and_add incidents_written 1);
                  Some path
              with _ ->
                (* A report is best-effort evidence; failing to file one
                   (disk full, permissions) must never take down the
                   solve that produced it. *)
                None)
      in
      (match result with
       | Some path ->
         Telemetry.add c_incidents 1;
         Printf.eprintf "flightrec: incident %s (kind %s%s) -> %s\n%!"
           (Filename.basename path) kind
           (match cycle with
           | Some c -> Printf.sprintf ", cycle %d" c
           | None -> "")
           path
       | None -> Telemetry.add c_suppressed 1);
      result

let reset () =
  ignore
    (with_rings (fun b -> b.ring <- Ring.create (Atomic.get capacity)));
  Atomic.set seq_counter 0;
  Atomic.set incidents_written 0;
  Atomic.set incident_seq 0;
  Atomic.set plan_note None
