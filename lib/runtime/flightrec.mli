(** Flight recorder: always-on, bounded-overhead structured event log.

    The black box behind incident reports.  Robustness and execution
    layers ({!Watchdog}, {!Mempool}, [Guard], [Govern], [Exec], the
    solver loop) emit typed events into fixed-size per-domain ring
    buffers; when an anomaly occurs — a guard fault, a quarantine, a
    deadline stop, a budget infeasibility, an uncaught exception — the
    recorder dumps a self-contained {e incident report} (JSON, schema
    [polymg.incident/1]) carrying the event tail, the plan digest, the
    caller's detail payload, a counter snapshot and the environment.

    The on/off switch is the probe mask's {!Telemetry.Ring} bit, so the
    disabled state costs one atomic flag load and a predictable branch
    per call site and never allocates.  Call sites therefore guard event
    construction:

    {[
      if Flightrec.on () then
        Flightrec.emit (Flightrec.Fault { cycle; fault = "nan" })
    ]}

    Recording is multi-domain safe (each domain appends to its own
    ring) and systhread-safe (threads multiplexed onto one domain share
    its ring under a per-ring lock, and incident filing serializes on a
    process-wide mutex with OS-atomic file creation) — the solver daemon
    records from concurrent request threads.  {!reset} still assumes no
    recorder is mid-solve. *)

(** {2 Ring buffers}

    Exposed for direct testing; {!emit} uses one ring per domain. *)

module Ring : sig
  type 'a t

  val create : int -> 'a t
  (** [create cap] makes an empty ring holding at most [cap] elements.
      @raise Invalid_argument when [cap < 1]. *)

  val push : 'a t -> 'a -> unit
  (** Appends, overwriting (and counting as dropped) the oldest element
      when full. *)

  val to_list : 'a t -> 'a list
  (** Retained elements, oldest first. *)

  val length : 'a t -> int
  val capacity : 'a t -> int

  val dropped : 'a t -> int
  (** Number of elements overwritten since creation. *)
end

(** {2 Events} *)

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
      (** a durable checkpoint generation was written *)
  | Checkpoint_restore of { gen : int; cycle : int }
      (** solver state restored from a durable generation *)
  | Checkpoint_reject of { gen : int; reason : string }
      (** a torn/corrupt generation was detected and skipped *)
  | Resume_replan of { old_digest : string; new_digest : string }
      (** resume found a checkpoint from a different plan and re-planned *)
  | Note of string

type event = {
  t_ns : int;  (** monotonic clock, nanoseconds *)
  dom : int;  (** recording domain's id *)
  seq : int;  (** global sequence number: total order across domains *)
  kind : kind;
}

val on : unit -> bool
(** One atomic load of the {!Telemetry.Ring} sink bit; the intended
    guard around {!emit} call sites. *)

val set_enabled : bool -> unit
(** [Telemetry.set_sink Ring]. *)

val set_capacity : int -> unit
(** Per-domain ring capacity (default 512).  Applies to rings created
    after the call; {!reset} re-creates existing rings at the current
    capacity. *)

val emit : kind -> unit
(** Records an event in the calling domain's ring.  A no-op when
    disabled (but prefer guarding with {!on} so the argument is never
    constructed). *)

val emit_at : int -> kind -> unit
(** [emit_at t_ns kind] is {!emit} stamped with a monotonic time the
    caller already read (a probe's range ends), instead of reading the
    clock again. *)

val events : unit -> event list
(** Every retained event across all domains, in [seq] order. *)

val dropped_events : unit -> int
(** Total events overwritten across all domains' rings. *)

val reset : unit -> unit
(** Empties every ring, zeroes the drop counts and the incident
    counter, and forgets the noted plan. *)

(** {2 Plan context} *)

val note_plan : digest:string -> variant:string -> unit
(** Remembers the active plan (stored even when disabled, so a recorder
    enabled mid-run still attributes incidents) and, when enabled,
    records a {!Plan_set} event. *)

(** {2 Incident reports} *)

val set_incident_dir : string option -> unit
(** Directory for incident-report files (created on first write).
    [None] (the default) disables report writing; {!incident} is then a
    no-op. *)

val set_max_incidents : int -> unit
(** Cap on reports written per process (default 32); further incidents
    only bump the [flightrec.incidents_suppressed] counter. *)

val incident :
  kind:string -> ?cycle:int -> ?detail:(string * Json.t) list -> unit ->
  string option
(** [incident ~kind ()] writes [incident-NNN-<kind>.json] into the
    incident directory and prints a one-line summary on stderr,
    returning the path.  The document (schema [polymg.incident/1])
    contains the triggering [kind] and [cycle], the noted plan digest
    and variant, the caller's [detail] object, the retained event tail,
    the drop count, a {!Telemetry.counters} snapshot and the process
    environment.  Returns [None] (and writes nothing) when the recorder
    is disabled, no incident directory is set, or the cap is reached.

    Concurrency-safe: the file number is claimed with an atomic
    exclusive create (two overlapping solves — even in different
    processes sharing the directory — can never clobber each other's
    reports), the per-process cap is checked under the incident mutex,
    and filing never raises: an I/O failure is reported as [None] and
    counted in [flightrec.incidents_suppressed]. *)

val incident_count : unit -> int
(** Reports written so far in this process. *)
