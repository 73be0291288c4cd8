(** Stage watchdog: soft deadlines with cooperative cancellation.

    A hung or pathologically slow stage would otherwise block a solve
    forever — the failure mode resource governance must not have.  The
    watchdog is armed around a stage (a plan group) with a nanosecond
    budget; worker code calls {!check} at natural preemption points
    (tile boundaries in {!Repro_core.Exec}), and the first check past
    the deadline raises {!Deadline_exceeded}.  The exception propagates
    out of {!Parallel.parallel_for} like any worker exception, so the
    caller (typically {!Guard}) sees one typed, attributable fault
    instead of a hang.

    Cancellation is {e cooperative}: a stage is only interrupted at a
    tile boundary, never mid-kernel, so buffers are never left in a
    torn state within a tile.  The disarmed fast path of {!check} is a
    single atomic load and compare.

    State is global (one deadline at a time), matching the executor's
    sequential group loop; arming is not reentrant. *)

exception
  Deadline_exceeded of {
    stage : string;  (** the armed stage/group label *)
    elapsed_ns : int;  (** time since arming when the trip was detected *)
    budget_ns : int;
  }

val arm : stage:string -> budget_ns:int -> unit
(** Starts the deadline clock for [stage].  [budget_ns <= 0] raises
    [Invalid_argument].  Re-arming replaces the previous deadline. *)

val disarm : unit -> unit
(** Clears the deadline.  Always safe; idempotent. *)

val armed : unit -> bool

val check : unit -> unit
(** Raises {!Deadline_exceeded} when armed and past the deadline (and
    counts the trip in the [govern.deadline_trips] telemetry counter).
    A cheap no-op otherwise — safe to call from any domain at tile
    granularity. *)

val with_deadline : stage:string -> budget_ns:int -> (unit -> 'a) -> 'a
(** [arm]s, runs the thunk, and [disarm]s even on raise. *)
