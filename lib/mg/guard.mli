(** Guarded execution: per-cycle fault detection with checkpoint,
    rollback, and graceful fallback to an unoptimized plan.

    The optimizing plan pipeline (overlapped tiling, scratchpads, storage
    remapping) is exactly the kind of code whose bugs corrupt answers
    silently.  {!run} wraps any {!Solver.stepper} in a monitor that after
    every cycle scans the fresh iterate for non-finite values and
    classifies its residual ({!Solver.classify}); on a NaN, divergence,
    or crash it rolls back to the last accepted iterate, which the
    faulted attempt did not write (a stepper writes only its [out]), and
    re-runs the failed cycle on a {e fallback} stepper —
    typically the same cycle compiled with {!Repro_core.Options.naive},
    no optimizations — which isolates whether the optimizer caused the
    fault.  If the primary plan keeps faulting it is quarantined for the
    rest of the solve; if the {e fallback} faults, the fault is inherent
    to the problem and the solve stops with the last good iterate.

    Every detection, rollback, and switch is recorded in telemetry
    counters ([guard.*]) and returned as {!event}s. *)

type policy = {
  tol : float option;
      (** stop as soon as the L2 residual is [<= tol] (early stop) *)
  max_cycles : int;  (** accepted-cycle budget (faulted retries excluded) *)
  primary_retries : int;
      (** bounded retry: re-run a faulted cycle on the {e primary} plan
          up to this many times before switching to the fallback
          (default 0 — first fault goes straight to the fallback).
          Retried faults do not count toward the quarantine threshold;
          the retry budget resets on every accepted cycle.  Retries are
          counted in the [govern.primary_retries] telemetry counter. *)
  retry_backoff : float;
      (** base of the exponential backoff slept before each primary
          retry: retry [k] waits [retry_backoff × 2{^k-1}] seconds
          (default 0 — no sleep). *)
}
(** The fault thresholds are constants, not policy: a residual above
    [divergence_factor = 1e3] times the best so far is a divergence
    fault; a cycle improving the residual by less than
    [stagnation_eps = 1e-3] is stagnant, and [stagnation_window = 3]
    stagnant cycles in a row stop the solve; the primary stepper is
    quarantined after [max_primary_faults = 2] faults, each fault before
    that costing one fallback retry.  An incident's [policy] block
    reports them beside the fields. *)

val default_policy : policy
(** [tol = None], [max_cycles = 50], and the defaults noted above. *)

type fault =
  | Fault_nan  (** non-finite values in the iterate or its residual *)
  | Fault_diverged  (** residual blew past [1e3 × best] *)
  | Fault_crash of string  (** the stepper raised; payload is the message *)

val fault_name : fault -> string

type action =
  | Primary_retry
      (** rolled back; cycle re-run on the {e primary} plan after the
          policy's exponential backoff ([policy.primary_retries]) *)
  | Fallback_retry  (** rolled back; cycle re-run on the fallback plan *)
  | Quarantined_primary
      (** rolled back; primary disabled for the rest of the solve *)
  | Gave_up  (** fault on the fallback plan (or no fallback): stop *)

val action_name : action -> string

type event = { cycle : int; fault : fault; action : action }

type outcome =
  | Converged  (** reached [policy.tol] *)
  | Exhausted  (** ran [max_cycles] without meeting [tol] *)
  | Stagnated  (** residual stopped improving for 3 cycles *)
  | Faulted of fault
      (** unrecoverable fault; [v] holds the last good iterate *)

val outcome_name : outcome -> string

type result = {
  stats : Solver.cycle_stats list;
      (** every attempted cycle, including faulted attempts (status
          [Nan]/[Diverged]); crashed attempts appear only in [events] *)
  v : Repro_grid.Grid.t;  (** final (always last-good) iterate *)
  residual : float;  (** residual of [v]; the initial residual if no
                         cycle was accepted *)
  outcome : outcome;
  events : event list;  (** faults in detection order *)
  fallback_cycles : int;  (** accepted cycles run on the fallback plan *)
  total_seconds : float;  (** stepper time, all attempts, checks excluded *)
}

type checkpoint_sink = {
  ck_accept :
    cycle:int -> residual:float -> v:Repro_grid.Grid.t ->
    stats:Solver.cycle_stats list -> unit;
      (** called after every accepted cycle with the live accepted
          iterate, which holds until the next accept; after that the
          guard writes it again, so a sink that keeps it longer copies
          it.  {!Checkpoint.sink} persists it on its cadence *)
  ck_restore : unit -> (int * float * Repro_grid.Grid.t) option;
      (** newest durable [(cycle, residual, iterate)]; consulted on
          rollback when the last accepted iterate holds non-finite
          values, so recovery can restore from disk, not just memory
          (counted in [guard.checkpoint_disk_restores]) *)
}

val run :
  ?policy:policy -> ?checkpoint:checkpoint_sink -> ?start_cycle:int ->
  primary:Solver.stepper -> ?fallback:(unit -> Solver.stepper) ->
  problem:Problem.t -> unit -> result
(** Runs guarded cycles of [primary] on [problem].  [fallback] is built
    lazily, on the first fault.  Cycle numbers in [stats]/[events] only
    advance on accepted cycles, so a retried cycle keeps its number.
    [start_cycle] (default 1) resumes numbering mid-run after a durable
    restore: [problem.v] should then hold the restored iterate, and
    [policy.max_cycles] keeps meaning the {e absolute} cycle budget.
    {!Repro_runtime.Mempool.Budget_exceeded} is not a fault: it
    propagates, so a budgeted caller ({!Request.run}) demotes to the
    next fitting rung rather than the unpooled fallback. *)

val fallback_opts : Repro_core.Options.t -> Repro_core.Options.t
(** {!Repro_core.Options.naive} with [check_plan] inherited — the option
    set the guard falls back to. *)
