(** The outer multigrid driver: iterates cycles (the loop that is external
    to the DSL, §2) over any cycle implementation — PolyMG plans or the
    hand-optimized baselines — and records convergence and timing. *)

type status =
  | Ok  (** residual finite and improving (or not computed) *)
  | Nan  (** residual NaN/Inf: non-finite values in the iterate *)
  | Diverged  (** residual grew past the divergence factor × best-so-far *)
  | Stagnated  (** residual no longer improving meaningfully *)

val status_name : status -> string

type cycle_stats = {
  cycle : int;  (** 1-based *)
  residual : float;  (** L2 residual after the cycle; NaN if not computed *)
  seconds : float;  (** wall time of the cycle execution alone *)
  status : status;
}

type result = {
  stats : cycle_stats list;
  v : Repro_grid.Grid.t;  (** final iterate *)
  total_seconds : float;  (** time in cycle executions, excluding checks *)
}

type stepper = v:Repro_grid.Grid.t -> f:Repro_grid.Grid.t ->
  out:Repro_grid.Grid.t -> unit
(** One cycle: reads the iterate [v] and the rhs [f] and writes only
    [out], the new iterate.  [v] and [f] come back bit-unchanged:
    {!Guard.run} keeps its last accepted iterate in place, with no copy,
    as the state a faulted cycle rolls back to. *)

val classify :
  ?divergence_factor:float -> ?stagnation_eps:float -> best:float ->
  prev:float -> float -> status
(** [classify ~best ~prev residual] assigns a status to a fresh residual
    given the best and previous residuals (pass [infinity] when unknown —
    infinite bounds disable the corresponding test).  NaN/Inf residuals
    are {!Nan}; residuals above [divergence_factor] (default 1e4) times
    [best] are {!Diverged}; improvements below [stagnation_eps] (default
    1e-2, i.e. less than 1% per cycle) are {!Stagnated}. *)

val iterate :
  stepper -> problem:Problem.t -> cycles:int -> ?residuals:bool ->
  ?start_cycle:int ->
  ?on_accept:
    (cycle:int -> residual:float -> v:Repro_grid.Grid.t ->
     stats:cycle_stats list -> unit) ->
  unit -> result
(** Runs [cycles] iterations, ping-ponging two iterate grids.
    [residuals] (default true) computes the residual after each cycle with
    {!Verify.residual_l2} (excluded from timings) and classifies it with
    {!classify} at default thresholds; with [residuals:false] every status
    is {!Ok}.  [start_cycle] (default 1) offsets cycle numbering so a
    resumed solve continues where the checkpointed one stopped; [cycles]
    stays the number of cycles {e this} call runs.  [on_accept] is
    called after every completed cycle with the fresh iterate and the
    stats so far — {!Checkpoint.sink} plugs in here to persist durable
    generations on its cadence (the grid is read, never retained).  For
    fault detection with rollback and fallback, use {!Guard.run}
    instead. *)

val polymg_plan :
  Cycle.config -> n:int -> opts:Repro_core.Options.t -> Repro_core.Plan.t
(** Builds the cycle pipeline and optimizes it into a plan (through
    {!Repro_core.Plan_check.build}, so [opts.check_plan] validates the
    storage mapping before first use). *)

val plan_stepper : Repro_core.Plan.t -> rt:Repro_core.Exec.runtime -> stepper
(** The stepper executing an already-built cycle plan — callers that also
    want to report on the plan ({!Repro_core.Cost}, {!Perf_report}) build
    it once with {!polymg_plan} and reuse it here, so stage names in the
    report match the executed spans. *)

val polymg_stepper :
  Cycle.config -> n:int -> opts:Repro_core.Options.t -> rt:Repro_core.Exec.runtime ->
  stepper
(** [plan_stepper (polymg_plan cfg ~n ~opts) ~rt]. *)

val solve :
  Cycle.config -> n:int -> opts:Repro_core.Options.t -> cycles:int ->
  ?residuals:bool -> unit -> result
(** Convenience: fresh one-domain runtime + {!polymg_stepper} +
    {!iterate} on the standard Poisson problem.  The runtime is torn
    down when the solve returns {e or raises} (no domain-pool leak on
    stepper failure). *)
