(** The self-describing metrics document behind [mg_solve --metrics FILE]:
    one JSON object per run tying together what the run {e was} (config +
    plan digest), what it {e should} have cost ({!Repro_core.Cost}), what
    it {e did} cost (the probe's per-site stats and the counters), and
    where that lands against the measured machine roofline
    ({!Repro_runtime.Roofline}) — per stage, achieved GB/s and GFLOP/s
    next to the model's prediction.

    Schema: ["polymg.metrics/1"].  Measured stage time is read from the
    {!Repro_runtime.Profile} stats sink through
    {!Calibrate.profile_measured_ns}, so the run must have had the
    [Stats] sink on.  Stages of diamond groups have no per-step probe
    (execution interleaves steps inside wavefronts), so their measured
    time is the group's front time distributed by FLOP share and marked
    ["attributed": true]. *)

val build :
  health:Health.report option ->
  cfg:Cycle.config ->
  n:int ->
  variant:string ->
  domains:int ->
  cost:Repro_core.Cost.t option ->
  plan:Repro_core.Plan.t option ->
  stats:Solver.cycle_stats list ->
  total_seconds:float ->
  counters:(string * int) list ->
  roofline:Repro_runtime.Roofline.t ->
  Repro_runtime.Json.t
(** [plan]/[cost] are [None] for the hand-optimized baselines (no DSL
    plan exists); the document then carries measured data only. *)

val write : path:string -> Repro_runtime.Json.t -> unit
(** @raise Sys_error if the file cannot be written. *)
