(** One solve request, one solve path.

    Every entry point that solves — the [mg_solve] command line, the
    {!Serve} daemon, the campaigns and tests — describes the solve as a
    {!spec}, has {!validate} check it once into a {!t}, and hands that to
    {!run}.  The run path is the same for all of them:

    + plan decision: {!Repro_core.Govern.decide} when a budget is set,
      a single plan otherwise (through an optional cache hook);
    + resume: the newest usable {!Checkpoint} generation, its shape
      checked, digest drift recorded as [Resume_replan];
    + one fresh runtime per attempt, its pool armed once at
      [budget − rung.scratch_bytes];
    + the stepper, with the request's chaos [fault] applied;
    + {!Guard.run} (guarded) or {!Solver.iterate} (plain);
    + runtime demotion: a {!Repro_runtime.Mempool.Budget_exceeded},
      guarded or not, retries the next fitting ladder rung — a budgeted
      solve honours its budget in every mode;
    + a typed {!outcome}, mapped to the one {!status}/exit-code table. *)

(** {2 Statuses} *)

type status =
  | Ok  (** solve completed (converged, exhausted, or stagnated) *)
  | Invalid  (** the request failed {!validate} *)
  | Quarantined  (** primary plan quarantined; answered on the fallback *)
  | Deadline  (** a deadline stopped the solve *)
  | Faulted  (** unrecoverable fault; last-good iterate kept *)
  | Infeasible  (** budget below the governance ladder floor *)
  | Unresumable  (** the resume directory holds no usable generation *)
  | Shed  (** admission refused (service only: rate, queue, eviction) *)

val status_name : status -> string
val status_of_name : string -> status option

val code_of_status : status -> int
(** The exit-code table: [Ok] 0, [Invalid] 2, [Quarantined] 3,
    [Deadline]/[Faulted] 4, [Infeasible] 5, [Unresumable] 6, [Shed] 7. *)

(** {2 Description} *)

type t
(** A validated solve: only {!validate} makes one. *)

val cfg : t -> Cycle.config
val n : t -> int

val cycles : t -> int
(** The absolute cycle budget: a resumed solve continues toward it. *)

val guarded : t -> bool

type spec = {
  dims : int;
  levels : int;
  n : int option;  (** [None]: [32 · 2^(levels-1)] *)
  shape : Cycle.cycle_shape;
  smoothing : int * int * int;  (** pre/coarsest/post smoothing steps *)
  variant : string;  (** a preset, ["handopt"] or ["handopt+pluto"] *)
  backend : Repro_core.Options.backend;
  cycles : int;
  max_cycles : int option;  (** guarded cycle budget (default [cycles]) *)
  tol : float option;  (** early-stop tolerance; implies [guard] *)
  guard : bool;
  fallback : bool;
  domains : int;
  poison : bool;
  check_plan : bool;  (** {!Repro_core.Plan_check} every plan (campaigns) *)
  mem_budget : int option;  (** bytes *)
  deadline : float option;  (** soft per-stage deadline, seconds *)
  checkpoint_dir : string option;
  checkpoint_every : int;
  resume_dir : string option;  (** resume from this directory *)
  fault : string option;  (** ["nan"] or ["crash"] *)
  primary_retries : int;  (** {!Guard.policy.primary_retries}, no backoff *)
}
(** A solve as its caller states it, unchecked. *)

val default_spec : spec
(** The [mg_solve] defaults: 2-D V-4-4-4 at 4 levels ([n] 256 unless
    given), opt+ on the interpreter, 5 plain cycles, one domain,
    checkpoint cadence 1, everything else off. *)

val validate :
  ?max_n:int -> ?min_steps:int -> ?max_steps:int -> ?max_cycles:int ->
  ?allow_faults:bool -> ?allow_handopt:bool -> spec -> (t, string) result
(** The one validator: {!Cycle.check}, the variant, the fault kind,
    a guarded cycle budget of at least 1, a [tol] and a [deadline] that
    are finite and > 0, "budget, deadline and backend need a PolyMG
    variant", the checkpoint cadence, and the caller's limits: [max_n],
    [min_steps] in total and
    [max_steps] per smoothing phase,
    [allow_faults] (default false), [allow_handopt] (default true), and
    [max_cycles], which is clamped onto the cycle budget rather than
    refused.  The error is a one-line message. *)

(** {2 Running} *)

val chaos : t -> Solver.stepper -> Solver.stepper
(** The stepper with the request's [fault] applied: ["crash"] raises
    before the cycle, ["nan"] plants a NaN in [out] after it; the
    stepper itself without one. *)

type decision
(** The plan decision: the one plan, or the costed ladder when budgeted. *)

type solved = {
  stats : Solver.cycle_stats list;
  v : Repro_grid.Grid.t;  (** final iterate *)
  residual : float;  (** residual of [v] *)
  total_seconds : float;
  guarded : Guard.result option;
      (** [Some] under guarded execution, unless nothing ran *)
  report : Repro_core.Govern.report option;  (** [Some] when budgeted *)
  plan : Repro_core.Plan.t option;
      (** executed, after any demotion; [None] when nothing ran *)
  rung : Repro_core.Govern.rung option;  (** the executed rung, when budgeted *)
  runtime_demotions : int;
  resumed : Checkpoint.resume option;
  flushed : string option;  (** the final checkpoint written, if any *)
  problem : Problem.t;  (** the problem solved (resumed iterate in [v]) *)
}

type outcome =
  | Solved of solved
  | Stopped of string  (** a tripped deadline outside guarded mode *)
  | Over_budget of Repro_core.Govern.infeasible  (** at plan or run time *)
  | No_resume of string

val status : outcome -> status

val run :
  ?plans:(string -> (unit -> (decision, Repro_core.Govern.infeasible) result) ->
          (decision, Repro_core.Govern.infeasible) result) ->
  ?on_start:
    (resumed:Checkpoint.resume option -> Checkpoint.sink option -> unit) ->
  ?baseline:(Repro_core.Exec.runtime -> Solver.stepper) -> t -> outcome
(** Runs the solve.  The resume is loaded and checked first: an unusable
    one is [No_resume], and a checkpoint that already covers the cycle
    budget is [Solved] with nothing run and no plan decision.  [plans
    key build] may serve a cached decision instead of calling [build]:
    [key] digests the cycle configuration, size, engine options (budget
    and backend included) and domains.  [on_start] runs once the resume
    is accepted, before the first cycle (the command line prints its
    banner and arms its signal handlers there).  [baseline] builds the
    primary stepper of a hand-optimized variant (the command line's
    handopt baselines), which has no plan.
    {!Repro_core.Native.Unavailable} propagates: a forced native backend
    that cannot run is the caller's to report. *)
