(** Conformance harness: the repo's answer to "do all the variants
    actually compute the same thing?" (the paper's §7 validation premise).

    Three independent legs, combined by [bench/conformance.exe] and the
    [mg_solve --conform] / [polymg_dump --what conform] CLIs:

    - a {b differential oracle} running every plan variant (and the
      hand-optimized baselines) in lockstep against the naive plan —
      every candidate cycle starts from the {e reference} iterate, so a
      mismatch is pinned to one cycle, and a stage-level drilldown then
      pins it to the first diverging stage;
    - the {b backend axis}: every plan variant's emitted C, compiled and
      loaded by {!Repro_core.Native}, against the interpreter on the same
      plan — once on deterministically filled inputs, then in lockstep on
      the interpreter's Poisson iterates — through the one comparison
      {!vs_native};
    - {b MMS convergence verification}: solving the manufactured Poisson
      problem at a ladder of sizes must show second-order error decay —
      the one check that catches bugs shared by {e every} variant.

    Tolerances are centralized in {!budgets} and documented in
    TESTING.md. *)

(** {2 Difference metrics} *)

type diff = {
  max_abs : float;
      (** worst {!Repro_grid.Buf.point_diff}: 0 where the values are
          equal or both NaN, [infinity] for a NaN against a number *)
  max_ulp : float;  (** ULP distance at the worst point *)
  worst : int;  (** flat buffer index of the worst point; [-1] if none *)
}

val grid_diff : Repro_grid.Grid.t -> Repro_grid.Grid.t -> diff
(** Whole-buffer comparison, ghosts included; extents must match. *)

(** {2 Tolerance budgets} *)

type budgets = {
  vs_plan : float;
      (** plan variants vs the naive plan: 0, exact.  Every variant runs
          the same compiled kernels, which sum in one order *)
  vs_handopt : float;
      (** vs the hand-written baselines: independent implementation *)
  vs_c : float;
      (** a plan's native kernel (its emitted C) vs the engine: 0, exact.
          The interpreter's walks and the emitted C both add [base], then
          the [Compile.Lin] terms left to right *)
}

val default_budgets : budgets

(** {2 Deterministic fill} *)

val fill_val : input:int -> int array -> float
(** The input fill of a native pair's cycle 0: FNV-1a over (input
    index, multi-index), folded to a 20-bit value in [-0.5, 0.5) that is
    exact in double. *)

(** {2 Differential oracle} *)

type pair = {
  candidate : string;
  domains : int;
  max_abs : float;
  max_ulp : float;
  worst_cycle : int;
      (** 1-based; [0] when no difference at all, or (native pairs) when
          the worst is the filled-input execution *)
  budget : float;
  pass : bool;
  first_bad_stage : (string * float) option;
      (** drilldown result on failure: first diverging stage and its
          worst absolute difference (plan variants only) *)
}

type case = {
  bench : string;  (** {!Cycle.bench_name} *)
  n : int;
  cycles : int;
  pairs : pair list;
}

val case_pass : case -> bool

val oracle_case :
  ?quick:bool -> Cycle.config -> n:int -> cycles:int -> unit -> case
(** Runs the naive reference, then every candidate in lockstep.  [quick]
    restricts to one domain and the plain handopt baseline. *)

val oracle_campaign : ?quick:bool -> unit -> case list

(** {2 Backend axis: interpreter vs native} *)

val fill_io :
  Repro_core.Plan.t ->
  (int * Repro_grid.Grid.t) list * (int * Repro_grid.Grid.t) list
(** The plan's inputs filled with {!fill_val}, and fresh output grids:
    the [inputs] and [outputs] of a native pair's cycle 0. *)

val vs_native :
  ?domains:int ->
  Repro_core.Plan.t ->
  inputs:(int * Repro_grid.Grid.t) list ->
  outputs:(int * Repro_grid.Grid.t) list ->
  (diff, string) result
(** Runs the plan on [inputs] twice: through {!Repro_core.Exec.run} on
    [domains] (default 1) into [outputs], the reference, and through the
    plan's {!Repro_core.Native} kernel into NaN-filled grids of the same
    extents, so a cell the kernel fails to write cannot match.  Returns
    the worst output diff ({!Repro_grid.Buf.point_diff}), ghosts
    included, or the kernel's load error. *)

val native_case :
  ?quick:bool ->
  ?variants:(string * Repro_core.Options.t) list ->
  Cycle.config -> n:int -> cycles:int -> unit -> case
(** One [native:VARIANT] pair per variant (default: naive and every plan
    variant; naive and opt+ when [quick]) and domain count (1 and 4; 1
    when [quick]).  Each pair's worst of {!vs_native} over cycle 0, on
    {!fill_io}, and [cycles] lockstep cycles on the interpreter's
    iterates, judged against [vs_c].  A load error fails the pair
    and is named in [first_bad_stage]. *)

val native_campaign : ?quick:bool -> unit -> case list * string option
(** The backend axis over the campaign matrix.  The second component is
    the skip reason when no C compiler is available: the leg is then
    skipped, visibly, and every pair is reported unrun (failing, with no
    [first_bad_stage]), so the report has the same shape on every
    host. *)

(** {2 MMS convergence order} *)

type mms = { m_dims : int; m_samples : (int * float) list; m_order : float }

val mms_study : dims:int -> unit -> mms
(** 60 opt+ V-4-4-4 cycles at four levels on the manufactured problem at
    [n] = 16, 32 and 64: the observed order of the discretization
    error. *)

val mms_pass : mms -> bool
(** Observed order within [2.0 ± 0.1]. *)

(** {2 Reporting} *)

val json_of_case : case -> Repro_runtime.Json.t
val json_of_mms : mms -> Repro_runtime.Json.t

val pp_case : Format.formatter -> case -> unit
val pp_mms : Format.formatter -> mms -> unit
