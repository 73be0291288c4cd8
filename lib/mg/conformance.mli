(** Conformance harness: the repo's answer to "do all the variants
    actually compute the same thing?" (the paper's §7 validation premise).

    Three independent legs, combined by [bench/conformance.exe] and the
    [mg_solve --conform] / [polymg_dump --what conform] CLIs:

    - a {b differential oracle} running every plan variant (and the
      hand-optimized baselines) in lockstep against the naive plan —
      every candidate cycle starts from the {e reference} iterate, so a
      mismatch is pinned to one cycle, and a stage-level drilldown then
      pins it to the first diverging stage;
    - {b emitted-C run-equivalence}: the plan's emitted C, compiled and
      loaded by {!Repro_core.Native}, runs on deterministically filled
      inputs and its output grids are diffed against the engine's;
    - {b MMS convergence verification}: solving the manufactured Poisson
      problem at a ladder of sizes must show second-order error decay —
      the one check that catches bugs shared by {e every} variant.

    Tolerances are centralized in {!budgets} and documented in
    TESTING.md. *)

(** {2 Difference metrics} *)

type diff = {
  max_abs : float;  (** worst absolute difference; [infinity] on NaN *)
  max_ulp : float;  (** ULP distance at the worst point *)
  worst : int;  (** flat buffer index of the worst point; [-1] if none *)
}

val grid_diff : Repro_grid.Grid.t -> Repro_grid.Grid.t -> diff
(** Whole-buffer comparison, ghosts included; extents must match. *)

(** {2 Tolerance budgets} *)

type budgets = {
  vs_plan : float;
      (** plan variants vs the naive plan: same compiled kernels, only
          walk specialization reorders arithmetic *)
  vs_handopt : float;
      (** vs the hand-written baselines: independent implementation *)
  vs_c : float;  (** emitted C vs the engine *)
}

val default_budgets : budgets

(** {2 Deterministic fill} *)

val fill_val : input:int -> int array -> float
(** The C-equivalence leg's input fill: FNV-1a over (input index,
    multi-index), folded to a 20-bit value in [-0.5, 0.5) that is exact
    in double. *)

(** {2 Differential oracle} *)

type pair = {
  candidate : string;
  domains : int;
  max_abs : float;
  max_ulp : float;
  worst_cycle : int;  (** 1-based; [0] when no difference at all *)
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
  ?budgets:budgets -> ?quick:bool -> Cycle.config -> n:int -> cycles:int ->
  unit -> case
(** Runs the naive reference, then every candidate in lockstep.  [quick]
    restricts to one domain and the plain handopt baseline. *)

val oracle_campaign : ?budgets:budgets -> ?quick:bool -> unit -> case list

(** {2 Emitted-C run-equivalence} *)

type c_verdict =
  | C_ok of {
      compiler : string;
      bit_identical : bool;
      max_abs : float;
      max_ulp : float;
    }
  | C_fail of { reason : string; max_abs : float; max_ulp : float }
  | C_skip of string
      (** no C compiler ({!Repro_core.Native.cc}), or the plan is not
          renderable as a complete program ({!Repro_core.C_emit.runnable}) *)

val c_equivalence : ?budget:float -> Repro_core.Plan.t -> c_verdict
(** Fills the plan's inputs with {!fill_val}, runs them through
    {!Repro_core.Exec.run} and through the plan's
    {!Repro_core.Native} kernel, and diffs the output grids, ghosts
    included.  A kernel that fails to build is [C_fail]. *)

val c_campaign : ?budget:float -> ?quick:bool -> unit -> (string * c_verdict) list

val c_verdict_pass : c_verdict -> bool
(** Skips count as passing (they are reported, not hidden). *)

(** {2 Backend axis: interpreter vs native} *)

val native_campaign :
  ?budgets:budgets -> ?quick:bool -> unit -> (case list, string) result
(** The backend axis over {!campaign_matrix}.  [Error reason] when no C
    compiler is available, so callers surface a visible skip instead of
    a silent pass. *)

(** {2 MMS convergence order} *)

type mms = { m_dims : int; m_samples : (int * float) list; m_order : float }

val mms_study :
  ?opts:Repro_core.Options.t -> ?cycles:int -> dims:int -> unit -> mms

val mms_pass : mms -> bool
(** Observed order within [2.0 ± 0.1]. *)

(** {2 Reporting} *)

val json_of_case : case -> Repro_runtime.Json.t
val json_of_c_verdict : string * c_verdict -> Repro_runtime.Json.t
val json_of_mms : mms -> Repro_runtime.Json.t

val pp_case : Format.formatter -> case -> unit
val pp_c_verdict : Format.formatter -> string * c_verdict -> unit
val pp_mms : Format.formatter -> mms -> unit
