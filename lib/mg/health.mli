(** Convergence observatory: per-level numerical diagnostics.

    Where {!Verify} answers "is the answer right" and {!Guard} answers
    "did the solve survive", this module answers "is the multigrid
    {e healthy}": is each level pulling its weight, how fast is the
    cycle contracting, and if convergence stalls, {e which level}
    stopped reducing its residual and when.

    The observatory runs a sequential {!Handopt} V/W-cycle with a
    {!Handopt.probe} at every level visit: the level residual norm
    ({!Verify.residual_l2} on the level's grid) is measured on entry
    ([pre]), after pre-smoothing ([mid]) and after coarse correction +
    post-smoothing ([post]).  From those series it derives the standard
    multigrid health numbers:

    - {e convergence factor} per cycle: [r_c / r_(c-1)] on the finest
      grid, and the {e asymptotic} factor — the geometric mean over the
      last half of the cycles still above the round-off floor (early
      cycles flatter the factor; late ones sit in noise).
    - {e smoothing rate} per level: geometric mean of [mid/pre] — how
      much one pre-smoothing phase contracts that level's residual.
    - {e stall attribution}: the first cycle after which a level's
      [post] residual stopped improving (relative drop below 0.1%)
      while still above the floor, i.e. "level 3 stopped reducing its
      residual at cycle 7".

    Like {!Handopt}, only Jacobi-smoothed V and W cycles are supported
    ([Invalid_argument] otherwise).  The observatory is diagnostic: it
    runs its own iterate, never touching the production solve's state. *)

type visit = {
  cycle : int;  (** 1-based cycle this visit belongs to *)
  pre : float;  (** level residual norm entering the visit *)
  mid : float;  (** after pre-smoothing (= [post] at the coarsest) *)
  post : float;  (** after coarse correction + post-smoothing *)
}

type level_diag = {
  level : int;  (** 0 = coarsest *)
  nl : int;  (** interior size at this level *)
  visits : visit array;  (** in execution order; W-cycles revisit *)
  smoothing_rate : float;  (** geometric mean of [mid/pre] *)
  level_factor : float;  (** geometric mean of [post/pre] *)
  stalled_at : int option;  (** cycle the level stopped improving *)
}

type report = {
  bench : string;  (** e.g. ["V-2D-4-4-4"] *)
  dims : int;
  n : int;
  levels : int;
  cycles : int;
  residual0 : float;  (** finest residual norm of the initial guess *)
  residuals : float array;  (** finest residual norm after each cycle *)
  cycle_factors : float array;  (** [residuals.(c) / previous] *)
  asymptotic_factor : float;
  level_diags : level_diag array;  (** index 0 = coarsest *)
  stalled_level : int option;  (** earliest-stalling level, if any *)
}

val observe :
  Cycle.config -> n:int -> cycles:int -> ?problem:Problem.t -> unit -> report
(** Runs [cycles] probed {!Handopt} cycles on [problem] (default: the
    standard Poisson problem) and returns the full diagnostic report.
    @raise Invalid_argument for F-cycles, GSRB smoothing, or [n] not
    divisible by [2^(levels-1)]. *)

val pp : Format.formatter -> report -> unit
(** Human-readable health table ([mg_solve --health]). *)

val to_json : report -> Repro_runtime.Json.t
(** The ["health"] block embedded in the metrics document. *)

val healthy : ?max_factor:float -> report -> (unit, string list) result
(** Range check for the conformance campaign: the asymptotic convergence
    factor must be finite, positive and at most [max_factor] (default
    0.75 — the standard Poisson configs measure ~0.22 (W-2D) to ~0.67
    (V-2D)), the final residual must have dropped, and no level may
    stall while the solve is above the round-off floor.  [Error]
    carries one message per violated check. *)
