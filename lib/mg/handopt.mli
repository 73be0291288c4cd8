(** Hand-optimized multigrid baselines (§4.1).

    [`Plain`] is the paper's {e handopt}: explicit loop parallelization
    over the outer dimension, storage reuse via two modulo buffers per
    level, and persistent (pooled) allocation of all level arrays across
    cycles.  [`Pluto`] is {e handopt+pluto}: the same code with the
    pre/post/coarse smoothing sequences executed under the diamond
    time-tiling schedule of {!Repro_poly.Diamond}. *)

type smoothing = Plain | Pluto of { sigma : int }

(** Where in a level visit a {!probe} is called. *)
type phase =
  | Entry  (** before any smoothing *)
  | Pre_smoothed  (** after pre-smoothing (the coarsest level's only one) *)
  | Corrected  (** after coarse correction and post-smoothing *)

type probe =
  level:int -> phase -> Kernels.buf option -> Kernels.buf -> unit
(** [probe ~level phase iterate frhs] sees a level visit's iterate
    ([None]: a zero initial iterate, at a coarse level's [Entry]) and
    its right-hand side, both level-sized with one ghost layer.  Level
    0 is the coarsest; a W-cycle visits a level more than once per
    cycle.  The buffers are the cycle's own: read them, never keep or
    write them. *)

type t

val create :
  Cycle.config -> n:int -> par:Repro_runtime.Parallel.t ->
  ?smoothing:smoothing -> ?probe:probe -> unit -> t
(** Allocates all level arrays once (the baseline's pooled allocation).
    [probe] instruments every level visit ({!Health} measures residuals
    there); without one the cycle allocates nothing per visit.  F-cycles
    and GSRB smoothing are not supported by the hand implementations
    ([Invalid_argument]). *)

val stepper : t -> Solver.stepper
(** One multigrid cycle.  The input iterate grid is read-only; the new
    iterate is written to [out]. *)
