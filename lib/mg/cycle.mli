(** Multigrid cycle construction in the PolyMG DSL.

    Builds the feed-forward pipeline of one cycle iteration for the
    Poisson problem [A u = f] with [A = −∇²_h] (the 2-D five-point /
    3-D seven-point operator of Fig. 3), weighted-Jacobi smoothing,
    full-weighting restriction and d-linear interpolation.

    The structure mirrors the recursive specification of Fig. 3; stage
    counts reproduce Table 3 exactly (e.g. 40 stages for V-4-4-4, 98 for
    W-10-0-0 at 4 levels): a W-cycle performs two recursive calls at
    levels ≥ 2 and a single call from level 1 to the coarsest. *)

type cycle_shape = V | W | F

type smoother_kind =
  | Jacobi
  | Gsrb
      (** Gauss-Seidel red-black, expressed as the paper suggests (§4.1)
          by abstracting the red and black points as two (parity-defined)
          grids: each smoothing step unrolls into a red half-stage and a
          black half-stage, so every optimization — fusion, overlapped
          tiling, scratch reuse, diamond tiling — applies unchanged. *)

type config = {
  dims : int;  (** 2 or 3 *)
  levels : int;  (** total levels; level 0 is the coarsest *)
  n1 : int;  (** pre-smoothing steps *)
  n2 : int;  (** coarsest-level smoothing steps *)
  n3 : int;  (** post-smoothing steps *)
  shape : cycle_shape;
  omega : float;  (** Jacobi damping (2/3 in 2D and 6/7 in 3D classic) *)
  smoother : smoother_kind;
}

val default : dims:int -> shape:cycle_shape -> smoothing:int * int * int ->
  config
(** 4 levels, ω = 0.8, Jacobi smoothing.  Not validated: see {!check}. *)

val shape_name : cycle_shape -> string
(** ["V"], ["W"] or ["F"]: the one spelling of a shape on the command
    line, on the wire and in benchmark names. *)

val shape_of_string : string -> cycle_shape option
(** Inverse of {!shape_name} (exact, upper case). *)

val check : config -> n:int -> cycles:int -> (unit, string) result
(** The checks every entry point shares ([mg_solve], [Serve]): dims 2 or
    3, at least 2 levels, non-negative smoothing steps, [n] a multiple of
    [2^(levels-1)] and at least {!min_n}, at least one cycle.  The error
    is a one-line message for the user. *)

val build : config -> Repro_ir.Pipeline.t
(** Raises [Invalid_argument] on a config {!check} rejects (sizes
    aside).  Inputs: grids ["V"] (initial guess) and ["F"] (right-hand side) of
    finest interior size [N−1]; output: the corrected, post-smoothed
    finest iterate. *)

val params : config -> n:int -> string -> float
(** Resolves the per-level parameters the pipeline uses: ["invhsq_L<l>"]
    ([1/h²] at level [l]) and ["w_L<l>"] (Jacobi weight [ω·h²/(2·dims)]).
    [n] must be divisible by [2^(levels-1)].
    @raise Invalid_argument for unknown names. *)

val input_v : Repro_ir.Pipeline.t -> int
(** Func id of the ["V"] input. *)

val input_f : Repro_ir.Pipeline.t -> int

val output : Repro_ir.Pipeline.t -> int

val min_n : config -> int
(** Smallest valid finest-grid parameter [N]: [2^levels], so that the
    coarsest grid ([N / 2^(levels-1)] = 2) keeps one interior point. *)

val bench_name : config -> string
(** e.g. ["V-2D-4-4-4"] — the benchmark naming of Table 3. *)
