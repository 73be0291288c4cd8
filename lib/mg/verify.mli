(** Independent numerical checks, written directly against grids (no DSL
    machinery) so they validate the execution engine rather than share
    code with it.  All checks support rectangular interiors: per-dim
    sizes are taken from the grid extents, and a grid with no interior is
    rejected with [Invalid_argument] rather than silently skipped. *)

val residual_l2 : n:int -> v:Repro_grid.Grid.t -> f:Repro_grid.Grid.t -> float
(** L2 norm of [f − A_h v] for the Poisson operator [A = −∇²_h] at grid
    spacing [h = 1/n]; rank taken from the grids (2 or 3).  One pass,
    no allocation.
    @raise Invalid_argument when [v] and [f] extents differ. *)

val error_l2 : v:Repro_grid.Grid.t -> exact:(int array -> float) -> float
(** L2 norm of [v − exact] over interior points. *)

val apply_poisson :
  n:int -> v:Repro_grid.Grid.t -> out:Repro_grid.Grid.t -> unit
(** [out ← A_h v] on the interior, ghosts untouched; no allocation.
    @raise Invalid_argument when [v] and [out] extents differ. *)

(** {2 Method-of-manufactured-solutions convergence verification}

    Solve the same problem at a ladder of sizes against a known exact
    solution; the discrete L2 error of a second-order discretization must
    shrink as [h² = n⁻²].  This catches whole-family discretization bugs
    (wrong stencil scaling, off-by-h boundary handling) that differential
    variant-vs-variant testing can never see, because every variant would
    be wrong in the same way. *)

val convergence_study :
  solve:(n:int -> Repro_grid.Grid.t) ->
  exact:(n:int -> int array -> float) ->
  ns:int list ->
  (int * float) list
(** [(n, error_l2)] per requested size, via the caller's solver. *)

val pairwise_orders : (int * float) list -> float list
(** Observed order between consecutive samples:
    [log(e_coarse/e_fine) / log(n_fine/n_coarse)].
    @raise Invalid_argument on non-increasing [n] or non-positive error. *)

val observed_order : (int * float) list -> float
(** Mean of {!pairwise_orders}; ≈ 2 for a correct second-order solver.
    @raise Invalid_argument with fewer than two samples. *)
