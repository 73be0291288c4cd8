(** The PolyMG language surface.

    OCaml-embedded equivalents of the paper's constructs (§2):
    [Grid] → {!grid}, [Function] → {!func}, [Stencil] → {!stencil},
    [TStencil] → {!tstencil}, [Restrict] → {!restrict_fn},
    [Interp] → {!interp_fn}.  A context accumulates stages; {!finish}
    produces the validated feed-forward {!Pipeline.t} for one cycle. *)

type ctx

val create : string -> ctx
(** [create name] starts building a pipeline. *)

val next_serial : ctx -> int
(** 1, 2, 3, … — a counter private to this build, for generated stage
    names: equal builds yield equal names, in any process and in any
    order. *)

val grid :
  ctx -> string -> dims:int -> sizes:Sizeexpr.t array -> Func.t
(** Declares an input grid (caller supplies interior and ghost data). *)

val stencil : Func.t -> Weights.t -> ?factor:Expr.t -> unit -> Expr.t
(** [stencil f w ()] is the weighted sum [Σ w(o)·f(x + o)]; with
    [?factor] the sum is multiplied by it — the paper's
    [Stencil(f, (x,y), [[...]], factor)]. *)

val func :
  ctx -> name:string -> sizes:Sizeexpr.t array -> ?boundary:float ->
  Expr.t -> Func.t
(** A pointwise [Function] stage. Boundary defaults to Dirichlet 0. *)

val parity_func :
  ctx -> name:string -> sizes:Sizeexpr.t array -> ?boundary:float ->
  Expr.t array -> Func.t
(** A stage defined piecewise on index parity (the [Case]-on-parity idiom,
    used e.g. for red-black colourings): one expression per parity
    combination, [2^dims] cases with bit [k] set iff coordinate [k] is
    odd. *)

val tstencil :
  ctx -> name:string -> steps:int -> init:Func.t -> ?boundary:float ->
  (v:Func.t -> Expr.t) -> Func.t
(** The [TStencil] construct: applies [defn] — which reads the previous
    iterate [v] — for [steps] iterations.  The compiler unrolls it into
    [steps] chained [Smooth] stages (one DAG node each, as counted in
    Table 3); returns the last.  [steps = 0] returns [init] unchanged. *)

val tstencil_from_zero :
  ctx -> name:string -> steps:int -> sizes:Sizeexpr.t array ->
  ?boundary:float -> first:Expr.t -> (v:Func.t -> Expr.t) -> Func.t
(** A [TStencil] whose initial iterate is the implicit all-zero grid
    (Algorithm 1 line 6): the first step is materialized from [first]
    (the smoother body with [v = 0] folded in) and the remaining
    [steps − 1] applications of the body are chained after it.  All
    [steps] stages carry the [Smooth] kind. Requires [steps ≥ 1]. *)

val restrict_fn :
  ctx -> name:string -> input:Func.t -> ?weights:Weights.t ->
  ?factor:float -> ?boundary:float -> unit -> Func.t
(** The [Restrict] construct: a stage of half the resolution of [input]
    (sampling factor 1/2).  Default weights: full weighting, the
    d-dimensional tensor product of [[1;2;1]/4]. *)

val interp_fn :
  ctx -> name:string -> input:Func.t -> ?boundary:float -> unit -> Func.t
(** The [Interp] construct: a stage of double the resolution of [input]
    (sampling factor 2), defined piecewise on index parity as d-linear
    interpolation — even coordinates inject, odd coordinates average the
    two flanking coarse points. *)

val finish : ctx -> outputs:Func.t list -> Pipeline.t
(** Validates and returns the pipeline. *)
