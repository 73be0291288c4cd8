(** Stage compilation: from IR definitions to executable kernels.

    This plays the role of the paper's ISL-based code generation: each
    stage is turned once (at plan time) into a kernel that can be run over
    any rectangular region of any tile, reading producers through
    {!source} bindings supplied per tile.

    Stage definitions in GMG are linear combinations of loads with
    constant coefficients, so the compiler normalizes them into a
    {e linear-stencil} form executed by tight affine loops — per point the
    work is exactly one multiply-add per stencil term, mirroring the inner
    loops of the generated C in Fig. 8.  Anything non-linear falls back to
    a general expression interpreter. *)

type source = {
  data : Repro_grid.Buf.data;
  strides : int array;
  org : int array;  (** grid coordinate stored at [data.{0}] *)
}
(** A binding of a stage's storage (full array or scratchpad) for reads or
    writes: the value at grid coordinate [x] lives at
    [Σ (x_k − org_k)·strides_k]. *)

val source_index : source -> int array -> int

type term = { coef : float; pos : int; accs : Repro_ir.Expr.access array }
(** One linear-stencil term: [coef · producers.(pos)(access(x))]. *)

type case_kernel =
  | Lin of { base : float; terms : term array }
  | Gen of (source array -> int array -> float)
      (** general fallback: evaluate at a point given producer bindings *)

type case_t = {
  parity : int array option;  (** [Some p]: restrict to [x_k ≡ p_k (mod 2)] *)
  kernel : case_kernel;
}

type t = {
  func : Repro_ir.Func.t;
  producers : int array;  (** producer func ids, binding order for [srcs] *)
  boundary : float;
  cases : case_t list;
  run :
    srcs:source array -> dst:source -> interior:Repro_poly.Box.t ->
    region:Repro_poly.Box.t -> unit;
      (** Fills [dst] over [region]: points inside [interior] by the
          definition, the rest with the boundary value.  Re-entrant. *)
}

val compile : Repro_ir.Func.t -> params:(string -> float) -> t
(** @raise Invalid_argument for input stages or unbound parameters. *)

val fill_rim :
  source -> region:Repro_poly.Box.t -> interior:Repro_poly.Box.t -> float ->
  unit
(** Writes the value to every point of [region] outside [interior] (used to
    prefill ghost layers of full arrays and modulo buffers). *)

val linearize :
  Repro_ir.Expr.t -> params:(string -> float) ->
  (float * (float * int * Repro_ir.Expr.access array) list) option
(** Normalization to [base + Σ coef·load]: returns terms keyed by
    (producer id, access); merges duplicate loads. Exposed for tests. *)

val eval_expr :
  Repro_ir.Expr.t -> params:(string -> float) ->
  lookup:(int -> int array -> float) -> int array -> float
(** Reference interpreter used by the fallback path and by tests:
    evaluates the expression at a point, resolving loads via [lookup]. *)
