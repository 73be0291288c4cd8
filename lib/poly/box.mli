(** Concrete integer boxes (products of inclusive intervals).

    Boxes are the iteration-domain currency of the execution engine: tile
    footprints, demand regions and scratchpad extents are all boxes.  An
    empty box is represented canonically by {!empty}. *)

type t = { lo : int array; hi : int array }

val v : lo:int array -> hi:int array -> t
(** Normalizes to {!empty} if any dimension is reversed. *)

val empty : int -> t
(** The canonical empty box of the given rank. *)

val is_empty : t -> bool

val rank : t -> int

val full : int array -> int array -> t
(** [full lo hi] without copying — caller must not mutate arguments. *)

val of_sizes : int array -> t
(** Interior box [1..n_k] of a grid with per-dim interior sizes. *)

val with_ghost : int array -> t
(** [0..n_k+1]: interior plus one ghost layer. *)

val inter : t -> t -> t

val hull : t -> t -> t
(** Smallest box containing both (the union's bounding box). *)

val contains : t -> t -> bool
(** [contains outer inner]: every point of [inner] is in [outer]. *)

val mem : t -> int array -> bool

val widths : t -> int array
(** Points per dimension ([hi - lo + 1]); all zeros when empty. *)

val points : t -> int

val translate : t -> int array -> t

val fdiv : int -> int -> int
(** Floor division (toward negative infinity) by a positive divisor. *)

val map_access : Repro_ir.Expr.access array -> t -> t
(** Image of a box under a scaled-affine access: per dimension [k], the
    producer interval is [[f(lo_k), f(hi_k)]] with
    [f(x) = (mul·x + add)/den + off] (floor), which is exact since [f] is
    monotone in [x]. *)

val map_accesses : Repro_ir.Expr.access array list -> t -> t
(** Hull of {!map_access} over several accesses; empty list gives empty. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
