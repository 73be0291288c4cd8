(** Multi-dimensional grids over {!Buf} storage.

    A grid is a dense row-major n-dimensional array of doubles.  Multigrid
    grids carry one ghost/boundary cell on each side of every dimension:
    a grid created with [interior n] for a 2-D problem of interior size
    [n × n] has extents [(n+2) × (n+2)], with the interior occupying index
    range [1..n] in each dimension. *)

type t = {
  extents : int array;  (** total points per dimension, ghosts included *)
  strides : int array;  (** row-major strides; last dimension has stride 1 *)
  buf : Buf.t;
}

val strides_of : int array -> int array
(** Row-major strides of a grid with the given total extents. *)

val ghosted_len : int array -> int
(** [ghosted_len sizes] is Π(sizes_k + 2): the points of a grid with
    these interior sizes and one ghost layer per side. *)

val create : int array -> t
(** [create extents] makes a zero-filled grid with the given total
    extents, taking a released grid of those extents when the free list
    holds one. *)

val interior : dims:int -> int -> t
(** [interior ~dims n] creates a grid of [dims] dimensions with interior
    size [n] per dimension plus one ghost layer on each side. *)

val dims : t -> int

val extents : t -> int array

val interior_size : t -> int
(** Interior points per dimension assuming one ghost layer each side. *)

val offset : t -> int array -> int
(** Row-major linear offset of a multi-index. *)

val get : t -> int array -> float

val set : t -> int array -> float -> unit

val get2 : t -> int -> int -> float
(** 2-D fast path; grid must be 2-D. Unchecked beyond buffer bounds. *)

val set2 : t -> int -> int -> float -> unit

val get3 : t -> int -> int -> int -> float

val set3 : t -> int -> int -> int -> float -> unit

val fill : t -> float -> unit

val copy : t -> t
(** A grid equal to the argument: a released grid of its extents, every
    element overwritten, when the free list holds one, else a fresh one. *)

val blit : src:t -> dst:t -> unit
(** Copies the whole grid; extents must match. *)

val fill_interior : t -> f:(int array -> float) -> unit
(** Evaluates [f] at every interior multi-index (1-based, ghosts excluded)
    and stores the result there.  Ghost cells are left untouched. *)

val fill_all : t -> f:(int array -> float) -> unit
(** Like {!fill_interior} but covers ghost cells too (0-based indices). *)

val iter_interior : t -> f:(int array -> float -> unit) -> unit

val max_abs_diff : t -> t -> float
(** Largest pointwise difference over the whole grid, NaN-aware (see
    {!Buf.max_abs_diff}). *)

val points : t -> int
(** Total number of points, ghosts included. *)

(** {2 The free list}

    One process-wide, mutex-protected list of dead grids that {!create}
    and {!copy} take from before they allocate.  A grid enters it only
    through {!release}, called by the grid's owner once nothing reads or
    writes it any more (DESIGN.md, "Grid lifetime"). *)

val release : t -> unit
(** [release g] hands [g] to the free list: the caller and every holder
    of [g] must be done with it.  A grid already held is not added twice.
    To stay within {!free_bound} the list drops its oldest grids of [g]'s
    extents, then its oldest grids; a grid over the byte bound is never
    kept. *)

type free_stats = {
  held : int;  (** grids on the list *)
  held_bytes : int;  (** their payload bytes *)
  max_shape : int;  (** most grids of one extents *)
}

val free_bound : free_stats
(** The list's limits: every field of {!free_stats} stays at or below it. *)

val free_stats : unit -> free_stats

val set_take_hook : (reused:bool -> unit) -> unit
(** Called by every {!create} and {!copy} with whether it took a released
    grid; the runtime counts the calls as [grid.reused] and [grid.fresh]. *)
