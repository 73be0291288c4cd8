(** Flat float64 buffers backed by [Bigarray.Array1].

    All grid data in the library lives in these buffers.  A buffer is a bare
    1-D array of doubles; multi-dimensional indexing is layered on top by
    {!Grid} (for user-facing grids) and by the execution engine (for
    scratchpads and full arrays), which both compute row-major offsets
    explicitly.  Keeping the storage 1-D mirrors the generated C code of the
    paper, where every array — scratchpad or malloc'd — is indexed through
    explicit strides. *)

type data =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = private { data : data; len : int }

val create : int -> t
(** [create len] allocates a buffer of [len] doubles initialized to 0. *)

val create_uninit : int -> t
(** [create_uninit len] allocates without clearing; contents are arbitrary. *)

val len : t -> int

val get : t -> int -> float
(** Bounds-checked element read. *)

val set : t -> int -> float -> unit
(** Bounds-checked element write. *)

val unsafe_get : t -> int -> float
val unsafe_set : t -> int -> float -> unit

val fill : t -> float -> unit

val blit : src:t -> dst:t -> unit
(** [blit ~src ~dst] copies [src] into [dst]; lengths must match. *)

val copy : t -> t

val sub_view : t -> pos:int -> len:int -> t
(** [sub_view t ~pos ~len] is a buffer sharing [t]'s storage over the
    given element range: writes through the view are visible in [t].
    Used by the pooled allocator to hand out exact-length windows over
    guarded allocations. *)

val fill_range : t -> pos:int -> len:int -> float -> unit

val find_nonfinite : t -> int option
(** Index of the first NaN or infinity, scanning the whole buffer. *)

val sub_blit : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit

val of_array : float array -> t

val to_array : t -> float array

val iteri : (int -> float -> unit) -> t -> unit

val map_inplace : (float -> float) -> t -> unit

val equal : ?eps:float -> t -> t -> bool
(** Element-wise comparison with absolute tolerance [eps] (default 0);
    false when any element differs by NaN. *)

val max_abs_diff : t -> t -> float
(** Largest absolute element-wise difference; lengths must match.  [nan]
    when any difference is NaN (a NaN or an infinity on either side). *)

val bytes : t -> int
(** Size of the buffer payload in bytes. *)
