(** Overlapped-tile geometry for a fused group of stages.

    A group is tiled over the interior domain of its {e reference} stage
    (the last member in topological order).  Every member has a per-dim
    scale level relative to the reference ([rel > 0] ⇒ finer, each unit is
    one multigrid level).  For a given output tile this module computes:

    - the member's {e own slice}: the part of its domain this tile is
      responsible for writing (slices of all tiles partition the domain
      exactly, via boundary maps that respect vertex-centred coarsening);
    - the member's {e demand region}: own slice (live-outs only) hulled
      with everything in-group consumers need, clamped to the member's
      domain-plus-ghost box.  This is precisely the hyper-trapezoidal
      overlapped tile of the paper (§3.1): demand grows symmetrically by
      the stencil radius per producer step. *)

type member = {
  func : Repro_ir.Func.t;
  sizes : int array;  (** concrete interior sizes at problem size [n] *)
  rel : int array;  (** per-dim scale level relative to the reference *)
  liveout : bool;
}

type t

val build :
  Repro_ir.Pipeline.t -> n:int -> members:int list -> liveouts:int list ->
  (t, string) result
(** Validates that the member set is closed enough to tile: every member's
    size chain matches the reference through [coarsen]/[refine], and all
    non-reference consumers of a member inside the group are members. *)

val members : t -> member array
(** In topological (= execution) order. *)

val reference : t -> member

val own_slice : t -> int -> tile:Box.t -> Box.t
(** [own_slice t id ~tile] is the slice of member [id]'s interior that
    [tile] (a box over the reference interior) is responsible for. *)

val demand : t -> tile:Box.t -> (int * Box.t) array
(** Demand region per member id, in execution order.  Members whose region
    is empty for this tile are included with an empty box. *)

val tiles : t -> tile_sizes:int array -> Box.t array
(** Partition of the reference interior into tiles of the given sizes
    (border tiles truncated), in row-major order. *)

val scratch_extents : t -> tile_sizes:int array -> (int * int array) list
(** Per member id: the maximum demand-region widths over all tiles — the
    compile-time-constant scratchpad sizes of §3.2. *)

val redundancy : t -> tile_sizes:int array -> float
(** (points computed across all tiles and members) / (points of all member
    domains) − 1: the fraction of redundant recomputation that overlapped
    tiling pays for this group at these tile sizes. *)
