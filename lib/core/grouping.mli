(** Automatic grouping of stages for fusion + overlapped tiling (§3.1).

    The greedy heuristic of PolyMage, applied to multigrid DAGs: starting
    from singleton groups, a group is repeatedly merged into its unique
    consumer group when (a) the merged size stays within the grouping
    limit, (b) the members' resolutions are power-of-two scalable against
    the merged reference (so one tile space covers all of them), and
    (c) the redundant computation that overlapped tiling would pay for the
    merged group is at most 0.6 of its useful points.  Stages with several
    consumer groups stay live-out (e.g. the last pre-smoothing step feeds
    both the residual and the later correction — exactly the group
    boundaries of Fig. 6).

    For the diamond-smoother variant, maximal chains of [Smooth] stages
    are carved out first as dedicated diamond groups and never merged. *)

type group = {
  members : int list;  (** ascending func ids = execution order *)
  liveouts : int list;  (** members read outside the group, and outputs *)
  diamond : bool;  (** executed by diamond time tiling, not overlapping *)
}

val run :
  Repro_ir.Pipeline.t -> opts:Options.t -> n:int -> group list
(** Groups in a valid execution (topological) order. *)

val tile_sizes_for : Options.t -> dims:int -> int array
(** The configured overlapped-tile sizes for a given rank. *)
