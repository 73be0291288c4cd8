(** C code emission from plans.

    PolyMG generates C+OpenMP; this engine executes plans directly, but
    the correspondence is kept inspectable {e and checkable}: [emit]
    prints, for any plan, the C the paper's backend would produce —
    pooled full-array allocations,
    [#pragma omp parallel for collapse(d)] tile loops, per-thread
    scratchpad declarations with their user lists, and the per-stage loop
    nests with min/max-clamped overlapped-tile bounds (the shape of
    Fig. 8; groups whose exact per-tile demand regions are not affine in
    the tile coordinates fall back to static bound tables).  The emitted
    code computes what the engine computes: ghost rims are filled (by
    one rim-only helper per rank), own slices are published to the full
    arrays, diamond chains run as their equivalent untiled time loop,
    and outputs are returned through [out].  Every innermost compute
    loop but a zero fill carries [#pragma omp simd], with indices affine
    in its loop variable (parity cases loop over half indices), so a
    compiler honouring the pragma vectorizes it without changing any
    result.

    Used for the generated-lines-of-code column of Table 3, by
    [polymg_dump], and by {!Native}, which compiles it into the kernels
    the native backend and the conformance harness run. *)

val emit : Format.formatter -> Plan.t -> unit

val to_string : Plan.t -> string

val line_count : Plan.t -> int
(** Lines of the emitted C — Table 3's "Lines of gen. code". *)

val pipeline_symbol : Plan.t -> string
(** Name of the emitted pipeline function ([pipeline_<name>]), as
    declared by {!emit} — the symbol {!Native} wraps and calls. *)

val runnable : Plan.t -> (unit, string) result
(** [Ok ()] when every compiled kernel is affine ([Lin]) and every
    diamond chain has an emittable init source, i.e. the emitted C is a
    complete program rather than a sketch with [eval_point()] holes. *)
