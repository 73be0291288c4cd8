(** C code emission from plans.

    PolyMG generates C+OpenMP; this engine executes plans directly, but
    the correspondence is kept inspectable {e and checkable}: [emit]
    prints, for any plan, the C the paper's backend would produce —
    full arrays with their users, one flat loop over each overlapped
    group's tiles with its scratchpad declarations and their user
    lists, and the per-stage loop nests.  Their bounds are the plan's
    exact per-tile boxes ({!Plan.tile_boxes}, the ones [Exec.run]
    executes), not Fig. 8's min/max expressions: a bound equal in every
    tile is a literal, any other is read from a static per-tile table.
    The kernel is serial: it carries no parallel loop.  The emitted
    code computes what the engine computes: ghost rims are filled (by
    one rim-only helper per rank), own slices are published to the full
    arrays, and a diamond chain runs over the whole grid in one of two
    loop orders ({!wavefront} picks it): a row wavefront, one loop over
    positions [_p] at which step s computes row [_p - (s-1)], or a step
    loop, its first step and then one loop over the steps that print
    alike, swapping the two ping-pong buffer pointers after each step.
    Either computes every (step, row) from the same rows in the same
    term order, so both are bit-identical to the tiled schedule.  An
    overlapped group that {!wavefront} picks runs as a row pipeline
    instead of over its tiles: one loop over positions [_p] at which
    each stored stage computes one row, at the least lag that puts the
    rows it reads behind it (a restriction's coarse row I at the
    position of fine row 2I+1); a scratch stage is a ring of as many
    rows as its readers span, or, when one plain reader reads it at
    offset 0, a local double inside that reader's loop.  The tiles'
    scratchpads are whole-tile arrays that outgrow L1 on the same
    grids, so this gives the inter-grid groups the row locality the
    wavefront gives the chains; every point is still computed once,
    from the values the tiles read, so it too is bit-identical.  The
    pipeline allocates nothing: it writes its outputs into
    the caller's buffers, as [Exec.run] does, and places every other
    array and every diamond modulo buffer at an emit-time offset of a
    caller-provided arena ({!layout}), where buffers live in disjoint
    groups share bytes.  Every innermost compute
    loop but a zero fill or a loop with one point in every tile carries
    [#pragma omp simd], with indices affine
    in its loop variable (parity cases loop over half indices), so a
    compiler honouring the pragma vectorizes it without changing any
    result.  A loop nest of rank >= 2 reads and writes through row
    pointers declared before its innermost loop, one per store and
    outer access multiplier, with each access at a constant offset from
    its row: the same elements, one address stream per row pointer.

    Used for the generated-lines-of-code column of Table 3, by
    [polymg_dump], and by {!Native}, which compiles it into the kernels
    the native backend and the conformance harness run. *)

val emit : Format.formatter -> Plan.t -> unit

val to_string : Plan.t -> string

val line_count : Plan.t -> int
(** Lines of the emitted C — Table 3's "Lines of gen. code". *)

val pipeline_symbol : Plan.t -> string
(** Name of the emitted pipeline function ([pipeline_<name>]), as
    declared by {!emit} — the symbol {!Native} wraps and calls.  Its
    parameters are [N], the input buffers, the output buffers (in
    [Plan.output_arrays] order) and the arena. *)

val wavefront : Plan.group_exec -> bool
(** Whether {!emit} prints the group row by row: a chain as a row
    wavefront rather than a step loop, an overlapped group as a row
    pipeline rather than a loop over its tiles.  Both need a 2-D group
    whose (reference) buffer outgrows the L1 of {!Cost.cache_levels}
    (65x65 doubles with ghosts, and larger); an overlapped group's
    tiles must also span whole rows.  A grid that fits L1 gains nothing
    from the skew, and a 3-D plane wavefront measured slower than the
    step loop. *)

type layout = {
  array_off : int option array;
      (** per [Plan.arrays] index, in doubles; [None] for an output *)
  dtmp_off : int option array;
      (** per group index, a diamond group's modulo buffer, in doubles;
          [None] for an overlapped group *)
  len : int;  (** doubles *)
}

val layout : Plan.t -> layout
(** Where the emitted pipeline keeps its intermediates in the arena it
    takes last.  Every non-output full array is live over its closed
    group window [first_group..last_group] ({!Plan.array_info}), every
    diamond group's modulo buffer over its own group only.  Buffers are
    placed first-fit, largest first (ties by array index, then by
    group), at offsets rounded to 64 bytes, so two buffers share bytes
    only when their windows are disjoint.  The arena's length is the
    largest end.  {!Plan_check.check_layout} proves a layout safe
    without reading these windows. *)

val arena_bytes : Plan.t -> int
(** Bytes of {!layout}'s arena.  {!Native} allocates it; {!Govern}
    budgets it. *)

val runnable : Plan.t -> (unit, string) result
(** [Ok ()] when every compiled kernel is affine ([Lin]) and every
    diamond chain has an emittable init source, i.e. the emitted C is a
    complete program; a non-affine ([Gen]) stage prints as an [#error]
    line naming it. *)

val entry_symbol : string
(** [polymg_entry]: the function {!entry_source} adds, which {!Native}
    resolves in a loaded kernel. *)

val entry_source : Plan.t -> (string, string) result
(** The C file of a native kernel: {!emit}'s text and an
    [int polymg_entry(double **bufs)] that calls {!pipeline_symbol}
    with [N] and the buffers of [bufs]: the inputs, the outputs, then
    the arena.  [Error] as {!runnable}.  This file is all the C a kernel
    holds, so the build's digest of [c_emit.ml] alone
    ({!Native.emitter_digest}) is the emitter's part of a kernel's
    key. *)
