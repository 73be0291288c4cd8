(** Static storage-safety validation of compiled plans.

    The optimizations a plan encodes — intra-group scratchpad colouring
    and inter-group full-array reuse (paper §3.2, Algorithms 2 and 3) —
    rest entirely on liveness arguments.  A bug there does not crash: it
    silently aliases two live values and corrupts the solution.  This
    pass re-derives the safety conditions {e independently} of
    {!Storage.remap} and checks the finished plan against them:

    - {b full arrays}: simulating the group sequence, every [P_array]
      read must find its producer's value still in the slot (no
      simultaneously-live stage outputs share a pooled array, no read
      straddles an acquire/release boundary, every slot is large enough
      for every stage mapped to it);
    - {b scratchpads}: within a tiled group, a slot may be re-coloured to
      a later member only strictly after the previous occupant's last
      in-group reader, and each slot holds the largest demand region any
      of its occupants writes in any tile;
    - {b halos}: per tile, the image of every stencil read stays inside
      the producer's computed scratch region (in-group) or allocated
      domain-plus-ghost box (live-ins), for overlapped and diamond
      groups both;
    - {b native arena}: the {!C_emit.layout} a native kernel runs with,
      simulated over the group sequence at byte granularity — a write
      clobbers every other array whose bytes it overlaps, every read
      must find its producer's bytes intact, and no write of a group
      may overlap bytes another buffer of that group reads or writes
      (so a diamond modulo buffer stays off its chain's arrays).

    The pass is diagnostic-only: it never mutates the plan, and runs in
    time polynomial in (groups × tiles × members × accesses) — cheap at
    the problem sizes where it is on. *)

val check : Plan.t -> (unit, string list) result
(** [Ok ()] when the plan is storage-safe, otherwise every violation
    found, in deterministic order. *)

val check_layout : Plan.t -> C_emit.layout -> (unit, string list) result
(** The native-arena part of {!check} alone, for a given layout (which
    {!check} takes from {!C_emit.layout}).  It re-derives liveness from
    the plan's reads and writes and never reads the layout's windows, so
    it also judges a layout placed with wrong ones. *)

val check_exn : Plan.t -> unit
(** @raise Invalid_argument listing every violation. *)

val build :
  Repro_ir.Pipeline.t -> opts:Options.t -> n:int ->
  params:(string -> float) -> Plan.t
(** {!Plan.build} followed by {!check_exn} when [opts.check_plan] is set.
    This is the build entry the solver and CLI drivers use, so turning
    the option on guards every plan that reaches execution. *)
