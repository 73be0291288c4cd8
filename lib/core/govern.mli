(** Resource governance: the memory-budgeted planning ladder.

    The paper's variants form a storage-aggressiveness hierarchy —
    polymg-dtile-opt+ adds diamond modulo buffers on top of polymg-opt+,
    which pools and remaps full arrays over polymg-opt's fused scratch
    plans, which in turn shrink polymg-naive's one-full-array-per-stage
    storage.  Governance turns that hierarchy into a {e degradation
    ladder}: given a byte budget for the runtime working footprint,
    {!decide} builds the plan for each rung (requested variant first,
    then successive {!demote} steps down to naive), models each rung's
    peak footprint ([peak_bytes]), and picks the {e most aggressive
    rung that fits}.  Every skipped rung is recorded as a {!demotion}
    carrying the modelled cost delta (extra DRAM traffic and FLOPs paid
    for the smaller footprint), so a degraded solve is never silent.

    A counter-intuitive consequence, worth stating once: the naive
    variant has the {e largest} modelled footprint (every stage keeps a
    dedicated full array, nothing is pooled), and opt+ typically the
    smallest.  The ladder is ordered by {e performance}
    aggressiveness, not footprint, so the feasibility floor — the
    smallest footprint over all rungs — is usually realized by opt+,
    not naive.  A budget below that floor is infeasible ({!decide}
    returns [Error]); callers map it to a dedicated exit code rather
    than aborting mid-solve.

    All plans are built through {!Plan_check.build}, so a rung only
    enters the ladder after passing the storage-safety validator when
    [check_plan] is set. *)

type rung = {
  rname : string;  (** preset name of this rung's options ({!Options.name}) *)
  ropts : Options.t;
      (** the rung's options: the requested options with progressively
          fewer storage optimizations; non-preset knobs (tiles,
          thresholds, [check_plan], [mem_budget], [deadline]) are
          inherited unchanged down the ladder *)
  plan : Plan.t;
  pool_peak_bytes : int;
      (** modelled peak of pooled/heap full-array + diamond-buffer bytes
          (the part {!Repro_runtime.Mempool} budget enforcement sees).
          With [pool], the interpreter's peak over groups of the buffers
          live in the group, each request counted at the longest of the
          plan's request lengths that {!Repro_runtime.Mempool.serves}
          it: under a budget of at least this the pool never overruns
          (outside poison mode, whose guard words it does not count).
          For a [Native] rung its kernel's arena ({!C_emit.arena_bytes}),
          which is all it allocates; for an [Auto] rung the larger of
          the two *)
  scratch_bytes : int;  (** [domains ×] per-thread scratchpad footprint *)
  peak_bytes : int;  (** [pool_peak_bytes + scratch_bytes] *)
  dram_traffic : int;  (** modelled DRAM bytes per execution ({!Cost}) *)
  flops : float;  (** modelled FLOPs per execution, incl. redundancy *)
  fits : bool;  (** [peak_bytes <= budget] (always true with no budget) *)
}

type demotion = {
  from_rung : string;
  to_rung : string;
  over_bytes : int;  (** how far [from_rung] overshot the budget *)
  traffic_delta : int;
      (** extra modelled DRAM bytes per execution paid by [to_rung] *)
  flops_delta : float;  (** extra modelled FLOPs per execution *)
}

type report = {
  budget : int option;
  domains : int;  (** domain count the scratch term was modelled with *)
  requested : string;  (** name of the variant originally asked for *)
  ladder : rung array;  (** requested variant first, naive last *)
  chosen : int;  (** index into [ladder] of the selected rung *)
  demotions : demotion list;  (** one per rung skipped; [] when none *)
}

type infeasible = {
  inf_budget : int;
  floor_bytes : int;  (** smallest modelled footprint over the ladder *)
  floor_rung : string;  (** rung realizing the floor (usually opt+) *)
  inf_ladder : rung array;  (** the full ladder, for reporting *)
}

val demote : Options.t -> Options.t option
(** One {e feature} rung down: time-tiled smoothing falls back to
    overlapped tiles (dtile-opt+ → opt+), then
    pooling/array-reuse/scratch-reuse switch off together (opt+ → opt),
    then fusion (opt → naive).  [None] at the bottom. *)

val decide :
  ?domains:int ->
  Repro_ir.Pipeline.t ->
  opts:Options.t ->
  n:int ->
  params:(string -> float) ->
  (report, infeasible) result
(** Builds and costs the ladder, then selects the first (most
    aggressive) rung whose modelled footprint fits [opts.mem_budget].
    With no budget the requested rung is chosen and the ladder still
    reports every rung's footprint.  Demotions increment the
    [govern.demotions] telemetry counter; an infeasible budget
    increments [govern.infeasible]. *)

val chosen : report -> rung

val fallback_fits : report -> bool
(** Whether the guard's naive fallback fits the budget.  It runs on the
    interpreter whatever the requested backend, so this is the
    interpreter's model of the ladder's last (naive) rung, even when the
    ladder itself counts native arenas.  [true] with no budget. *)

val exhausted : report -> runtime_demotions:int -> infeasible
(** The refusal after run time: every fitting rung from the chosen one
    down overran the pool ({!Repro_runtime.Mempool.Budget_exceeded}).
    Files the same [budget-infeasible] incident as a plan-time refusal,
    with the number of runtime demotions in its detail. *)

val bytes_of_string : string -> int option
(** Parses a human byte size: a plain integer, or with a [K]/[M]/[G]
    suffix (binary multiples, case-insensitive).  [None] on junk or a
    non-positive size. *)

val pp_report : Format.formatter -> report -> unit
(** The [polymg_dump --what budget] table: one line per rung with
    footprint breakdown and modelled cost, the chosen rung marked, and
    every demotion with its cost delta. *)

val pp_infeasible : Format.formatter -> infeasible -> unit

val report_json : report -> Repro_runtime.Json.t
(** Machine-readable form of the report for the pressure campaign. *)
