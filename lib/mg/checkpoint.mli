(** Durable checkpoint/restart for solver state.

    Built on {!Repro_runtime.Snapshot} (atomic temp+fsync+rename writes,
    CRC-framed [polymg.snapshot/1] container), this module makes a
    long-running solve survivable: the accepted iterate, residual
    history and solve identity are persisted every [every] accepted
    cycles into a rotating set of {e generations} ([ckpt-NNNNNN.snap],
    numbered by cycle), and {!load_latest} restores the newest
    generation that still verifies — a torn, truncated or bit-flipped
    file is detected by the CRC framing and skipped in favour of the
    previous generation, never deserialized.

    Rotation never deletes the newest good generation: a new generation
    is written (atomically) {e first}, and only then are generations
    beyond [keep] retired, so the directory always holds at least one
    complete checkpoint once any save succeeded, whatever instant the
    process is killed.  The oldest retired generation is renamed to
    {!spare_path} rather than deleted, and the next save overwrites that
    file in place under its temp name ({!Repro_runtime.Snapshot.write}'s
    [?reuse]); no generation name ever points at a file being
    overwritten.

    Registered counters: [guard.checkpoint_writes],
    [guard.checkpoint_restores], [guard.checkpoint_rejected],
    [guard.checkpoint_pruned] (see the README counter tables). *)

type state = {
  cycle : int;  (** last accepted cycle (1-based) *)
  residual : float;  (** L2 residual of [v] *)
  dims : int;
  n : int;  (** problem-size parameter *)
  variant : string;  (** optimizer variant name *)
  plan_digest : string;  (** {!Repro_core.Plan.digest} of the active plan *)
  seed : int;  (** RNG/fill seed of the problem; [0] = manufactured *)
  history : Solver.cycle_stats list;  (** accepted cycles, oldest first *)
  v : Repro_grid.Grid.t;  (** the accepted iterate *)
}

type config = {
  dir : string;
  every : int;  (** save cadence in accepted cycles *)
  keep : int;  (** generations retained (the last [keep]) *)
}

val default_keep : int
(** 3. *)

val effective_every : every:int -> deadline:float option -> int
(** The cadence actually used.  Under a {!Repro_runtime.Watchdog}
    deadline a kill can arrive at any stage boundary, so the cadence is
    clamped to every accepted cycle — at most one cycle of work is ever
    lost to a deadline stop. *)

val gen_path : dir:string -> int -> string
(** [dir/ckpt-NNNNNN.snap] for generation (= cycle) [NNNNNN]. *)

val generations : dir:string -> int list
(** Generation numbers present (complete or not), ascending; [[]] when
    the directory is missing or empty. *)

val spare_path : dir:string -> string
(** [dir/ckpt-spare]: a retired generation's file, kept for the next
    save to recycle.  Not a generation: {!generations} and
    {!load_latest} ignore it, and it is not a temp dropping. *)

val save : config -> state -> string
(** Atomically writes generation [state.cycle], recycling the spare file
    when it is a regular file with one link, and returns the path
    written.  Then, from one directory listing taken before the write,
    it retires generations beyond [config.keep] (oldest first, never
    [state.cycle]) — the first one, if a regular file, renamed to the
    spare and the directory synced, the rest removed — and removes
    stale temp droppings from killed writers.  [guard.checkpoint_pruned]
    counts each generation that did leave the set. *)

val load : path:string -> (state, string) result
(** Reads one generation file back, verifying the container framing and
    the metadata/payload consistency: one extent per dimension, each at
    least 1, covering exactly the grid payload (checked before the grid
    is allocated), and every history entry parsed.  Any violation is an
    [Error], so {!load_latest} falls back to an older generation. *)

type resume = {
  gen : int;  (** generation restored *)
  state : state;
  rejected : (int * string) list;
      (** newer generations skipped as corrupt: (generation, reason),
          newest first.  Each is also a [Checkpoint_reject] flight-
          recorder event and counted in [guard.checkpoint_rejected]. *)
}

val load_latest : dir:string -> (resume, string) result
(** Restores the newest generation that verifies, falling back through
    older generations on corruption.  [Error] when the directory holds
    no usable generation at all ([mg_solve --resume] exit code 6). *)

(** {2 Periodic sink}

    The glue between a solve loop and the store: an [on_accept] hook to
    pass to {!Solver.iterate}/[Guard.run], a [flush] for signal
    handlers and end-of-solve, and a [restore] for Guard's
    disk-rollback path. *)

type sink = {
  on_accept :
    cycle:int -> residual:float -> v:Repro_grid.Grid.t ->
    stats:Solver.cycle_stats list -> unit;
      (** saves when [cycle] lands on the cadence; always remembers the
          state so a later [flush] can persist it *)
  flush : unit -> string option;
      (** force-saves the last accepted state if it is newer than the
          last durable generation (final checkpoint at solve end, and
          the SIGINT/SIGTERM flush); [None] when nothing newer exists *)
  restore : unit -> (int * float * Repro_grid.Grid.t) option;
      (** newest durable [(cycle, residual, iterate)], for Guard
          rollback when the in-memory checkpoint is unusable *)
}

val sink :
  config -> dims:int -> n:int -> variant:string -> plan_digest:string ->
  ?history_prefix:Solver.cycle_stats list -> unit -> sink
(** Every state the sink saves has [seed = 0] (the manufactured
    problem).  [history_prefix] (a restored run's earlier cycles) is
    prepended to the stats each save records, so a twice-resumed run
    still carries its full residual history. *)
