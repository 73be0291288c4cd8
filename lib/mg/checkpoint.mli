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

    The directory is a ring of [keep + 1] generation files.  The first
    [keep + 1] saves each create one (temp file, [fsync], rename,
    directory [fsync]); after that, a save rewrites the oldest
    generation's file in place and renames it to its new name: one
    [fsync] and no directory sync
    ({!Repro_runtime.Snapshot.rewrite}).  The newest generation is never
    overwritten, and once [keep + 1] saves have run, [keep] complete
    generations exist at every instant, whatever instant the process is
    killed or the power cut.  A rewrite torn by a crash is rejected by
    the container's framing (its header names each payload's CRC), and
    a power cut that undoes the unsynced rename leaves the new
    generation, complete, under the old name: generations are ordered
    by the cycle their header holds, not by their names.

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
(** Generation numbers in the names present (complete or not),
    ascending; [[]] when the directory is missing or empty.  A name can
    be older than the generation its file holds (see above). *)

val save : config -> state -> string
(** Writes generation [state.cycle] and returns its path,
    [gen_path ~dir state.cycle].  From one listing of the directory it
    removes temp droppings of killed writers (and an older writer's
    [ckpt-spare]).  With fewer than [config.keep + 1] generation files
    in the directory, the save creates one (temp, [fsync], rename,
    directory [fsync]).  Otherwise it rewrites one in place: a file
    already under the new name, else one that {!load_latest} would
    reject, else the oldest generation by header, and never one holding
    the newest generation (found as {!load_latest} finds it, reading the
    headers and one grid).  A file that is not a regular file with one link, or
    whose header does not bind its payloads (an older writer's), is not
    rewritten: the save creates its file and that one is removed.
    Files beyond [keep + 1] are removed in the same order.
    [guard.checkpoint_pruned] counts each file that left the set,
    rewritten or removed. *)

val load : path:string -> (state, string) result
(** Reads one generation file back, verifying the container framing and
    the metadata/payload consistency: one extent per dimension, each at
    least 1, covering exactly the grid payload (checked before the grid
    is allocated), and every history entry parsed.  Any violation is an
    [Error], so {!load_latest} falls back to an older generation. *)

type resume = {
  gen : int;  (** generation restored: the cycle its header holds *)
  state : state;
  rejected : (int * string) list;
      (** generation files rejected as corrupt or torn: (the number in
          the name, reason), newest name first — every file whose
          header does not read, and every file whose header names a
          later cycle than [gen]'s but does not load.  Files older than
          [gen] are not loaded, so not checked.  Each is also a
          [Checkpoint_reject] flight-recorder event and counted in
          [guard.checkpoint_rejected]. *)
}

val load_latest : dir:string -> (resume, string) result
(** Restores the newest generation by header, whatever its name: reads
    every generation file's header (not its grid), then loads the files
    in full from the highest cycle down until one verifies, skipping a
    corrupt or torn one.  [Error] when the directory holds no usable
    generation at all ([mg_solve --resume] exit code 6). *)

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
    still carries its full residual history.  The sink lays every save
    out in one file buffer it keeps, so its saves of a same-sized grid
    allocate that buffer once, and it lists the directory at its first
    save only: it keeps the ring of generation files in memory (and
    lists again after a save that raised).  Its saves are {!save}'s. *)
