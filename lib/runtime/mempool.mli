(** Pooled memory allocation (paper §3.2.3).

    Full-array allocation requests from the execution engine go through a
    pool that outlives individual multigrid cycles: [acquire] returns an
    existing free buffer when one {!serves} the request (best fit),
    otherwise allocates a fresh one; [release] is a table update making
    the buffer available again.  Arrays are thus physically allocated on
    the first cycle and reused by all later cycles — and releasing as
    soon as the last consumer of an array finishes lets later stages of
    the {e same} cycle reuse it, catching inter-group reuse the static
    pass missed.

    {b Poison/canary mode} ([create ~poison:true]) hardens the pool for
    fault hunting: every handed-out buffer is an exact-length view filled
    with signaling NaNs (so reads of released or never-written memory
    surface as NaNs the solver guard detects), and canary guard words are
    written just past each window and re-checked on [release], turning
    out-of-bounds tile writes into an immediate [Invalid_argument]
    instead of silent corruption of a neighbouring array. *)

type t

type stats = {
  fresh_allocs : int;  (** requests served by a new allocation *)
  reuse_hits : int;  (** requests served from the free list *)
  live_bytes : int;  (** bytes currently acquired *)
  pool_bytes : int;  (** bytes owned by the pool (live + free) *)
  peak_live_bytes : int;
}

exception
  Budget_exceeded of {
    requested_bytes : int;  (** size of the refused fresh allocation *)
    budget_bytes : int;
    pool_bytes : int;  (** bytes the pool already owned *)
  }
(** Raised by {!acquire} when a fresh allocation would push the pool past
    its byte budget even after trimming every free buffer.  The pool is
    left in a consistent state (nothing was allocated), so the caller can
    recover — {!Repro_mg.Solver} responds by re-planning one rung down
    the degradation ladder instead of aborting the solve. *)

val create : ?poison:bool -> unit -> t
(** [poison] (default false) enables poison/canary mode.  The pool starts
    unbudgeted: {!set_budget} arms a byte ceiling. *)

val poisoned : t -> bool

val set_budget : t -> int option -> unit
(** Installs (or with [None] removes) a hard byte ceiling on
    [pool_bytes].  Once set, {!acquire} keeps the pool under the budget:
    reuse from the free list is always allowed, a fresh allocation first
    trims free buffers to make room, and an allocation that still cannot
    fit raises {!Budget_exceeded} — it never aborts the process, and the
    high-water mark provably stays at or under the budget.  Overruns and
    trims are counted in the [govern.budget_exceeded] / [govern.pool_trims]
    telemetry counters; the high-water mark and budget are exported as
    [govern_pool_high_water_bytes] / [govern_pool_budget_bytes] gauges.
    @raise Invalid_argument for a non-positive budget. *)

val budget : t -> int option

val snan : float
(** The signaling-NaN payload poison mode fills buffers with. *)

val serves : buffer:int -> need:int -> bool
(** Whether a free buffer of [buffer] elements may serve a request for
    [need]: at least as long and less than twice as long.  A buffer of
    another level's grid is thus never handed to a much smaller request,
    so what a request holds is bounded by the lengths allocated for
    requests close to its own ({!Repro_core.Govern}'s footprint model
    counts that bound). *)

val acquire : t -> int -> Repro_grid.Buf.t
(** [acquire t len] returns a buffer with at least [len] elements, from
    a free buffer that {!serves} the request or freshly allocated.
    Contents are unspecified (reused buffers are dirty); in poison mode
    the buffer has exactly [len] elements, every one a signaling NaN.
    @raise Budget_exceeded when a budget is set and cannot be met. *)

val release : t -> Repro_grid.Buf.t -> unit
(** Returns a buffer to the pool.
    @raise Invalid_argument if the buffer is not currently acquired
    (double releases name the buffer size and its acquire count), or if
    poison-mode guard words were clobbered by an out-of-bounds write. *)

val with_pool : ?poison:bool -> (t -> 'a) -> 'a
(** Scoped pool: created for [f] and cleared on exit, even on raise. *)

val with_buf : t -> int -> (Repro_grid.Buf.t -> 'a) -> 'a
(** Scoped acquire: the buffer is released when [f] returns or raises, so
    callers cannot forget {!release}. *)

val stats : t -> stats

val live_count : t -> int

val clear : t -> unit
(** Drops every buffer (free and acquired) and resets statistics.
    Buffers still acquired at clear time are recorded in the process-wide
    leak ledger (see {!assert_quiescent}) — clearing does not forgive a
    leak, it files it. *)

(** {2 Process-wide quiescence}

    Every acquire/release across every pool also updates one global
    outstanding-buffer count (exact regardless of the telemetry flag).
    Long-running hosts — the solver daemon, campaign teardowns — call
    {!assert_quiescent} between requests or at shutdown to turn a leaked
    buffer into a typed failure instead of slow memory growth. *)

exception
  Not_quiescent of {
    outstanding : int;  (** buffers acquired and never released *)
    leaked : int;  (** buffers dropped by {!clear} while still acquired *)
    detail : string list;  (** per-pool descriptions (bounded) *)
  }

val outstanding : unit -> int
(** Buffers currently acquired across all pools in this process. *)

val assert_quiescent : unit -> int
(** Returns 0 when no buffer is outstanding and nothing was leaked at
    clear time; otherwise raises {!Not_quiescent} with per-pool detail.
    The return value is the outstanding count, kept as an [int] so call
    sites can log it. *)
