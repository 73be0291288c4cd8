(** Multigrid-as-a-service: a fault-isolated concurrent solver front end.

    The one-shot CLI ([mg_solve]) runs a single solve; this module is
    the long-running counterpart: a server object accepting concurrent
    solve {e requests} (shape, size, cycle, tolerance, tenant identity,
    deadline).  Each admitted request is validated and run by
    {!Request} — the CLI's own path: governance ladder, {!Guard}
    rollback and fallback, runtime demotion under
    {!Repro_runtime.Mempool} budgets, checkpoint resume — under a
    {!Repro_runtime.Watchdog} deadline, and answered with a typed
    {!status} mirroring the CLI's exit codes.

    Robustness properties, in order of importance:

    - {b Isolation}: every request executes on a fresh
      {!Repro_core.Exec} runtime; a quarantined, faulted, or
      budget-infeasible solve produces an error response (plus
      {!Repro_runtime.Flightrec} incident reports) and the server keeps
      serving.  Pooled buffers are provably returned even on faulted
      solves ({!Repro_runtime.Mempool.assert_quiescent}).
    - {b Bounded admission}: requests wait in per-tenant queues under a
      per-tenant cap and a global cap.  A full tenant queue or an empty
      token bucket sheds the {e submitting} tenant's request
      ({!Shed}, wire code 7, with a [retry_after_s] hint); a full global
      queue evicts the {e newest} request of the {e heaviest} tenant —
      the misbehaving tenant degrades itself first.
    - {b Fairness}: one round-robin turn per tenant with queued work, so
      a flooding tenant cannot starve the others.
    - {b Graceful degradation}: per-tenant byte budgets feed
      [opts.mem_budget], so an oversized request walks the governance
      ladder (or is refused as {!Infeasible}) instead of exhausting
      memory.

    A shared plan cache keyed by the request's plan identity lets repeat
    shapes skip planning; hits and misses are visible in the
    [serve.plan_cache_hits]/[serve.plan_cache_misses] counters. *)

(** {2 Requests and responses} *)

type request = {
  rq_tenant : string;
  rq_dims : int;  (** 2 or 3 *)
  rq_n : int;  (** problem-size parameter [N] *)
  rq_shape : Cycle.cycle_shape;
  rq_smoothing : int * int * int;  (** pre/coarsest/post smoothing steps *)
  rq_variant : string;  (** optimizer preset ({!Repro_core.Options}) *)
  rq_cycles : int;
      (** cycle budget (clamped to the server maximum); a resumed solve
          continues toward it, like [mg_solve --resume] *)
  rq_tol : float option;  (** early-stop residual tolerance *)
  rq_deadline_s : float option;
      (** wall-clock budget from submission; overrunning it — in queue
          or in solve — answers {!Deadline} *)
  rq_mem_budget : int option;
      (** per-request byte budget, intersected with the tenant budget *)
  rq_resume_dir : string option;
      (** resume from the newest durable {!Checkpoint} generation; an
          unusable directory answers {!Unresumable} *)
  rq_fault : string option;
      (** chaos hook (["nan"] or ["crash"], honored only when the server
          config allows faults): makes every primary-stepper cycle
          fault, driving the request through Guard's rollback →
          retry → quarantine path *)
}

val default_request : request
(** Tenant ["anon"], 2-D [n = 64], V-4-4-4, variant ["opt+"], 10 cycles,
    everything else off. *)

type status = Request.status =
  | Ok | Invalid | Quarantined | Deadline | Faulted | Infeasible | Unresumable
  | Shed
(** {!Request.status}: the CLI's exit-code table is the wire's
    ([Deadline] also covers an overrun [rq_deadline_s], [Unresumable] an
    unusable [rq_resume_dir]). *)

val status_name : status -> string
val status_of_name : string -> status option

val code_of_status : status -> int
(** {!Request.code_of_status}; [Shed] (7) is the wire's own status. *)

type response = {
  rs_status : status;
  rs_code : int;  (** [code_of_status rs_status] *)
  rs_tenant : string;
  rs_cycles : int;  (** accepted cycles run *)
  rs_residual : float;  (** final residual (nan when no cycle ran) *)
  rs_queue_s : float;  (** admission-to-dequeue wait *)
  rs_solve_s : float;  (** dequeue-to-answer time *)
  rs_retry_after_s : float option;  (** set on {!Shed}: when to retry *)
  rs_plan_digest : string;  (** digest of the executed plan ("" if none) *)
  rs_plan_cached : bool;  (** the plan decision came from the cache *)
  rs_incidents : int;  (** incident reports filed by this request *)
  rs_detail : string;  (** human-readable amplification *)
}

(** {2 Wire codec}

    Length-framed JSON: each frame is a 4-byte big-endian payload length
    followed by that many bytes of JSON.  Oversized frames (beyond
    {!max_frame_bytes}) are refused without buffering the payload —
    framing is part of admission control. *)

val max_frame_bytes : int

val request_to_json : request -> Repro_runtime.Json.t
val request_of_json : Repro_runtime.Json.t -> (request, string) result
val response_to_json : response -> Repro_runtime.Json.t
val response_of_json : Repro_runtime.Json.t -> (response, string) result

val write_frame : out_channel -> Repro_runtime.Json.t -> unit
(** Writes one frame and flushes. *)

val read_frame : in_channel -> (Repro_runtime.Json.t, string) result option
(** [None] on clean EOF (no partial frame); [Some (Error _)] on a
    truncated, oversized, or unparseable frame. *)

(** {2 Server configuration} *)

type tenant_config = {
  tc_rate : float;
      (** token-bucket refill, requests/second ([infinity] = unmetered) *)
  tc_burst : float;  (** bucket capacity (>= 1) *)
  tc_queue_cap : int;  (** queued (not yet executing) requests allowed *)
  tc_mem_budget : int option;
      (** byte ceiling intersected with each request's own budget *)
}

val default_tenant : tenant_config
(** Unmetered, burst 64, queue cap 64, no budget. *)

type config = {
  sv_queue_cap : int;  (** global queued-request cap (>= 1) *)
  sv_workers : int;
      (** executor threads.  Default 1: request deadlines are enforced
          with the {!Repro_runtime.Watchdog}'s single armed slot, which
          only one in-flight solve may own.  With more workers (or 0 =
          caller-driven {!step}), deadlines degrade to wall-clock checks
          at cycle granularity. *)
  sv_domains : int;  (** execution domains per solve runtime (>= 1) *)
  sv_default_tenant : tenant_config;  (** for tenants not listed *)
  sv_tenants : (string * tenant_config) list;
  sv_max_cycles : int;  (** ceiling clamped onto [rq_cycles] (>= 1) *)
  sv_max_n : int;  (** largest accepted problem size *)
  sv_allow_faults : bool;  (** honor the [rq_fault] chaos hook *)
  sv_backend : Repro_core.Options.backend;
      (** execution backend applied to every admitted request's plan
          (a deployment property of the daemon, not a request field:
          tenants should not be able to trigger compiler runs) *)
  sv_clock : unit -> float;
      (** monotonic seconds; injectable so admission and fairness math
          are unit-testable with a frozen clock *)
}

(** Two settings are constants of every server: a shed that no token
    rate can time (a full queue, an eviction, an unmetered or stopped
    bucket) carries the hint [retry_after_s = 0.05]; and each request's
    {!Guard} makes [primary_retries = 1] primary-plan retry, with no
    backoff, before its fallback. *)

val default_config : config
(** Queue cap 256, 1 worker, 1 domain, max 64 cycles, max [n] 1024,
    faults off, interpreter backend, [Unix.gettimeofday]. *)

(** {2 Server} *)

type t

type ticket
(** A pending response: {!submit} returns immediately, {!await} blocks
    until a worker (or {!step}) answers.  Shed and invalid requests are
    answered at submission time. *)

val create : ?config:config -> unit -> t
(** Starts [sv_workers] executor threads (none when 0).
    @raise Invalid_argument for a queue cap, domain count or max cycles
    below 1, or a tenant burst (the default tenant's included) below 1. *)

val submit : t -> request -> ticket
val await : ticket -> response
val peek : ticket -> response option

val solve : t -> request -> response
(** [await (submit t rq)] — only sensible with [sv_workers >= 1]. *)

val step : t -> bool
(** Executes the next queued request (round-robin across tenants) on the
    calling thread; [false] when no request is queued.  The test
    harness's driver for [sv_workers = 0]. *)

val pending : t -> int
(** Requests queued (admitted, not yet executing). *)

val drain : t -> unit
(** Blocks until every admitted request has been answered (with
    [sv_workers = 0], executes them on the calling thread). *)

val shutdown : t -> unit
(** {!drain}, then stops and joins the workers.  The server object must
    not be used afterwards. *)

type tenant_stats = {
  ts_accepted : int;
  ts_shed : int;  (** rate- and queue-shed at submission *)
  ts_evicted : int;  (** shed by a global-queue eviction after admission *)
  ts_completed : int;  (** responses with an executed (non-shed) status *)
}

val tenant_stats : t -> string -> tenant_stats
(** Zeros for a tenant the server has not seen. *)

val plan_cache_stats : t -> int * int
(** [(hits, misses)] of the shared plan cache. *)
