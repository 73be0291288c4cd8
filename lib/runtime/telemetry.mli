(** The runtime probe: one range API for every timing, one clock read
    per probe, and one atomic sink mask choosing where the readings go.

    A probe brackets a region at an interned {!site}:
    {[
      let t0 = Telemetry.start () in
      work ();
      Telemetry.stop t0 site
    ]}
    {!start} reads the monotonic clock only while a timing sink is on
    and otherwise returns the token [0]; {!stop} on [0] returns at once.
    The disabled path is therefore one atomic load and a predictable
    branch per call, reads no clock and never allocates.  An enabled
    {!stop} reads the clock once and feeds the same duration to every
    timing sink that is on:

    - {!Spans} ({!set_enabled}): the span log, rendered by {!report}
      and {!chrome_trace}; the same bit gates counter updates;
    - {!Stats} ([Profile.set_enabled]): per-site {!Hist} accumulators,
      merged and rendered by [Profile] and exported by [Metrics];
    - {!Ring} ([Flightrec.set_enabled]): not a timing sink — the flight
      recorder's event ring, which reads the bit through [Flightrec.on].

    Each domain owns one [Domain.DLS] table holding its span buffer and
    its site accumulators, so recording never contends across domains.
    The readers ({!spans}, {!site_hists}, the sinks) and the resets must
    run while no domain is recording (between plan executions). *)

type arg =
  | Int of int
  | Float of float
  | Str of string  (** span argument payloads, shown in trace viewers *)

type span = {
  name : string;  (** the site's name *)
  cat : string;  (** category, e.g. ["exec"], ["stage"], ["parallel"] *)
  tid : int;  (** recording domain's id *)
  start_ns : int;  (** monotonic clock, nanoseconds *)
  dur_ns : int;
  args : (string * arg) list;
}

(** {2 Sink mask} *)

type sink = Spans | Stats | Ring

val sink_on : sink -> bool
(** One atomic load. *)

val set_sink : sink -> bool -> unit

val probing : unit -> bool
(** A timing sink ({!Spans} or {!Stats}) is on: guard argument
    construction for {!stop_at} with it. *)

val enabled : unit -> bool
(** [sink_on Spans]. *)

val set_enabled : bool -> unit
(** [set_sink Spans]. *)

val now_ns : unit -> int
(** Raw monotonic clock in nanoseconds (always live). *)

(** {2 Probes} *)

type site

val site : string -> site
(** Interns a site by name: the same name always yields the same site.
    Mutex-guarded; intern once, outside hot loops. *)

val site_name : site -> string

val all_sites : unit -> site list
(** Every interned site, sorted by name. *)

val start : unit -> int
(** The monotonic time when a timing sink is on, else [0]. *)

val stop : ?cat:string -> ?args:(string * arg) list -> int -> site -> unit
(** [stop t0 site] closes the range opened by [start]: one clock read,
    then {!stop_at}.  A no-op when [t0 = 0].  Call sites that must stay
    allocation-free when disabled guard argument construction with
    [t0 <> 0]. *)

val stop_at :
  ?cat:string -> ?args:(string * arg) list -> int -> int -> site -> unit
(** [stop_at t0 t1 site] records the range [[t0, t1]] read by the caller
    (who needs the times itself, e.g. a cycle's reported seconds) in
    every timing sink that is on, without reading the clock. *)

val record : site -> float -> unit
(** Adds a raw sample (ns) to the site's stats when {!Stats} is on. *)

val with_span :
  ?cat:string -> ?args:(string * arg) list -> site -> (unit -> 'a) -> 'a
(** Probes [f ()]; records the range even when [f] raises. *)

val spans : unit -> span list
(** All completed spans, sorted by start time. *)

val site_hists : site -> Hist.t list
(** The site's per-domain stats accumulators (the [Profile] sink merges
    them). *)

val reset_stats : unit -> unit
(** Drops every domain's site accumulators; interning survives. *)

(** {2 Counters} *)

type counter

val counter : string -> counter
(** Interns a counter by name: the same name always yields the same
    counter.  Create counters once (at module init) — creation takes a
    lock; updates are lock-free. *)

val add : counter -> int -> unit
(** Atomic increment; a no-op unless {!Spans} is on. *)

val max_to : counter -> int -> unit
(** Raises the counter to [n] if [n] is greater (atomic); a no-op unless
    {!Spans} is on. *)

val value : counter -> int

val counters : unit -> (string * int) list
(** Every registered counter with its current value, sorted by name. *)

val reset : unit -> unit
(** Drops every recorded span and zeroes every counter. *)

(** {2 Span sinks} *)

val report : Format.formatter -> unit
(** Profile table: spans aggregated by name (count, total, mean, share
    of wall-clock), per-domain busy time from ["parallel"]-category
    spans, and all counters. *)

val span_total_ns : string -> int
(** Sum of [dur_ns] over recorded spans with the given name. *)

val chrome_trace : unit -> string
(** Chrome trace-event JSON (["X"] complete events, microsecond
    timestamps relative to the first span). *)
