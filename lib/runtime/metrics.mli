(** Metrics registry: log-scale histograms, labelled gauges and counters,
    with percentile summaries and machine-readable sinks.

    Every series is interned by [(name, labels)]; histograms are {!Hist}
    accumulators (64 log2 buckets, bucket [k] covering
    [[2^k, 2^(k+1))]).  Two sinks render the whole registry — {!to_json}
    (one self-describing document) and {!to_openmetrics}
    (Prometheus/OpenMetrics text exposition) — together with the
    {!Telemetry} runtime counters and the probe's per-site stats
    ({!Profile.histograms}) as [span_duration_ns{name=SITE}] histograms.

    {!observe} and {!incr_by} are gated on the {!Telemetry.Spans} bit: a
    single branch-predictable flag test (and zero allocations) while it
    is off, so instrumented hot paths time identically to the seed.
    Gauges are always live.

    Recording is multi-domain safe; the sinks take a consistent copy of
    each series. *)

type histogram

val histogram : ?labels:(string * string) list -> string -> histogram
(** Interns a histogram series: same [(name, labels)] yields the same
    series.  [name] should be a valid metric name
    ([[a-zA-Z_][a-zA-Z0-9_]*]); labels carry arbitrary strings. *)

val observe : histogram -> float -> unit
(** Records a non-negative sample; a no-op when telemetry is disabled. *)

val hist_count : histogram -> int
val hist_sum : histogram -> float

val percentile : histogram -> float -> float
(** [percentile h q] for [q] in [[0, 1]]: linear interpolation inside the
    covering log2 bucket, clamped to the observed min/max.  [nan] when
    the series is empty (JSON sinks render empty-series percentiles as
    [null]). *)

val buckets : histogram -> (float * int) list
(** Cumulative bucket counts as [(upper_bound, count <= bound)] pairs,
    trimmed to the populated range; monotonically non-decreasing. *)

type gauge

val gauge : ?labels:(string * string) list -> string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

type lcounter
(** A labelled monotonic counter ({!Telemetry.counter} carries a bare
    name; these carry a label set, e.g. per-stage or per-variant). *)

val lcounter : ?labels:(string * string) list -> string -> lcounter

val incr_by : lcounter -> int -> unit
(** Atomic add; a no-op when telemetry is disabled. *)

val lcounter_value : lcounter -> int

val reset : unit -> unit
(** Zeroes every registered series in place (histograms emptied, gauges
    and labelled counters set to 0), as {!Telemetry.reset} does for
    counters: handles interned before the reset — e.g. at module init —
    stay attached and keep appearing in the sinks. *)

(** {2 Sinks} *)

val to_json : unit -> Json.t
(** [{ "histograms": [...], "gauges": [...], "labelled_counters": [...],
    "counters": {...} }] with per-histogram count/sum/min/max/p50/p90/p99
    and cumulative buckets.  Includes the {!Telemetry} counters under
    ["counters"]. *)

val to_openmetrics : unit -> string
(** OpenMetrics text exposition: histogram families with cumulative
    [_bucket{le=...}]/[_sum]/[_count] lines, gauges, labelled counters,
    and the {!Telemetry} runtime counters as
    [polymg_runtime_counter_total{name="..."}].  Label values are
    escaped; ends with [# EOF]. *)
