(** The probe's per-site stats sink.

    While the {!Telemetry.Stats} bit is on, every {!Telemetry.stop}
    feeds its duration into the calling domain's {!Hist} accumulator
    for the site; this module merges the per-domain accumulators (the
    parallel Welford combination) and renders them.  Switching the sink
    on is {!set_enabled}; the probe itself lives in {!Telemetry}.

    The [profile.samples] / [profile.sites] counters mirror the sink
    while the {!Telemetry.Spans} bit is on; the accumulators are
    authoritative.  Readers run at quiescence. *)

val set_enabled : bool -> unit
val enabled : unit -> bool

type stats = {
  count : int;
  mean : float;
  variance : float;  (** sample variance (n-1 denominator); 0 if count < 2 *)
  min : float;
  max : float;
  total : float;
}

val stats : Telemetry.site -> stats option
(** Stats merged across every domain that sampled the site; [None] if no
    sample was recorded. *)

val percentile : Telemetry.site -> float -> float
(** Log2-histogram percentile (q in [0,1]), clamped to the observed
    [min,max]; [nan] when the site has no samples. *)

val sites : unit -> (string * stats) list
(** Every site with at least one sample, sorted by name. *)

val histograms : unit -> (string * Hist.t) list
(** Every sampled site's merged accumulator, sorted by name (the
    [span_duration_ns] series of {!Metrics}). *)

val report : Format.formatter -> unit
(** Human-readable per-site table, sorted by total time. *)

val reset : unit -> unit
(** Drops all samples from every domain; site interning survives. *)
