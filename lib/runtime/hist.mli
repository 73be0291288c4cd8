(** Log2 histogram with streaming moments: the one accumulator behind
    every duration and latency distribution (the probe's per-site stats
    in {!Telemetry}/{!Profile} and the {!Metrics} histograms).

    64 buckets, bucket [k] covering [[2^k, 2^(k+1))] (bucket 0 also
    absorbs [[0, 1)]), next to count/sum/min/max and Welford mean/M2.
    {!merge_into} is the parallel Welford combination (Chan et al.), so
    per-domain accumulators merge into exactly the moments one
    single-pass accumulator would hold.  Not synchronized: callers own
    one accumulator per domain, or lock. *)

type t

val create : unit -> t
val clear : t -> unit

val record : t -> float -> unit
(** Adds a sample; negative and NaN samples count as [0].  Never
    allocates. *)

val merge : t list -> t
(** A fresh accumulator holding every sample of the list. *)

val copy : t -> t
val count : t -> int
val sum : t -> float

val min : t -> float
(** [infinity] when empty; {!max} is [neg_infinity] when empty. *)

val max : t -> float
val mean : t -> float

val variance : t -> float
(** Sample variance (n-1 denominator); [0] when fewer than 2 samples. *)

val percentile : t -> float -> float
(** [percentile h q] for [q] in [[0, 1]]: linear interpolation inside the
    covering log2 bucket, clamped to the observed min/max; [nan] when
    empty. *)

val cumulative : t -> (float * int) list
(** Cumulative bucket counts as [(upper_bound, count <= bound)] pairs,
    trimmed to the populated range. *)
