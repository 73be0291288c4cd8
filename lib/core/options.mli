(** Optimizer configuration: which of the paper's code versions to build.

    The presets correspond to the compared variants of §4.1:
    {!naive} (polymg-naive), {!opt} (polymg-opt), {!opt_plus}
    (polymg-opt+), {!dtile_opt_plus} (polymg-dtile-opt+).  Individual
    feature flags can be toggled from a preset — this is how the storage
    breakdown of Fig. 11b is produced. *)

type smoother_path =
  | Overlapped_smoother  (** smoothing steps fused into overlapped tiles *)
  | Diamond_smoother of { sigma : int }
      (** pre/post smoothing chains executed with diamond time tiling *)
  | Skewed_smoother of { tau : int; sigma : int }
      (** smoothing chains executed with time-skewed (wavefront) tiling —
          the §5 comparison scheme with pipelined startup *)

type backend =
  | Interp  (** the plan interpreter ({!Exec.run}) — always available *)
  | Native
      (** emitted C compiled to a shared object and called directly
          ({!Native}); requires a system C compiler and an emittable
          (all-affine) plan, and fails the solve when either is missing *)
  | Auto
      (** try {!Native}, fall back to {!Interp} when no compiler exists
          or compilation fails — the fallback is observable (the
          [native.fallbacks] counter plus a flight-recorder incident),
          never silent *)

type t = {
  fuse : bool;  (** auto-grouping on; off = one group per stage *)
  tile_2d : int array;  (** overlapped tile sizes for rank-2 groups *)
  tile_3d : int array;
  group_size_limit : int;  (** max stages per fused group *)
  scratch_reuse : bool;  (** §3.2.1 intra-group scratchpad reuse *)
  array_reuse : bool;  (** §3.2.2 inter-group full-array reuse *)
  pool : bool;  (** §3.2.3 pooled allocation across cycles *)
  smoother : smoother_path;
  check_plan : bool;
      (** run the {!Plan_check} storage-safety/halo validation pass over
          every plan built through {!Plan_check.build} (the solver path).
          Off in the presets; tests and guarded runs turn it on. *)
  mem_budget : int option;
      (** resource governance: byte budget for the runtime working
          footprint (pooled full arrays, diamond modulo buffers, and
          per-domain scratchpads).  [None] (the presets) plans
          unconstrained; [Some b] makes {!Govern.decide} walk the
          variant ladder down to the most aggressive rung whose modelled
          footprint fits, and arms {!Repro_runtime.Mempool} budget
          enforcement at execution time. *)
  deadline : float option;
      (** resource governance: soft per-group (per fused stage) deadline
          in seconds.  [None] runs unbounded; [Some s] arms the
          {!Repro_runtime.Watchdog} around every group execution, with
          cooperative cancellation checked at tile boundaries — a hung
          or pathologically slow stage raises
          {!Repro_runtime.Watchdog.Deadline_exceeded} instead of
          blocking the solve forever. *)
  backend : backend;
      (** execution backend selector.  [Interp] in every preset; the
          CLIs and bench harness override it.  Excluded from {!pp} (and
          therefore from plan digests): it changes how a plan runs, not
          what it computes. *)
}

val naive : t
val opt : t
val opt_plus : t
val dtile_opt_plus : t

val variant_of_string : string -> t option
(** Recognizes ["naive"], ["opt"], ["opt+"], ["dtile-opt+"]. *)

val name : t -> string
(** Best-effort name of the matching preset, or ["custom"]. *)

val fingerprint : t -> string
(** Every field in a fixed binary layout: equal options, equal strings,
    in any process and under any compiler version. *)

val with_tiles : t -> t2:int array -> t3:int array -> t

val backend_of_string : string -> backend option
(** Recognizes ["interp"], ["native"], ["auto"]. *)

val pp : Format.formatter -> t -> unit
