(** Cost-model calibration: {!Cost}'s predicted per-stage DRAM bytes and
    FLOPs joined with profiler-measured per-stage times
    ({!Repro_runtime.Profile}) across a sweep of shapes x plan variants.

    Per stage it reports the ratio of measured time to the roofline
    prediction [max(bytes/bandwidth, flops/gflops)] and flags drifts
    beyond a threshold factor; per shape it reports the Spearman rank
    correlation of predicted-vs-measured plan ordering — the validation
    number the ROADMAP's autotuning item calls for.  Surfaced as
    [polymg_dump --what calibrate] and the ["calibration"] block of
    [mg_solve --metrics]. *)

module Json := Repro_runtime.Json
module Roofline := Repro_runtime.Roofline
open Repro_core

type stage_cal = {
  sc_name : string;
  sc_gid : int;
  sc_predicted_ns : float;  (** per plan execution *)
  sc_measured_ns : float;  (** per plan execution *)
  sc_ratio : float;  (** measured / predicted; [nan] without data *)
  sc_attributed : bool;  (** diamond stage: flops-share attribution *)
  sc_drift : bool;  (** ratio outside [[1/4, 4]] *)
}

val calibration_block :
  roofline:Roofline.t ->
  cost:Cost.t ->
  measured_ns:(Cost.stage -> float * bool) ->
  unit ->
  Json.t
(** Single-plan calibration JSON (per-stage join, totals, stage-rank
    Spearman, drifting stage names) — the [mg_solve --metrics] block. *)

val profile_measured_ns : Cost.t -> Cost.stage -> float * bool
(** Measurement source reading the profiler's merged per-site stats
    (stage sites, diamond front sites attributed by flops share),
    normalized per plan execution by the [exec.run] site count. *)

type cell = {
  cell_n : int;
  cell_variant : string;
  cell_predicted_ns : float;  (** per cycle: sum of stage predictions *)
  cell_measured_ns : float;  (** per cycle: mean of [solver.cycle] *)
  cell_stages : stage_cal list;
}

type t = {
  bench : string;
  cycles : int;  (** profiled cycles per cell: 3 *)
  domains : int;
  drift_factor : float;  (** 4: the [sc_drift] threshold *)
  roofline : Roofline.t;
  cells : cell list;
  spearman_by_n : (int * float) list;
}

val run : ?shapes:int list -> ?domains:int -> Cycle.config -> n:int -> t
(** Run the calibration sweep: for every shape in [shapes] (default
    [[n]]) and every variant (naive/opt/opt+/dtile-opt+), plan, warm up
    one unprofiled cycle, then measure 3 profiled cycles and join
    against the plan's cost model.  Resets the profiler around each
    cell. *)

val pp : Format.formatter -> t -> unit
(** The calibration report: per-shape variant table with Spearman, then
    the drifting stages. *)

val to_json : t -> Json.t
(** The report as a [polymg.calibrate/1] document. *)
