(** Analytical cost model: what a compiled plan {e should} cost, derived
    from the plan alone — no execution.

    The paper's optimizations are memory-traffic arguments: grouping and
    scratchpad reuse win because intermediate stages stop touching DRAM,
    overlapped tiling pays a bounded redundant-compute tax to get there,
    and storage remapping shrinks the footprint.  This module turns a
    {!Plan.t} into those numbers so they can be printed next to measured
    telemetry ([polymg_dump --what cost] / [explain], [mg_solve
    --metrics]) and fed to a roofline comparison.

    Modelling conventions (all per single plan execution, 8-byte reals):

    - {b Compulsory DRAM reads}: for every binding of a stage to a
      pipeline input or a full array, the footprint of its accesses over
      the stage's {e interior} domain — the unique bytes any schedule
      must fetch.  Halo re-reads across overlapped tiles are assumed
      cache-served and show up only in the redundant-points term.
    - {b DRAM writes}: interior points of every full-array live-out
      (own slices partition the domain exactly; ghost-rim prefills are
      excluded as lower-order).
    - {b Scratch traffic}: reads/writes through scratchpads and diamond
      modulo buffers, kept separate — with scratchpad reuse working
      these bytes never reach DRAM.
    - {b FLOPs}: walk-form structure — one multiply-add (2 FLOPs) per
      linear-stencil term per point, one add for a nonzero base, and
      {!Repro_ir.Expr.op_count} for general-fallback cases — times the
      points actually computed (including overlapped-tile redundancy). *)

type stage = {
  name : string;
  gid : int;
  points : int;  (** points computed per execution, incl. halo redundancy *)
  domain : int;  (** useful interior points *)
  flops_per_point : float;
  flops : float;  (** [flops_per_point *. points] *)
  useful_flops : float;  (** [flops_per_point *. domain] *)
  dram_read : int;  (** compulsory bytes from inputs + full arrays *)
  dram_write : int;  (** bytes written to full arrays *)
  scratch_read : int;  (** bytes read through scratch / modulo buffers *)
  scratch_write : int;
}

type group = {
  g_gid : int;
  kind : [ `Tiled | `Diamond ];
  stage_names : string list;
  working_set : int;
      (** bytes live while the group runs: arrays live across it, one
          thread's scratchpads, and the input footprints it reads *)
  fits_in : string;  (** smallest cache level holding [working_set] *)
  redundancy : float;  (** redundant-compute fraction of this group *)
}

type t = {
  stages : stage array;  (** execution order *)
  groups : group array;
  dram_read : int;
  dram_write : int;
  scratch_traffic : int;  (** total scratch bytes moved (read + write) *)
  flops : float;
  useful_flops : float;
  intensity : float;
      (** arithmetic intensity: FLOPs per DRAM byte moved (read+write) *)
}

val cache_levels : (string * int) list
(** The cache hierarchy, smallest first: [("L1", 32 KiB)], [("L2", 1
    MiB)], [("L3", 32 MiB)].  {!C_emit} reads its L1 too. *)

val of_plan : Plan.t -> t
(** A group's [fits_in] places its working set in the first of
    {!cache_levels} that holds it, else DRAM. *)

val stage_bytes : stage -> int
(** DRAM bytes moved by the stage: [dram_read + dram_write]. *)

val stage_intensity : stage -> float
(** FLOPs per DRAM byte; [infinity] for stages with no DRAM traffic. *)

val total_bytes : t -> int

val pp : Format.formatter -> t -> unit
(** Per-stage table plus group and plan totals — the predicted side of
    [polymg_dump --what cost]. *)
