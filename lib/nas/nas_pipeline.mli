(** The NAS MG benchmark expressed in the PolyMG DSL.

    One pipeline executes one full benchmark iteration ([resid] at the
    finest level followed by the [mg3P] V-cycle, which has no
    pre-smoothing): inputs ["U"] (iterate) and ["V"] (rhs), output the new
    iterate.  All kernels are the benchmark's 27-point stencils
    ({!Nas_coeffs}); boundaries are non-periodic (zero), the paper's
    comparison setting. *)

val build : cls:Nas_coeffs.cls -> Repro_ir.Pipeline.t

val params : cls:Nas_coeffs.cls -> string -> float
(** NAS stencils carry no grid-spacing parameters; this rejects every
    name and exists for interface uniformity with {!Repro_core.Plan}. *)

val input_v : Repro_ir.Pipeline.t -> int
val output : Repro_ir.Pipeline.t -> int

val stepper :
  cls:Nas_coeffs.cls -> opts:Repro_core.Options.t ->
  rt:Repro_core.Exec.runtime -> Repro_mg.Solver.stepper
(** Plan the pipeline and return the per-iteration stepper. *)
