(** The NAS MG benchmark expressed in the PolyMG DSL.

    One pipeline executes one full benchmark iteration ([resid] at the
    finest level followed by the [mg3P] V-cycle, which has no
    pre-smoothing): inputs ["V"] (the iterate, NAS u) and ["F"] (the
    right-hand side, NAS v), the solver's convention, and output the new
    iterate.  All kernels are the benchmark's 27-point stencils
    ({!Nas_coeffs}); boundaries are non-periodic (zero), the paper's
    comparison setting. *)

val build : cls:Nas_coeffs.cls -> Repro_ir.Pipeline.t

val params : cls:Nas_coeffs.cls -> string -> float
(** NAS stencils carry no grid-spacing parameters; this rejects every
    name and exists for interface uniformity with {!Repro_core.Plan}. *)

val stepper :
  cls:Nas_coeffs.cls -> opts:Repro_core.Options.t ->
  rt:Repro_core.Exec.runtime -> Repro_mg.Solver.stepper
(** Plans the pipeline through {!Repro_core.Plan_check.build} and returns
    {!Repro_mg.Solver.plan_stepper} on it, so [opts.backend] selects the
    interpreter or a compiled kernel as for any cycle plan. *)
