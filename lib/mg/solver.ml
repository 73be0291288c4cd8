module Grid = Repro_grid.Grid
module Telemetry = Repro_runtime.Telemetry
module Flightrec = Repro_runtime.Flightrec
open Repro_core

type status = Ok | Nan | Diverged | Stagnated

let status_name = function
  | Ok -> "ok"
  | Nan -> "nan"
  | Diverged -> "diverged"
  | Stagnated -> "stagnated"

type cycle_stats = {
  cycle : int;
  residual : float;
  seconds : float;
  status : status;
}

type result = {
  stats : cycle_stats list;
  v : Grid.t;
  total_seconds : float;
}

type stepper = v:Grid.t -> f:Grid.t -> out:Grid.t -> unit

let classify ?(divergence_factor = 1e4) ?(stagnation_eps = 1e-2) ~best ~prev
    residual =
  if not (Float.is_finite residual) then Nan
  else if Float.is_finite best && residual > divergence_factor *. best then
    Diverged
  else if Float.is_finite prev && residual >= (1.0 -. stagnation_eps) *. prev
  then Stagnated
  else Ok

let s_cycle = Telemetry.site "solver.cycle"

let iterate stepper ~(problem : Problem.t) ~cycles ?(residuals = true)
    ?(start_cycle = 1) ?on_accept () =
  if cycles < 1 then invalid_arg "Solver.iterate: cycles must be >= 1";
  if start_cycle < 1 then
    invalid_arg "Solver.iterate: start_cycle must be >= 1";
  let cur = ref (Grid.copy problem.Problem.v) in
  let next = ref (Grid.create (Grid.extents problem.Problem.v)) in
  let stats = ref [] in
  let total = ref 0.0 in
  let best = ref Float.infinity in
  let prev = ref Float.infinity in
  for c = start_cycle to start_cycle + cycles - 1 do
    (* one monotonic read at each end of the cycle: the reported seconds,
       the probe's range and the recorder's events share them *)
    let t0 = Telemetry.now_ns () in
    if Flightrec.on () then
      Flightrec.emit_at t0
        (Flightrec.Cycle_begin { cycle = c; fallback = false });
    stepper ~v:!cur ~f:problem.Problem.f ~out:!next;
    let t1 = Telemetry.now_ns () in
    if Telemetry.probing () then
      Telemetry.stop_at ~cat:"solver"
        ~args:[ ("cycle", Telemetry.Int c) ]
        t0 t1 s_cycle;
    let dt = float_of_int (t1 - t0) /. 1e9 in
    total := !total +. dt;
    let tmp = !cur in
    cur := !next;
    next := tmp;
    let residual =
      if residuals then
        Verify.residual_l2 ~n:problem.Problem.n ~v:!cur ~f:problem.Problem.f
      else Float.nan
    in
    let status =
      if not residuals then Ok
      else if not (Float.is_finite residual) then Nan
      else classify ~best:!best ~prev:!prev residual
    in
    if Float.is_finite residual then begin
      if residual < !best then best := residual;
      prev := residual
    end;
    if Flightrec.on () then
      Flightrec.emit_at t1
        (Flightrec.Cycle_end
           { cycle = c; residual; status = status_name status });
    stats := { cycle = c; residual; seconds = dt; status } :: !stats;
    (match on_accept with
     | Some hook ->
       hook ~cycle:c ~residual ~v:!cur ~stats:(List.rev !stats)
     | None -> ())
  done;
  { stats = List.rev !stats; v = !cur; total_seconds = !total }

let polymg_plan cfg ~n ~opts =
  let pipeline = Cycle.build cfg in
  Plan_check.build pipeline ~opts ~n ~params:(Cycle.params cfg ~n)

let plan_stepper plan ~rt =
  let pipeline = plan.Plan.pipeline in
  let vin = Cycle.input_v pipeline in
  let fin = Cycle.input_f pipeline in
  let out = Cycle.output pipeline in
  let digest = Plan.digest plan in
  let variant = Options.name plan.Plan.opts in
  Flightrec.note_plan ~digest ~variant;
  let interp ~v ~f ~out:out_grid =
    Exec.run plan rt ~inputs:[ (vin, v); (fin, f) ]
      ~outputs:[ (out, out_grid) ]
  in
  let native k ~v ~f ~out:out_grid =
    Native.run k ~inputs:[ (vin, v); (fin, f) ]
      ~outputs:[ (out, out_grid) ]
  in
  match plan.Plan.opts.Options.backend with
  | Options.Interp -> interp
  | Options.Native ->
    (* forced native: no compiler, an unemittable plan, or a compile
       failure is an error, never a silent downgrade *)
    (match Native.load plan with
     | Stdlib.Ok k -> native k
     | Stdlib.Error e -> raise (Native.Unavailable e))
  | Options.Auto ->
    (match Native.load plan with
     | Stdlib.Ok k -> native k
     | Stdlib.Error e ->
       Native.note_fallback ~digest ~variant ~reason:e;
       interp)

let polymg_stepper cfg ~n ~opts ~rt = plan_stepper (polymg_plan cfg ~n ~opts) ~rt

let solve cfg ~n ~opts ~cycles ?(residuals = true) () =
  Exec.with_runtime (fun rt ->
      let problem = Problem.poisson ~dims:cfg.Cycle.dims ~n in
      let stepper = polymg_stepper cfg ~n ~opts ~rt in
      iterate stepper ~problem ~cycles ~residuals ())
