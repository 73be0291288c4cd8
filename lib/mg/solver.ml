module Grid = Repro_grid.Grid
module Telemetry = Repro_runtime.Telemetry
module Mempool = Repro_runtime.Mempool
module Flightrec = Repro_runtime.Flightrec
module Json = Repro_runtime.Json
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

let solve cfg ~n ~opts ?(domains = 1) ~cycles ?(residuals = true) () =
  Exec.with_runtime ~domains (fun rt ->
      let problem = Problem.poisson ~dims:cfg.Cycle.dims ~n in
      let stepper = polymg_stepper cfg ~n ~opts ~rt in
      iterate stepper ~problem ~cycles ~residuals ())

(* ------------------------------------------------------------------ *)
(* Governed solve: ladder planning + runtime demotion                   *)

type governed = {
  g_result : result;
  g_report : Govern.report;
  g_executed : Govern.rung;
  g_runtime_demotions : int;
}

let c_rt_demote = Telemetry.counter "govern.runtime_demotions"

(* Run one ladder rung under its own fresh runtime.  The pool budget is
   the total budget minus the rung's modelled scratch term, so the two
   enforcement layers (model at plan time, pool at run time) agree on
   what the pooled share may spend.  Unpooled rungs never consult the
   pool, so no budget is installed for them. *)
let attempt_rung ~domains ?poison ~budget ~problem ~cycles ~residuals
    ~start_cycle ?on_accept (rung : Govern.rung) =
  try
    Repro_core.Exec.with_runtime ~domains ?poison (fun rt ->
        (match budget with
         | Some b when rung.Govern.ropts.Options.pool ->
           Mempool.set_budget rt.Exec.pool
             (Some (max 1 (b - rung.Govern.scratch_bytes)))
         | Some _ | None -> ());
        Stdlib.Ok
          (iterate (plan_stepper rung.Govern.plan ~rt) ~problem ~cycles
             ~residuals ~start_cycle ?on_accept ()))
  with Mempool.Budget_exceeded _ as e -> Stdlib.Error (Printexc.to_string e)

let solve_governed cfg ~n ~(opts : Options.t) ?(domains = 1) ?poison ~cycles
    ?(residuals = true) ?(start_cycle = 1) ?on_accept ?problem () =
  let pipeline = Cycle.build cfg in
  let params = Cycle.params cfg ~n in
  match Govern.decide ~domains pipeline ~opts ~n ~params with
  | Stdlib.Error inf -> Stdlib.Error inf
  | Stdlib.Ok report ->
    let problem =
      match problem with
      | Some p -> p
      | None -> Problem.poisson ~dims:cfg.Cycle.dims ~n
    in
    let budget = report.Govern.budget in
    let ladder = report.Govern.ladder in
    (* Walk fitting rungs from the planner's choice downward: a rung
       whose *actual* footprint overruns the model (the pool raises
       Budget_exceeded) is demoted at runtime and the next fitting rung
       gets a fresh attempt.  The solve never aborts mid-ladder. *)
    let rec walk i demotions =
      if i >= Array.length ladder then
        let floor =
          Array.fold_left
            (fun best (r : Govern.rung) ->
              match best with
              | Some (b : Govern.rung) when b.Govern.peak_bytes <= r.Govern.peak_bytes
                -> best
              | _ -> Some r)
            None ladder
          |> Option.get
        in
        begin
          if Flightrec.on () then begin
            Flightrec.emit
              (Flightrec.Infeasible
                 { budget_bytes =
                     (match budget with Some b -> b | None -> 0);
                   floor_bytes = floor.Govern.peak_bytes;
                   floor_rung = floor.Govern.rname });
            ignore
              (Flightrec.incident ~kind:"budget-infeasible"
                 ~detail:
                   [ ( "budget_bytes",
                       match budget with
                       | Some b -> Json.num b
                       | None -> Json.Null );
                     ("floor_bytes", Json.num floor.Govern.peak_bytes);
                     ("floor_rung", Json.Str floor.Govern.rname);
                     ("runtime_demotions", Json.num demotions);
                     ( "ladder",
                       Json.Arr
                         (Array.to_list
                            (Array.map
                               (fun (r : Govern.rung) ->
                                 Json.Str r.Govern.rname)
                               ladder)) ) ]
                 ())
          end;
          Stdlib.Error
            { Govern.inf_budget =
                (match budget with Some b -> b | None -> 0);
              floor_bytes = floor.Govern.peak_bytes;
              floor_rung = floor.Govern.rname;
              inf_ladder = ladder }
        end
      else if not ladder.(i).Govern.fits then walk (i + 1) demotions
      else
        match
          attempt_rung ~domains ?poison ~budget ~problem ~cycles ~residuals
            ~start_cycle ?on_accept ladder.(i)
        with
        | Stdlib.Ok r ->
          Stdlib.Ok
            { g_result = r;
              g_report = report;
              g_executed = ladder.(i);
              g_runtime_demotions = demotions }
        | Stdlib.Error _ ->
          Telemetry.add c_rt_demote 1;
          if Flightrec.on () then
            Flightrec.emit
              (Flightrec.Runtime_demotion { rung = ladder.(i).Govern.rname });
          walk (i + 1) (demotions + 1)
    in
    walk report.Govern.chosen 0
