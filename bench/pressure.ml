(* Pressure campaign: the executable proof that resource governance
   degrades gracefully instead of failing.  The resource-exhaustion
   analogue of the fault-injection campaign (faultinject.ml).

   Budget axis — for each Poisson V-cycle config the campaign measures
   the unconstrained footprint (the naive plan's modelled peak, the
   storage the system needs with no optimization) and re-solves under
   budgets of 100/75/50/25% of it, asserting for every solve:
     - it converges to the naive-plan answer (max |diff| <= 1e-8),
     - the executed rung's modelled footprint and the pool's measured
       high-water mark stay under the budget,
     - every ladder demotion appears in both the degradation report and
       the govern.* telemetry counters.
   A budget one byte under the requested variant's footprint must force
   a reported demotion; a budget under the ladder floor must come back
   as a typed infeasible result, never an abort.

   Deadline axis — a generous per-stage deadline must pass untripped; a
   hopeless one under guarded execution must trip, quarantine the
   primary and still converge through the (deadline-free) fallback; and
   a one-shot transient crash with primary_retries=1 must recover by
   retrying the primary, never touching the fallback.

   With --incident-dir DIR the flight recorder runs during the anomalous
   cases and each asserts its incident trail: forced demotions must dump
   a "demotion" report, the under-floor budget a "budget-infeasible"
   one, the hopeless deadline a "deadline" one, and a new
   retry-exhaustion case (persistent crash, bounded retries, no
   fallback) a "crash" report whose action is "gave up" — all valid
   incident reports (Campaign.expect_incident).

   Writes a polymg.pressure/1 JSON report with --out; --quick trims the
   config list for CI smoke.  Runs in `dune runtest` (test/dune). *)

open Repro_mg
open Repro_core
module Grid = Repro_grid.Grid
module Buf = Repro_grid.Buf
module Telemetry = Repro_runtime.Telemetry
module Flightrec = Repro_runtime.Flightrec
module Json = Repro_runtime.Json

let tol = 1e-8

(* [f ()] with fresh telemetry on; telemetry and the flight recorder
   are off again when it returns. *)
let recorded f =
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      Telemetry.set_enabled false;
      Flightrec.set_enabled false)

(* A recorded solve of [spec] (plans checked, opt+ unless overridden),
   an exception coming back as [Error]. *)
let solve (spec : Request.spec) =
  recorded (fun () ->
      match Request.validate { spec with Request.check_plan = true } with
      | Error e -> Error e
      | Ok rq -> (
        match Request.run rq with
        | r -> Ok r
        | exception e -> Error (Printexc.to_string e)))

let governed (cfg : Cycle.config) ~n ~budget ~cycles =
  solve
    { Request.default_spec with
      dims = cfg.Cycle.dims;
      levels = cfg.Cycle.levels;
      n = Some n;
      cycles;
      mem_budget = Some budget }

(* -- budget axis --------------------------------------------------------- *)

let governed_case ~name ~cfg ~n ~cycles ~budget ~naive_v ~expect_demotions =
  (* only the forced-demotion cases must leave an incident trail *)
  let incident_dir =
    if expect_demotions then Campaign.arm_incidents name else None
  in
  match governed cfg ~n ~budget ~cycles with
  | Error e ->
    Campaign.check ~name ~pass:false ~detail:[ ("error", Json.Str e) ]
  | Ok (Request.Over_budget inf) ->
    Campaign.check ~name ~pass:false
      ~detail:
        [ ("error", Json.Str "unexpectedly infeasible");
          ("floor_bytes", Json.num inf.Govern.floor_bytes) ]
  | Ok (Request.Stopped e | Request.No_resume e) ->
    Campaign.check ~name ~pass:false ~detail:[ ("error", Json.Str e) ]
  | Ok (Request.Solved g) ->
    let report = Option.get g.Request.report in
    let diff = Grid.max_abs_diff g.Request.v naive_v in
    let high_water =
      Telemetry.value (Telemetry.counter "govern.pool_high_water_bytes")
    in
    let reported = List.length report.Govern.demotions in
    let counted = Telemetry.value (Telemetry.counter "govern.demotions") in
    let executed = Option.get g.Request.rung in
    let converged = diff <= tol in
    let model_ok = executed.Govern.peak_bytes <= budget in
    let water_ok = high_water <= budget in
    let demotions_consistent = reported = counted in
    let demotions_ok = (not expect_demotions) || reported >= 1 in
    let incident_problems =
      Campaign.expect_incident ~dir:incident_dir ~kinds:[ "demotion" ]
        ~detail_pred:(fun d -> Json.to_str (Campaign.field "chosen" d) <> None)
        ()
    in
    let pass =
      converged && model_ok && water_ok && demotions_consistent
      && demotions_ok && incident_problems = []
    in
    Campaign.check ~name ~pass
      ~detail:
        [ ("incident_problems", Campaign.strings incident_problems);
          ("budget", Json.num budget);
          ("executed_rung", Json.Str executed.Govern.rname);
          ("executed_peak_bytes", Json.num executed.Govern.peak_bytes);
          ("pool_high_water", Json.num high_water);
          ("max_abs_diff", Json.Num diff);
          ("demotions_reported", Json.num reported);
          ("demotions_counted", Json.num counted);
          ("runtime_demotions", Json.num g.Request.runtime_demotions);
          ("report", Govern.report_json report) ]

let budget_axis ~quick =
  let configs =
    [ ("2D-n64-L3", 2, 64, 3); ("3D-n32-L3", 3, 32, 3) ]
    @ (if quick then [] else [ ("2D-n128-L4", 2, 128, 4) ])
  in
  let cycles = if quick then 3 else 4 in
  List.iter
    (fun (cname, dims, n, levels) ->
      let cfg =
        { (Cycle.default ~dims ~shape:Cycle.V ~smoothing:(4, 4, 4)) with
          Cycle.levels }
      in
      let problem = Problem.poisson ~dims ~n in
      let pipeline = Cycle.build cfg in
      let params = Cycle.params cfg ~n in
      (* naive reference answer, same problem and cycle count *)
      let naive_v =
        Exec.with_runtime (fun rt ->
            let stepper =
              Solver.polymg_stepper cfg ~n ~opts:Options.naive ~rt
            in
            (Solver.iterate stepper ~problem ~cycles ()).Solver.v)
      in
      (* modelled footprints, probed with telemetry off so the probe's
         own decide calls leave the govern.* counters untouched *)
      let probe opts =
        match Govern.decide pipeline ~opts ~n ~params with
        | Ok r -> r.Govern.ladder
        | Error i -> i.Govern.inf_ladder
      in
      let unconstrained =
        (probe Options.naive).(0).Govern.peak_bytes
      in
      let opt_ladder = probe Options.opt_plus in
      let requested_peak = opt_ladder.(0).Govern.peak_bytes in
      let floor =
        Array.fold_left
          (fun m (r : Govern.rung) -> min m r.Govern.peak_bytes)
          max_int opt_ladder
      in
      Printf.printf
        "config %s: unconstrained(naive) %d B, opt+ %d B, floor %d B\n%!"
        cname unconstrained requested_peak floor;
      List.iter
        (fun pct ->
          governed_case
            ~name:(Printf.sprintf "%s@%d%%" cname pct)
            ~cfg ~n ~cycles
            ~budget:(unconstrained * pct / 100)
            ~naive_v ~expect_demotions:false)
        [ 100; 75; 50; 25 ];
      (* one byte under the requested rung: must demote, must still
         converge to the naive answer *)
      governed_case
        ~name:(cname ^ "@forced-demotion")
        ~cfg ~n ~cycles ~budget:(requested_peak - 1) ~naive_v
        ~expect_demotions:true;
      (* under the floor: typed infeasible, never an abort *)
      let name = cname ^ "@infeasible" in
      let incident_dir = Campaign.arm_incidents name in
      match governed cfg ~n ~budget:(floor - 1) ~cycles with
       | Error e ->
         Campaign.check ~name ~pass:false ~detail:[ ("error", Json.Str e) ]
       | Ok (Request.Solved g) ->
         Campaign.check ~name ~pass:false
           ~detail:
             [ ("error", Json.Str "expected infeasible, got a solve");
               ( "executed_rung",
                 Json.Str (Option.get g.Request.rung).Govern.rname ) ]
       | Ok (Request.Stopped e | Request.No_resume e) ->
         Campaign.check ~name ~pass:false ~detail:[ ("error", Json.Str e) ]
       | Ok (Request.Over_budget inf) ->
         let counted =
           Telemetry.value (Telemetry.counter "govern.infeasible")
         in
         let incident_problems =
           Campaign.expect_incident ~dir:incident_dir
             ~kinds:[ "budget-infeasible" ]
             ~detail_pred:(fun d ->
               Json.to_str (Campaign.field "floor_rung" d) <> None)
             ()
         in
         let pass =
           inf.Govern.inf_budget = floor - 1
           && inf.Govern.floor_bytes = floor
           && counted >= 1
           && incident_problems = []
         in
         Campaign.check ~name ~pass
           ~detail:
             [ ("budget", Json.num (floor - 1));
               ("floor_bytes", Json.num inf.Govern.floor_bytes);
               ("floor_rung", Json.Str inf.Govern.floor_rung);
               ("infeasible_counted", Json.num counted);
               ("incident_problems", Campaign.strings incident_problems) ])
    configs

(* -- deadline axis ------------------------------------------------------- *)

let deadline_axis () =
  let dims = 2 and n = 64 in
  let cfg = Cycle.default ~dims ~shape:Cycle.V ~smoothing:(4, 4, 4) in
  let problem = Problem.poisson ~dims ~n in
  let trips () =
    Telemetry.value (Telemetry.counter "govern.deadline_trips")
  in
  let deadline_spec deadline =
    { Request.default_spec with n = Some n; deadline = Some deadline }
  in
  (* generous deadline: must pass untripped *)
  (match solve { (deadline_spec 5.0) with cycles = 3 } with
   | Error e ->
     Campaign.check ~name:"deadline-generous" ~pass:false
       ~detail:[ ("error", Json.Str e) ]
   | Ok (Request.Solved _) ->
     let t = trips () in
     Campaign.check ~name:"deadline-generous" ~pass:(t = 0)
       ~detail:[ ("deadline_trips", Json.num t) ]
   | Ok o ->
     Campaign.check ~name:"deadline-generous" ~pass:false
       ~detail:
         [ ("status", Json.Str (Request.status_name (Request.status o))) ]);
  (* hopeless deadline under guard: trips, quarantines the primary, and
     still converges through the deadline-free naive fallback *)
  let incident_dir = Campaign.arm_incidents "deadline-hopeless-guarded" in
  let r =
    match
      solve { (deadline_spec 1e-7) with tol = Some 1e-8; max_cycles = Some 60 }
    with
    | Ok (Request.Solved { Request.guarded = Some r; _ }) -> r
    | Ok o ->
      failwith
        ("deadline-hopeless-guarded: "
        ^ Request.status_name (Request.status o))
    | Error e -> failwith ("deadline-hopeless-guarded: " ^ e)
  in
  let t = trips () in
  let quarantined =
    List.exists
      (fun (e : Guard.event) ->
        e.Guard.action = Guard.Quarantined_primary)
      r.Guard.events
  in
  let incident_problems =
    Campaign.expect_incident ~dir:incident_dir ~kinds:[ "deadline" ]
      ~mid_solve:true ()
  in
  Campaign.check ~name:"deadline-hopeless-guarded"
    ~pass:
      (r.Guard.outcome = Guard.Converged && t >= 1 && quarantined
       && incident_problems = [])
    ~detail:
      [ ("outcome", Json.Str (Guard.outcome_name r.Guard.outcome));
        ("deadline_trips", Json.num t);
        ("quarantined", Json.Bool quarantined);
        ("fallback_cycles", Json.num r.Guard.fallback_cycles);
        ("incident_problems", Campaign.strings incident_problems) ];
  (* transient crash + bounded retry: one Primary_retry event, no
     fallback cycles, converged *)
  let r =
    recorded @@ fun () ->
    Exec.with_runtime (fun rt ->
        let inner =
          Solver.polymg_stepper cfg ~n
            ~opts:{ Options.opt_plus with Options.check_plan = true }
            ~rt
        in
        let armed = ref true in
        let primary ~v ~f ~out =
          if !armed then begin
            armed := false;
            failwith "pressure: transient glitch"
          end;
          inner ~v ~f ~out
        in
        let fallback () =
          Solver.polymg_stepper cfg ~n ~opts:Options.naive ~rt
        in
        Guard.run
          ~policy:
            { Guard.tol = Some 1e-8;
              max_cycles = 60;
              primary_retries = 1;
              retry_backoff = 1e-3 }
          ~primary ~fallback ~problem ())
  in
  let retried =
    List.exists
      (fun (e : Guard.event) -> e.Guard.action = Guard.Primary_retry)
      r.Guard.events
  in
  let counted = Telemetry.value (Telemetry.counter "govern.primary_retries") in
  Campaign.check ~name:"transient-crash-retry"
    ~pass:
      (r.Guard.outcome = Guard.Converged && retried && counted = 1
       && r.Guard.fallback_cycles = 0)
    ~detail:
      [ ("outcome", Json.Str (Guard.outcome_name r.Guard.outcome));
        ("retried", Json.Bool retried);
        ("retries_counted", Json.num counted);
        ("fallback_cycles", Json.num r.Guard.fallback_cycles) ];
  (* retry exhaustion: a persistent crash, bounded retries and no
     fallback must end in a typed Faulted outcome — and leave a crash
     incident whose recorded action is "gave up" *)
  let incident_dir = Campaign.arm_incidents "retry-exhaustion" in
  let r =
    recorded @@ fun () ->
    Exec.with_runtime (fun rt ->
        let _keep_plan_note =
          (* note the plan the way a real solve would, so the incident
             carries the primary's digest even though the primary below
             never completes a cycle *)
          Solver.polymg_stepper cfg ~n
            ~opts:{ Options.opt_plus with Options.check_plan = true }
            ~rt
        in
        let primary ~v:_ ~f:_ ~out:_ =
          failwith "pressure: persistent crash"
        in
        Guard.run
          ~policy:
            { Guard.tol = Some 1e-8;
              max_cycles = 10;
              primary_retries = 2;
              retry_backoff = 1e-3 }
          ~primary ~problem ())
  in
  let retries =
    Telemetry.value (Telemetry.counter "govern.primary_retries")
  in
  let gave_up =
    List.exists
      (fun (e : Guard.event) -> e.Guard.action = Guard.Gave_up)
      r.Guard.events
  in
  let incident_problems =
    Campaign.expect_incident ~dir:incident_dir ~kinds:[ "crash" ]
      ~mid_solve:true
      ~detail_pred:(fun d ->
        Json.to_str (Campaign.field "action" d) = Some "gave up")
      ()
  in
  Campaign.check ~name:"retry-exhaustion"
    ~pass:
      ((match r.Guard.outcome with
        | Guard.Faulted (Guard.Fault_crash _) -> true
        | _ -> false)
       && retries = 2 && gave_up
       && incident_problems = [])
    ~detail:
      [ ("outcome", Json.Str (Guard.outcome_name r.Guard.outcome));
        ("retries_counted", Json.num retries);
        ("gave_up", Json.Bool gave_up);
        ("incident_problems", Campaign.strings incident_problems) ]

(* -- driver -------------------------------------------------------------- *)

let () =
  Campaign.parse
    ~usage:"usage: pressure.exe [--quick] [--out FILE] [--incident-dir DIR]"
    [ Campaign.quick_flag; Campaign.out_flag; Campaign.incident_dir_flag ];
  let quick = !Campaign.quick in
  Printf.printf "pressure campaign%s: budget ladder + deadlines, tol %g\n%!"
    (if quick then " (quick)" else "")
    tol;
  budget_axis ~quick;
  deadline_axis ();
  (* teardown: across every demoted, deadline-tripped, and budget-refused
     solve above *)
  Campaign.teardown ~name:"pools quiescent at teardown";
  Campaign.finish ~schema:"polymg.pressure/1" "pressure campaign"
