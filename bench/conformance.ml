(* Conformance campaign: the executable proof that every variant of the
   compiler computes the same answer (the paper's §7 validation premise).

   Five legs, each reported and JSON-exported:
     - differential oracle: every plan variant and the hand-optimized
       baselines, run in lockstep against the naive plan over
       {2D,3D} x {V,W} x smoothing {4-4-4, 10-0-0} x domains {1,4},
       pairwise within the documented ULP/abs budgets; on mismatch the
       worst cycle and first diverging stage are named;
     - backend axis: every plan variant's emitted C, compiled and
       dlopen'd by Repro_core.Native, against the interpreter on the
       same plan over the full campaign matrix — once on
       deterministically filled inputs (cycle 0), then in lockstep on
       the interpreter's Poisson iterates; a visible skip when no
       compiler, with the report's shape unchanged;
     - MMS convergence: solving the manufactured Poisson problem at
       n, 2n, 4n must show observed order 2.0 +/- 0.1 in 2D and 3D;
     - injected-bug self-test: a stencil coefficient perturbed by 1e-3
       must be *caught* by the differential property, with a minimized,
       seed-replayable counterexample — the harness proves it can see
       the bugs it exists to catch;
     - convergence health: the observatory's (Repro_mg.Health) range
       check on the standard Poisson configs — asymptotic convergence
       factor within per-config bounds, residual decreasing, no level
       stalled above round-off.

   Writes a polymg.conformance/1 JSON report with --out; --quick trims
   the matrix for CI smoke.  Runs in `dune runtest` (test/dune). *)

open Repro_mg
module Json = Repro_runtime.Json

let leg name pass = Campaign.check ~name ~pass ~detail:[]

(* -- leg 1: differential oracle ----------------------------------------- *)

let run_oracle ~quick =
  Format.printf "@.== differential oracle (budgets: plan %.1e, handopt %.1e) ==@."
    Conformance.default_budgets.Conformance.vs_plan
    Conformance.default_budgets.Conformance.vs_handopt;
  let cases = Conformance.oracle_campaign ~quick () in
  List.iter (fun c -> Format.printf "%a@." Conformance.pp_case c) cases;
  leg "oracle" (List.for_all Conformance.case_pass cases);
  cases

(* -- leg 2: backend axis (interpreter vs native) ------------------------ *)

let run_native ~quick =
  Format.printf "@.== backend axis: interpreter vs native (budget %.1e) ==@."
    Conformance.default_budgets.Conformance.vs_c;
  let cases, skipped = Conformance.native_campaign ~quick () in
  (match skipped with
   | Some reason ->
     (* visible skip, never a silent pass *)
     Format.printf "native: SKIPPED (%s)@." reason;
     leg "native" true
   | None ->
     List.iter (fun c -> Format.printf "%a@." Conformance.pp_case c) cases;
     leg "native" (List.for_all Conformance.case_pass cases));
  (cases, skipped)

(* -- leg 3: MMS convergence order --------------------------------------- *)

let run_mms ~quick =
  Format.printf "@.== MMS convergence (expect order 2.0 +/- 0.1) ==@.";
  let dims_list = if quick then [ 2 ] else [ 2; 3 ] in
  let studies = List.map (fun dims -> Conformance.mms_study ~dims ()) dims_list in
  List.iter (fun m -> Format.printf "%a@." Conformance.pp_mms m) studies;
  leg "mms" (List.for_all Conformance.mms_pass studies);
  studies

(* -- leg 5: convergence health ------------------------------------------ *)

(* The observatory's range check on the standard Poisson configs: the
   asymptotic convergence factor must sit in the expected band, the
   residual must drop, and no level may stall above round-off.  Guards
   both the numerics (a smoother or transfer regression shows up as a
   worse factor long before it breaks the differential oracle's
   lockstep) and the --health/--metrics surface built on it. *)
let run_health ~quick =
  Format.printf "@.== convergence health (factor bounds per config) ==@.";
  (* measured asymptotic factors: V-2D ~0.67, W-2D ~0.22, V-3D ~0.28 —
     bounds leave ~15%% headroom before the leg trips *)
  let configs =
    [ ("V-2D", 2, Cycle.V, 64, 0.75); ("W-2D", 2, Cycle.W, 64, 0.30) ]
    @ (if quick then [] else [ ("V-3D", 3, Cycle.V, 32, 0.35) ])
  in
  let results =
    List.map
      (fun (name, dims, shape, n, max_factor) ->
        let cfg = Cycle.default ~dims ~shape ~smoothing:(4, 4, 4) in
        let r = Health.observe cfg ~n ~cycles:(if quick then 6 else 8) () in
        let verdict = Health.healthy ~max_factor r in
        (match verdict with
         | Ok () ->
           Format.printf
             "%-6s n=%d: asymptotic factor %.3f (bound %.2f)  ok@." name n
             r.Health.asymptotic_factor max_factor
         | Error msgs ->
           List.iter
             (fun m -> Format.printf "%-6s n=%d: %s@." name n m)
             msgs);
        (name, n, max_factor, r, verdict))
      configs
  in
  leg "health"
    (List.for_all (fun (_, _, _, _, v) -> Result.is_ok v) results);
  results

let json_of_health (name, n, max_factor, r, verdict) =
  Json.Obj
    [ ("config", Json.Str name);
      ("n", Json.num n);
      ("max_factor", Json.Num max_factor);
      ( "asymptotic_factor",
        if Float.is_finite r.Health.asymptotic_factor then
          Json.Num r.Health.asymptotic_factor
        else Json.Null );
      ("pass", Json.Bool (Result.is_ok verdict));
      ( "violations",
        Json.Arr
          (match verdict with
           | Ok () -> []
           | Error msgs -> List.map (fun m -> Json.Str m) msgs) ) ]

(* -- leg 4: injected-bug self-test -------------------------------------- *)

(* Perturb the first generated stencil's center coefficient: the kind of
   silent miscompile the oracle exists to catch. *)
let inject_bug stages =
  let done_ = ref false in
  List.map
    (fun st ->
      match st with
      | Pipeline_gen.G_stencil (p, w, f) when not !done_ ->
        done_ := true;
        let w' = Array.copy w in
        w'.(4) <- w'.(4) +. 1e-3;
        Pipeline_gen.G_stencil (p, w', f)
      | st -> st)
    stages

let has_stencil =
  List.exists (function Pipeline_gen.G_stencil _ -> true | _ -> false)

let run_selftest ~quick =
  Format.printf "@.== injected-bug self-test (seed %d) ==@." Qc_replay.seed;
  let count = if quick then 30 else 100 in
  (* This property is deliberately FALSE: naive-on-clean must disagree
     with opt+-on-bugged whenever the perturbed stencil feeds the
     output.  The campaign passes iff QCheck finds and minimizes a
     counterexample. *)
  let prop stages =
    has_stencil stages = false
    ||
    try
      let clean =
        Pipeline_gen.run_pipeline
          (Pipeline_gen.gen_pipeline_of stages)
          ~opts:Repro_core.Options.naive ~n:32
      in
      let bugged =
        Pipeline_gen.run_pipeline
          (Pipeline_gen.gen_pipeline_of (inject_bug stages))
          ~opts:Repro_core.Options.opt_plus ~n:32
      in
      Repro_grid.Grid.max_abs_diff clean bugged
      <= Conformance.default_budgets.Conformance.vs_plan
    with _ -> true
  in
  let cell =
    QCheck.Test.make_cell ~count ~name:"injected stencil bug is caught"
      Pipeline_gen.pipelines_arb prop
  in
  let result = QCheck.Test.check_cell ~rand:(Qc_replay.rand ()) cell in
  match QCheck.TestResult.get_state result with
  | QCheck.TestResult.Failed { instances = c_ex :: _ } ->
    Format.printf
      "bug caught; minimized counterexample (%d shrink steps):@.%s@."
      c_ex.QCheck.TestResult.shrink_steps
      (Pipeline_gen.print_stages c_ex.QCheck.TestResult.instance);
    Format.printf "replay: %s@." (Qc_replay.replay_hint ());
    let minimal = has_stencil c_ex.QCheck.TestResult.instance in
    if not minimal then
      Format.printf "counterexample lost its stencil stage (shrinker bug?)@.";
    leg "injected-bug" minimal;
    Some (c_ex.QCheck.TestResult.shrink_steps,
          Pipeline_gen.print_stages c_ex.QCheck.TestResult.instance)
  | QCheck.TestResult.Failed { instances = [] } | QCheck.TestResult.Success ->
    Format.printf
      "the oracle did NOT catch the injected bug (seed %d, replay: %s)@."
      Qc_replay.seed (Qc_replay.replay_hint ());
    leg "injected-bug" false;
    None
  | QCheck.TestResult.Failed_other { msg } ->
    Format.printf "self-test aborted: %s@." msg;
    leg "injected-bug" false;
    None
  | QCheck.TestResult.Error { exn; _ } ->
    Format.printf "self-test raised: %s@." (Printexc.to_string exn);
    leg "injected-bug" false;
    None

(* -- driver -------------------------------------------------------------- *)

let () =
  Campaign.parse ~usage:"usage: conformance.exe [--quick] [--out FILE]"
    [ Campaign.quick_flag; Campaign.out_flag ];
  let quick = !Campaign.quick in
  Format.printf "conformance campaign%s@." (if quick then " (quick)" else "");
  let oracle = run_oracle ~quick in
  let native, native_skipped = run_native ~quick in
  let mms = run_mms ~quick in
  let health = run_health ~quick in
  let selftest = run_selftest ~quick in
  Campaign.finish ~schema:"polymg.conformance/1"
    ~body:
      [ ("quick", Json.Bool quick);
        ("oracle", Json.Arr (List.map Conformance.json_of_case oracle));
        ("native", Json.Arr (List.map Conformance.json_of_case native));
        ( "native_skipped",
          Option.fold native_skipped ~none:Json.Null ~some:(fun r -> Json.Str r)
        );
        ("mms", Json.Arr (List.map Conformance.json_of_mms mms));
        ("health", Json.Arr (List.map json_of_health health));
        ( "injected_bug",
          match selftest with
          | Some (shrink_steps, counterexample) ->
            Json.Obj
              [ ("caught", Json.Bool true);
                ("seed", Json.num Qc_replay.seed);
                ("shrink_steps", Json.num shrink_steps);
                ("counterexample", Json.Str counterexample) ]
          | None ->
            Json.Obj
              [ ("caught", Json.Bool false); ("seed", Json.num Qc_replay.seed) ]
        ) ]
    "conformance campaign"
