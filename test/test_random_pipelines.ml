(* The strongest equivalence check in the suite: generate random valid
   pipelines (generators in Pipeline_gen, shared with test_plan_check)
   and check that every optimizer variant computes exactly what the
   naive plan computes. *)

open Repro_core
module Grid = Repro_grid.Grid

let run_pipeline = Pipeline_gen.run_pipeline

let prop_variants_agree =
  QCheck.Test.make ~name:"random pipelines: all variants match naive"
    ~count:60 ~long_factor:10 Pipeline_gen.pipelines_arb
    (fun stages ->
      let built = Pipeline_gen.gen_pipeline_of stages in
      let n = 32 in
      let reference = run_pipeline built ~opts:Options.naive ~n in
      List.for_all
        (fun opts ->
          let v = run_pipeline built ~opts ~n in
          Grid.max_abs_diff reference v = 0.0)
        [ Options.opt; Options.opt_plus; Options.dtile_opt_plus;
          { Options.opt_plus with Options.group_size_limit = 2 };
          Options.with_tiles Options.opt_plus ~t2:[| 5; 9 |]
            ~t3:[| 4; 4; 8 |] ])

(* Degradation ladder soundness: for any random pipeline and any budget
   between the ladder floor and the requested rung's footprint, the
   governed decision must pick a rung that fits, report exactly the
   demotions it took, keep every rung storage-safe, and — the part that
   matters — the chosen rung must still compute the naive answer. *)
let prop_ladder_sound =
  QCheck.Test.make ~name:"random pipelines: degradation ladder is sound"
    ~count:20 ~long_factor:10
    QCheck.(pair Pipeline_gen.pipelines_arb (int_range 0 100))
    (fun (stages, pct) ->
      let ((pipe, _, _) as built) = Pipeline_gen.gen_pipeline_of stages in
      let n = 32 in
      let params s = invalid_arg s in
      let opts = { Options.opt_plus with Options.check_plan = true } in
      let unconstrained =
        match Govern.decide pipe ~opts ~n ~params with
        | Ok r -> r.Govern.ladder
        | Error _ -> assert false (* no budget: always feasible *)
      in
      let floor =
        Array.fold_left
          (fun m (r : Govern.rung) -> min m r.Govern.peak_bytes)
          max_int unconstrained
      in
      let top = unconstrained.(0).Govern.peak_bytes in
      let budget = floor + ((top - floor) * pct / 100) in
      match
        Govern.decide pipe
          ~opts:{ opts with Options.mem_budget = Some budget }
          ~n ~params
      with
      | Error _ -> false (* budget >= floor must be feasible *)
      | Ok r ->
        let chosen = Govern.chosen r in
        chosen.Govern.peak_bytes <= budget
        && List.length r.Govern.demotions = r.Govern.chosen
        && Array.for_all
             (fun (rg : Govern.rung) ->
               Plan_check.check rg.Govern.plan = Ok ())
             r.Govern.ladder
        && Grid.max_abs_diff
             (Pipeline_gen.run_pipeline built ~opts:Options.naive ~n)
             (Pipeline_gen.run_plan built chosen.Govern.plan ~n)
           = 0.0)

let prop_deterministic =
  QCheck.Test.make ~name:"random pipelines: opt+ is deterministic" ~count:20
    ~long_factor:10
    Pipeline_gen.pipelines_arb
    (fun stages ->
      let built = Pipeline_gen.gen_pipeline_of stages in
      let a = run_pipeline built ~opts:Options.opt_plus ~n:32 in
      let b = run_pipeline built ~opts:Options.opt_plus ~n:32 in
      Grid.max_abs_diff a b = 0.0)

let () =
  Alcotest.run "random-pipelines"
    [ ( "properties",
        Qc_replay.to_alcotest_list
          [ prop_variants_agree; prop_ladder_sound; prop_deterministic ] ) ]
