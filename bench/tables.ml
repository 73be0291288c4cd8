(* Table 3, Figures 9/10 and the NAS comparison (Fig. 10e). *)

open Repro_mg
open Repro_core
open Repro_nas

let gen_loc cfg ~n ~opts =
  let p = Cycle.build cfg in
  C_emit.line_count (Plan.build p ~opts ~n ~params:(Cycle.params cfg ~n))

let table3 ~cycles ~reps () =
  Printf.printf "\n=== Table 3: benchmark characteristics ===\n";
  Printf.printf "%-14s %7s %10s %11s %14s %14s\n" "benchmark" "stages"
    "genLoC-opt" "genLoC-opt+" "naive B (s/cy)" "naive C (s/cy)";
  List.iter
    (fun dims ->
      List.iter
        (fun cfg ->
          let p = Cycle.build cfg in
          let stages = Repro_ir.Pipeline.stage_count p in
          let nb = Problem.class_n ~dims Problem.B in
          let nc = Problem.class_n ~dims Problem.C in
          let loc_opt = gen_loc cfg ~n:nb ~opts:Options.opt in
          let loc_optp = gen_loc cfg ~n:nb ~opts:Options.opt_plus in
          let time n =
            match
              Harness.run_benchmark ~cycles ~reps cfg ~n
                ~variants:[ Harness.polymg_variant "polymg-naive" Options.naive ]
            with
            | [ (_, t) ] -> t
            | _ -> assert false
          in
          Printf.printf "%-14s %7d %10d %11d %14.3f %14.3f\n"
            (Cycle.bench_name cfg) stages loc_opt loc_optp (time nb) (time nc))
        (Harness.benchmarks ~dims))
    [ 2; 3 ];
  (* NAS row *)
  let cls = Nas_coeffs.B in
  let p = Nas_pipeline.build ~cls in
  Printf.printf "%-14s %7d %10s %11d %14s %14s\n" "NAS-MG"
    (Repro_ir.Pipeline.stage_count p) "-"
    (C_emit.line_count
       (Plan.build p ~opts:Options.opt_plus ~n:(Nas_coeffs.problem_n cls)
          ~params:(Nas_pipeline.params ~cls)))
    "(see nas)" "(see nas)";
  Printf.printf
    "\nProblem sizes (Table 2, scaled — see DESIGN.md): 2D B=%d² C=%d², 3D B=%d³ C=%d³\n"
    (Problem.class_n ~dims:2 Problem.B)
    (Problem.class_n ~dims:2 Problem.C)
    (Problem.class_n ~dims:3 Problem.B)
    (Problem.class_n ~dims:3 Problem.C)

let fig ~dims ~cls ~cycles ~reps () =
  let fig_name = if dims = 2 then "Figure 9" else "Figure 10(a-d)" in
  Printf.printf "\n=== %s: %dD speedups over polymg-naive, class %s ===\n"
    fig_name dims (Problem.cls_name cls);
  let n = Problem.class_n ~dims cls in
  let all_opt = ref [] and all_optp = ref [] in
  List.iter
    (fun cfg ->
      let rows = Harness.run_benchmark ~cycles ~reps cfg ~n in
      Harness.print_speedups
        ~title:(Printf.sprintf "%s class %s (N=%d)" (Cycle.bench_name cfg)
                  (Problem.cls_name cls) n)
        ~base:"polymg-naive" rows;
      let speed name =
        let t = List.assoc name rows in
        List.assoc "polymg-naive" rows /. t
      in
      all_opt := speed "polymg-opt" :: !all_opt;
      all_optp := speed "polymg-opt+" :: !all_optp)
    (Harness.benchmarks ~dims);
  Printf.printf
    "\n  geometric means over the %dD class-%s suite: opt %.2fx, opt+ %.2fx over naive; opt+/opt %.2fx\n"
    dims (Problem.cls_name cls)
    (Harness.geomean !all_opt) (Harness.geomean !all_optp)
    (Harness.geomean
       (List.map2 (fun a b -> b /. a) !all_opt !all_optp))

let nas ~cls ~iters ~reps () =
  Printf.printf "\n=== Figure 10(e): NAS MG class %s (N=%d³, %d iterations) ===\n"
    (Nas_coeffs.cls_name cls)
    (Nas_coeffs.problem_n cls)
    iters;
  let prob = Nas_problem.setup ~cls in
  let problem =
    { Problem.dims = 3; n = prob.Nas_problem.n;
      v = prob.Nas_problem.u; f = prob.Nas_problem.v;
      exact = (fun _ -> 0.0) }
  in
  let time_and_norm name mk =
    Exec.with_runtime @@ fun rt ->
    let stepper = mk rt in
    let t = Tune.seconds_per_cycle ~reps ~cycles:iters stepper problem in
    let r =
      Solver.iterate stepper ~problem ~cycles:iters ~residuals:false ()
    in
    let norm = Nas_ref.residual_l2 ~u:r.Solver.v ~v:prob.Nas_problem.v in
    Printf.printf "  %-16s %10.4f s/iter   final residual L2 = %.6e\n" name t
      norm;
    t
  in
  (* tune the grouping limit for the DSL variants (27-point stencils make
     overlapped fusion expensive; the paper tunes per benchmark) *)
  let tune base =
    let make opts ~rt = Nas_pipeline.stepper ~cls ~opts ~rt in
    let measure limit =
      let opts = { base with Options.group_size_limit = limit } in
      (opts, Tune.time ~make problem opts)
    in
    match Tune.best (List.map measure [ 1; 3; 6 ]) with
    | Some (opts, _) -> opts
    | None -> base
  in
  let t_ref =
    time_and_norm "reference" (fun rt ->
        Nas_ref.stepper (Nas_ref.create ~cls ~par:rt.Exec.par))
  in
  let _ =
    time_and_norm "polymg-naive" (fun rt ->
        Nas_pipeline.stepper ~cls ~opts:Options.naive ~rt)
  in
  let tuned = tune Options.opt_plus in
  let t_optp =
    time_and_norm "polymg-opt+" (fun rt ->
        Nas_pipeline.stepper ~cls ~opts:tuned ~rt)
  in
  Printf.printf "  polymg-opt+ vs reference: %.2fx\n" (t_ref /. t_optp)
