(* Figures 11a, 11b, 12 and the scaling study of §4.2. *)

open Repro_ir
open Repro_mg
open Repro_core

(* ---- Fig. 11a: smoother-only, overlapped vs diamond tiling (3D) ---- *)

(* a pipeline that is nothing but a [steps]-deep Jacobi smoother *)
let smoother_pipeline ~dims ~steps =
  let sizes = Array.make dims (Sizeexpr.add_const Sizeexpr.n (-1)) in
  let ctx = Dsl.create (Printf.sprintf "smoother-%dD-%d" dims steps) in
  let v = Dsl.grid ctx "V" ~dims ~sizes in
  let f = Dsl.grid ctx "F" ~dims ~sizes in
  let aw =
    if dims = 2 then
      Weights.w2 [| [| 0.; -1.; 0. |]; [| -1.; 4.; -1. |]; [| 0.; -1.; 0. |] |]
    else
      let z = [| [| 0.; 0.; 0. |]; [| 0.; -1.; 0. |]; [| 0.; 0.; 0. |] |] in
      let m = [| [| 0.; -1.; 0. |]; [| -1.; 6.; -1. |]; [| 0.; -1.; 0. |] |] in
      Weights.w3 [| z; m; z |]
  in
  let zero = Array.make dims 0 in
  let last =
    Dsl.tstencil ctx ~name:"T" ~steps ~init:v (fun ~v ->
        Expr.(
          load v.Func.id zero
          - (param "w"
             * ((param "invhsq" * Dsl.stencil v aw ())
                - load f.Func.id zero))))
  in
  Dsl.finish ctx ~outputs:[ last ]

let smoother_params ~dims ~n name =
  let invhsq = float_of_int (n * n) in
  match name with
  | "invhsq" -> invhsq
  | "w" -> 0.8 /. (float_of_int (2 * dims) *. invhsq)
  | _ -> invalid_arg name

let time_smoother ~dims ~steps ~n ~opts ~reps =
  let plan =
    Plan.build (smoother_pipeline ~dims ~steps) ~opts ~n
      ~params:(smoother_params ~dims ~n)
  in
  let problem = Problem.poisson_random ~dims ~n ~seed:7 in
  Exec.with_runtime @@ fun rt ->
  Tune.seconds_per_cycle ~reps ~cycles:1 (Solver.plan_stepper plan ~rt) problem

let fig11a ~cls ~reps () =
  let dims = 3 in
  let n = Problem.class_n ~dims cls in
  Printf.printf
    "\n=== Figure 11a: 3D smoother only (N=%d³): overlapped vs diamond vs \
     skewed ===\n"
    n;
  Printf.printf "  %-6s %14s %12s %12s %9s %9s\n" "steps" "overlapped (s)"
    "diamond (s)" "skewed (s)" "dia/ovl" "skw/dia";
  List.iter
    (fun steps ->
      let t_ovl = time_smoother ~dims ~steps ~n ~opts:Options.opt_plus ~reps in
      let t_dia =
        time_smoother ~dims ~steps ~n ~opts:Options.dtile_opt_plus ~reps
      in
      let t_skw =
        time_smoother ~dims ~steps ~n
          ~opts:
            { Options.opt_plus with
              Options.smoother =
                Options.Skewed_smoother { tau = 4; sigma = 16 } }
          ~reps
      in
      Printf.printf "  %-6d %14.4f %12.4f %12.4f %8.2fx %8.2fx\n" steps t_ovl
        t_dia t_skw (t_ovl /. t_dia) (t_skw /. t_dia))
    [ 4; 10 ];
  (* §5's structural claim: diamond has concurrent start, the wavefront
     method pays a pipelined startup — quantified as schedule concurrency *)
  let steps = 10 in
  let profile name fronts =
    let p = Repro_poly.Skewed.concurrency fronts in
    Printf.printf
      "  %-9s schedule: %4d wavefronts, max %4d tiles/front, avg %7.1f, \
       %d ramp-up/drain fronts\n"
      name p.Repro_poly.Skewed.fronts p.Repro_poly.Skewed.max_width
      p.Repro_poly.Skewed.avg_width p.Repro_poly.Skewed.startup_fronts
  in
  profile "diamond"
    (Repro_poly.Diamond.wavefronts ~steps ~size:n ~sigma:16);
  profile "skewed"
    (Repro_poly.Skewed.wavefronts ~steps ~size:n ~tau:4 ~sigma:16)

(* ---- Fig. 11b: storage-optimization breakdown ---- *)

let fig11b ~cls ~cycles ~reps () =
  Printf.printf
    "\n=== Figure 11b: storage optimizations for V-10-0-0 (speedup over naive) ===\n";
  List.iter
    (fun dims ->
      let n = Problem.class_n ~dims cls in
      let cfg = Cycle.default ~dims ~shape:Cycle.V ~smoothing:(10, 0, 0) in
      (* best-performing opt+ configuration (as the paper does), then
         disable storage features one at a time *)
      let tuned = Harness.tune_opts Options.opt_plus cfg ~n in
      let variants =
        [ ("naive", Options.naive);
          ("intra-group reuse",
           { tuned with Options.array_reuse = false; Options.pool = false });
          ("intra + pooled", { tuned with Options.array_reuse = false });
          ("intra + pooled + inter (opt+)", tuned) ]
      in
      let rows =
        Harness.run_benchmark ~cycles ~reps cfg ~n
          ~variants:
            (List.map (fun (name, o) -> Harness.polymg_variant name o) variants)
      in
      Harness.print_speedups
        ~title:(Printf.sprintf "V-%dD-10-0-0 class %s (N=%d)" dims
                  (Problem.cls_name cls) n)
        ~base:"naive" rows;
      (* memory footprints, the quantity §3.2.2 optimizes *)
      let p = Cycle.build cfg in
      List.iter
        (fun (name, o) ->
          let plan = Plan.build p ~opts:o ~n ~params:(Cycle.params cfg ~n) in
          Printf.printf "  %-30s arrays=%3d  bytes=%8.1f MB  scratch/thread=%6.2f MB\n"
            name (Plan.array_count plan)
            (float_of_int (Plan.total_array_bytes plan) /. 1e6)
            (float_of_int (Plan.scratch_bytes_per_thread plan) /. 1e6))
        variants)
    [ 2; 3 ]

(* ---- Fig. 12: autotuning configurations ---- *)

let fig12 ~cls ~cycles () =
  let dims = 2 in
  let n = Problem.class_n ~dims cls in
  let cfg = Cycle.default ~dims ~shape:Cycle.V ~smoothing:(10, 0, 0) in
  Printf.printf
    "\n=== Figure 12: autotuning V-2D-10-0-0 class %s (N=%d), opt vs opt+ ===\n"
    (Problem.cls_name cls) n;
  Printf.printf "  %-6s %-10s %12s %12s\n" "limit" "tile" "opt (s/cy)"
    "opt+ (s/cy)";
  let problem = Problem.poisson_random ~dims ~n ~seed:3 in
  let make opts ~rt = Solver.polymg_stepper cfg ~n ~opts ~rt in
  let time opts = Tune.time ~cycles ~make problem opts in
  let show t = Option.value t ~default:Float.nan in
  let limits = [ 2; 4; 6; 8; 12 ] in
  let row opt optp =
    let t_opt = time opt in
    let t_optp = time optp in
    let tile = optp.Options.tile_2d in
    Printf.printf "  %-6d %-10s %12.4f %12.4f\n" optp.Options.group_size_limit
      (Printf.sprintf "%dx%d" tile.(0) tile.(1))
      (show t_opt) (show t_optp);
    (optp, t_optp)
  in
  match
    Tune.best
      (List.map2 row (Tune.space Options.opt ~dims ~limits)
         (Tune.space Options.opt_plus ~dims ~limits))
  with
  | Some (optp, t) ->
    Printf.printf "  best opt+ configuration: %s (%.4f s/cycle)\n"
      (Tune.label ~dims optp) t
  | None -> print_endline "  best opt+ configuration: none could be built"

(* ---- §4.2 scaling with domain count ---- *)

let scaling ~cls ~cycles ~reps () =
  Printf.printf "\n=== Scaling with domain count (§4.2) ===\n";
  List.iter
    (fun (dims, shape, sm) ->
      let cfg = Cycle.default ~dims ~shape ~smoothing:sm in
      let n = Problem.class_n ~dims cls in
      Printf.printf "\n%s class %s (N=%d)\n" (Cycle.bench_name cfg)
        (Problem.cls_name cls) n;
      Printf.printf "  %-8s %14s %14s\n" "domains" "naive (s/cy)" "opt+ (s/cy)";
      List.iter
        (fun domains ->
          let t name opts =
            match
              Harness.run_benchmark ~domains ~cycles ~reps cfg ~n
                ~variants:[ Harness.polymg_variant name opts ]
            with
            | [ (_, t) ] -> t
            | _ -> assert false
          in
          Printf.printf "  %-8d %14.4f %14.4f\n" domains
            (t "naive" Options.naive)
            (t "opt+" Options.opt_plus))
        [ 1; 2; 4 ])
    [ (2, Cycle.W, (10, 0, 0)); (3, Cycle.V, (4, 4, 4)) ]
