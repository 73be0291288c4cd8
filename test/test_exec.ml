open Repro_core
open Repro_mg
module Grid = Repro_grid.Grid
module Mempool = Repro_runtime.Mempool

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let run_variant ?(domains = 1) ?(cycles = 2) ?(n = 32) cfg opts =
  let rt = Exec.runtime ~domains () in
  let problem = Problem.poisson ~dims:cfg.Cycle.dims ~n in
  let stepper = Solver.polymg_stepper cfg ~n ~opts ~rt in
  let r = Solver.iterate stepper ~problem ~cycles ~residuals:false () in
  let stats = Mempool.stats rt.Exec.pool in
  Exec.free_runtime rt;
  (r.Solver.v, stats)

let assert_equal_grids msg a b =
  let d = Grid.max_abs_diff a b in
  if d > 1e-12 then Alcotest.failf "%s: max diff %g" msg d

let all_variants =
  [ ("naive", Options.naive); ("opt", Options.opt);
    ("opt+", Options.opt_plus); ("dtile-opt+", Options.dtile_opt_plus) ]

let configs =
  [ Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4);
    Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(10, 0, 0);
    Cycle.default ~dims:2 ~shape:Cycle.W ~smoothing:(4, 4, 4);
    Cycle.default ~dims:2 ~shape:Cycle.W ~smoothing:(10, 0, 0);
    Cycle.default ~dims:3 ~shape:Cycle.V ~smoothing:(4, 4, 4);
    Cycle.default ~dims:3 ~shape:Cycle.W ~smoothing:(2, 1, 3);
    Cycle.default ~dims:2 ~shape:Cycle.F ~smoothing:(2, 2, 2) ]

let test_variants_agree cfg () =
  let n = if cfg.Cycle.dims = 2 then 32 else 16 in
  let reference, _ = run_variant ~n cfg Options.naive in
  List.iter
    (fun (name, opts) ->
      let v, _ = run_variant ~n cfg opts in
      assert_equal_grids name reference v)
    (List.tl all_variants)

let test_domains_agree () =
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
  let reference, _ = run_variant ~domains:1 cfg Options.opt_plus in
  List.iter
    (fun domains ->
      let v, _ = run_variant ~domains cfg Options.opt_plus in
      assert_equal_grids (Printf.sprintf "%d domains" domains) reference v)
    [ 2; 3; 4 ]

let test_domains_agree_diamond () =
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(10, 0, 0) in
  let reference, _ = run_variant ~domains:1 cfg Options.dtile_opt_plus in
  let v, _ = run_variant ~domains:3 cfg Options.dtile_opt_plus in
  assert_equal_grids "diamond parallel" reference v

let test_tile_sizes_dont_change_results () =
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
  let reference, _ = run_variant cfg Options.naive in
  List.iter
    (fun (t0, t1) ->
      let opts =
        Options.with_tiles Options.opt_plus ~t2:[| t0; t1 |] ~t3:[| 4; 4; 16 |]
      in
      let v, _ = run_variant cfg opts in
      assert_equal_grids (Printf.sprintf "tiles %dx%d" t0 t1) reference v)
    [ (4, 4); (8, 64); (16, 7); (64, 512); (3, 5) ]

let test_sigma_doesnt_change_results () =
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(10, 0, 0) in
  let reference, _ = run_variant cfg Options.naive in
  List.iter
    (fun sigma ->
      let opts =
        { Options.opt_plus with
          Options.smoother = Options.Diamond_smoother { sigma } }
      in
      let v, _ = run_variant cfg opts in
      assert_equal_grids (Printf.sprintf "sigma %d" sigma) reference v)
    [ 2; 4; 7; 16; 64 ]

let test_group_limit_doesnt_change_results () =
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.W ~smoothing:(4, 4, 4) in
  let reference, _ = run_variant cfg Options.naive in
  List.iter
    (fun limit ->
      let opts = { Options.opt_plus with Options.group_size_limit = limit } in
      let v, _ = run_variant cfg opts in
      assert_equal_grids (Printf.sprintf "limit %d" limit) reference v)
    [ 1; 2; 4; 10 ]

let test_pool_reused_across_cycles () =
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
  let _, stats = run_variant ~cycles:5 cfg Options.opt_plus in
  check_bool "pool hits" true (stats.Mempool.reuse_hits > 0);
  (* fresh allocations happen only in the first cycle: five cycles must
     not allocate five times the arrays *)
  check_bool "fresh bounded" true
    (stats.Mempool.fresh_allocs * 4 <= stats.Mempool.reuse_hits)

let test_input_not_modified () =
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
  let n = 32 in
  let problem = Problem.poisson ~dims:2 ~n in
  let v0 = Grid.copy problem.Problem.v in
  let f0 = Grid.copy problem.Problem.f in
  let rt = Exec.runtime () in
  let stepper = Solver.polymg_stepper cfg ~n ~opts:Options.opt_plus ~rt in
  let out = Grid.create (Grid.extents problem.Problem.v) in
  stepper ~v:problem.Problem.v ~f:problem.Problem.f ~out;
  Exec.free_runtime rt;
  assert_equal_grids "v untouched" v0 problem.Problem.v;
  assert_equal_grids "f untouched" f0 problem.Problem.f

let test_wrong_extents_rejected () =
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
  let n = 32 in
  let rt = Exec.runtime () in
  let stepper = Solver.polymg_stepper cfg ~n ~opts:Options.naive ~rt in
  let good = Grid.interior ~dims:2 (n - 1) in
  let bad = Grid.interior ~dims:2 n in
  check_bool "raises" true
    (try
       stepper ~v:bad ~f:good ~out:(Grid.copy good);
       false
     with Invalid_argument _ -> true);
  Exec.free_runtime rt

let test_points_computed_redundancy () =
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
  let n = 32 in
  let params = Cycle.params cfg ~n in
  let p = Cycle.build cfg in
  let naive = Plan.build p ~opts:Options.naive ~n ~params in
  let fused = Plan.build p ~opts:Options.opt_plus ~n ~params in
  (* overlapped tiling recomputes: fused plans evaluate at least as many
     points as the naive plan *)
  check_bool "redundancy >= 0" true
    (Exec.points_computed fused >= Exec.points_computed naive);
  check_bool "positive" true (Exec.points_computed naive > 0)

let test_repeated_execution_deterministic () =
  let cfg = Cycle.default ~dims:3 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
  let a, _ = run_variant ~n:16 cfg Options.opt_plus in
  let b, _ = run_variant ~n:16 cfg Options.opt_plus in
  assert_equal_grids "deterministic" a b

let test_missing_input_rejected () =
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(2, 2, 2) in
  let n = 32 in
  let p = Cycle.build cfg in
  let plan = Plan.build p ~opts:Options.naive ~n ~params:(Cycle.params cfg ~n) in
  let rt = Exec.runtime () in
  let g = Grid.interior ~dims:2 (n - 1) in
  check_bool "raises" true
    (try
       Exec.run plan rt ~inputs:[] ~outputs:[ (Cycle.output p, g) ];
       false
     with Invalid_argument _ -> true);
  Exec.free_runtime rt;
  check_int "sanity" 2 (Grid.dims g)

(* Govern's footprint model bounds the interpreter's pool when a free
   buffer may serve a shorter request.  Each stage its own group, no
   array reuse: A (33x33 with ghosts) dies after B, so C (29x29) takes
   its buffer, and D's fresh buffer then brings the live bytes to
   B + A's buffer + D, past the windowed sum of the requested lengths
   (B + C + D).  The model counts C at A's length, so the pool's peak
   stays within it, and a pool budgeted at it never overruns. *)
let test_model_bounds_pool () =
  let module Dsl = Repro_ir.Dsl in
  let module Expr = Repro_ir.Expr in
  let module Func = Repro_ir.Func in
  let sz k = Repro_ir.Sizeexpr.add_const Repro_ir.Sizeexpr.n k in
  let ctx = Dsl.create "held" in
  let input = Dsl.grid ctx "IN" ~dims:2 ~sizes:[| sz (-1); sz (-1) |] in
  let ld (f : Func.t) = Expr.load f.Func.id [| 0; 0 |] in
  let stage name k e = Dsl.func ctx ~name ~sizes:[| sz k; sz k |] e in
  let a = stage "A" (-1) Expr.(const 0.5 * ld input) in
  let b = stage "B" (-1) Expr.(const 0.5 * ld a) in
  let c = stage "C" (-5) Expr.(const 0.5 * ld b) in
  let d = stage "D" (-5) Expr.(ld c + ld b) in
  let e = stage "E" (-5) Expr.(const 2.0 * ld d) in
  let p = Dsl.finish ctx ~outputs:[ e ] in
  let n = 32 in
  let opts =
    { Options.opt_plus with Options.group_size_limit = 1; array_reuse = false }
  in
  let rung =
    match Govern.decide p ~opts ~n ~params:(fun s -> invalid_arg s) with
    | Ok r -> r.Govern.ladder.(0)
    | Error _ -> Alcotest.fail "no budget is never infeasible"
  in
  let model = rung.Govern.pool_peak_bytes in
  let peak budget =
    let inputs = [ (input.Func.id, Grid.interior ~dims:2 (n - 1)) ] in
    let outputs = [ (e.Func.id, Grid.interior ~dims:2 (n - 5)) ] in
    let rt = Exec.runtime () in
    Mempool.set_budget rt.Exec.pool budget;
    for _ = 1 to 2 do
      Exec.run rung.Govern.plan rt ~inputs ~outputs
    done;
    let s = Mempool.stats rt.Exec.pool in
    Exec.free_runtime rt;
    s.Mempool.peak_live_bytes
  in
  let unbudgeted = peak None in
  check_bool
    (Printf.sprintf "live peak %d B exceeds the requested lengths' sum"
       unbudgeted)
    true
    (unbudgeted > 8 * ((33 * 33) + (29 * 29) + (29 * 29)));
  check_bool
    (Printf.sprintf "live peak %d B within the model's %d B" unbudgeted model)
    true (unbudgeted <= model);
  check_int "budgeted at the model: the same peak" unbudgeted
    (peak (Some model))

let () =
  let agree_cases =
    List.map
      (fun cfg ->
        Alcotest.test_case (Cycle.bench_name cfg) `Quick
          (test_variants_agree cfg))
      configs
  in
  Alcotest.run "exec"
    [ ("variants agree with naive", agree_cases);
      ( "parallel",
        [ Alcotest.test_case "domains agree" `Quick test_domains_agree;
          Alcotest.test_case "diamond domains agree" `Quick
            test_domains_agree_diamond ] );
      ( "configuration invariance",
        [ Alcotest.test_case "tile sizes" `Quick test_tile_sizes_dont_change_results;
          Alcotest.test_case "sigma" `Quick test_sigma_doesnt_change_results;
          Alcotest.test_case "group limit" `Quick
            test_group_limit_doesnt_change_results ] );
      ( "runtime behaviour",
        [ Alcotest.test_case "pool reuse across cycles" `Quick
            test_pool_reused_across_cycles;
          Alcotest.test_case "inputs not modified" `Quick test_input_not_modified;
          Alcotest.test_case "wrong extents" `Quick test_wrong_extents_rejected;
          Alcotest.test_case "points computed" `Quick test_points_computed_redundancy;
          Alcotest.test_case "deterministic" `Quick
            test_repeated_execution_deterministic;
          Alcotest.test_case "missing input" `Quick test_missing_input_rejected;
          Alcotest.test_case "the footprint model bounds the pool" `Quick
            test_model_bounds_pool ] ) ]
