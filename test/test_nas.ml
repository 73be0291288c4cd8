open Repro_nas
open Repro_core
open Repro_mg
module Grid = Repro_grid.Grid
module Telemetry = Repro_runtime.Telemetry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-12))

let test_randlc_range_deterministic () =
  let a = 5.0 ** 13.0 in
  let s1 = ref 314159265.0 and s2 = ref 314159265.0 in
  for _ = 1 to 100 do
    let x = Nas_problem.randlc ~seed:s1 ~a in
    check_bool "in (0,1)" true (x > 0.0 && x < 1.0)
  done;
  for _ = 1 to 100 do
    ignore (Nas_problem.randlc ~seed:s2 ~a)
  done;
  check_float "deterministic" !s1 !s2

let test_randlc_known_first_value () =
  (* x1 = 5^13 * 314159265 mod 2^46, checked against exact integer math *)
  let seed = ref 314159265.0 in
  let x = Nas_problem.randlc ~seed ~a:(5.0 ** 13.0) in
  let expect =
    Int64.to_float
      (Int64.rem
         (Int64.mul 1220703125L 314159265L)
         (Int64.shift_left 1L 46))
    /. (2.0 ** 46.0)
  in
  check_float "first deviate" expect x

let test_setup_charges () =
  let p = Nas_problem.setup ~cls:Nas_coeffs.S in
  let pos = ref 0 and neg = ref 0 and sum = ref 0.0 in
  Grid.iter_interior p.Nas_problem.v ~f:(fun _ v ->
      sum := !sum +. v;
      if v = 1.0 then incr pos else if v = -1.0 then incr neg
      else if v <> 0.0 then Alcotest.fail "unexpected value");
  check_int "ten positive" 10 !pos;
  check_int "ten negative" 10 !neg;
  check_float "balanced" 0.0 !sum;
  check_float "zero guess" 0.0 (Repro_grid.Norms.linf p.Nas_problem.u)

let test_coeffs () =
  check_float "a0" (-8.0 /. 3.0) Nas_coeffs.a.(0);
  check_float "smoother class S" (-3.0 /. 8.0) (Nas_coeffs.c Nas_coeffs.S).(0);
  check_float "smoother class C" (-3.0 /. 17.0) (Nas_coeffs.c Nas_coeffs.C).(0);
  check_int "levels 256" 8 (Nas_coeffs.levels_for 256);
  check_bool "levels rejects non-pow2" true
    (try ignore (Nas_coeffs.levels_for 48); false
     with Invalid_argument _ -> true)

let test_weights27_structure () =
  let w = Nas_coeffs.weights27 [| 1.0; 0.5; 0.25; 0.125 |] in
  let terms = Repro_ir.Weights.terms w in
  check_int "27 terms" 27 (List.length terms);
  List.iter
    (fun (off, v) ->
      let d = Array.fold_left (fun a o -> a + abs o) 0 off in
      check_float "weight by distance" (1.0 /. (2.0 ** float_of_int d)) v)
    terms

let test_weights27_zero_corner_dropped () =
  let w = Nas_coeffs.weights27 (Nas_coeffs.c Nas_coeffs.S) in
  check_int "19 nonzero" 19 (List.length (Repro_ir.Weights.terms w))

let test_pipeline_stage_count () =
  (* 4·lt − 1 stages: resid + (lt−1) rprj3 + coarse psinv +
     (lt−1)·(interp, resid, psinv) + finest correct *)
  let p = Nas_pipeline.build ~cls:Nas_coeffs.S in
  let lt = Nas_coeffs.levels_for (Nas_coeffs.problem_n Nas_coeffs.S) in
  check_int "stages" ((4 * lt) - 1) (Repro_ir.Pipeline.stage_count p)

let nas_solver ~cls stepper ~iters =
  let prob = Nas_problem.setup ~cls in
  let problem =
    { Problem.dims = 3; n = prob.Nas_problem.n;
      v = prob.Nas_problem.u; f = prob.Nas_problem.v;
      exact = (fun _ -> 0.0) }
  in
  let r = Solver.iterate stepper ~problem ~cycles:iters ~residuals:false () in
  (r.Solver.v, prob)

(* The NAS pipeline runs through Solver.plan_stepper, so [backend =
   Native] must compile it, not silently interpret: the compiled leg
   must advance native.kernel_calls. *)
let c_kernel_calls = Telemetry.counter "native.kernel_calls"

let test_dsl_matches_reference () =
  let cls = Nas_coeffs.S in
  Exec.with_runtime @@ fun rt ->
  let u_ref, _ =
    nas_solver ~cls (Nas_ref.stepper (Nas_ref.create ~cls ~par:rt.Exec.par))
      ~iters:3
  in
  let check name opts =
    let u, _ = nas_solver ~cls (Nas_pipeline.stepper ~cls ~opts ~rt) ~iters:3 in
    let d = Grid.max_abs_diff u u_ref in
    check_bool (Printf.sprintf "%s diff %g" name d) true (d < 1e-13)
  in
  List.iter
    (fun (name, opts) -> check name opts)
    [ ("naive", Options.naive); ("opt", Options.opt);
      ("opt+", Options.opt_plus) ];
  match Native.cc () with
  | None -> Printf.printf "opt+/native: skipped (no C compiler found)\n%!"
  | Some _ ->
    Telemetry.set_enabled true;
    Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) @@ fun () ->
    let calls = Telemetry.value c_kernel_calls in
    check "opt+/native" { Options.opt_plus with Options.backend = Native };
    check_bool "native.kernel_calls advanced" true
      (Telemetry.value c_kernel_calls > calls)

let test_residual_decreases () =
  let cls = Nas_coeffs.S in
  let rt = Exec.runtime () in
  let u, prob =
    nas_solver ~cls (Nas_pipeline.stepper ~cls ~opts:Options.opt_plus ~rt)
      ~iters:4
  in
  Exec.free_runtime rt;
  let r0 = Repro_grid.Norms.l2 prob.Nas_problem.v in
  let r4 = Nas_ref.residual_l2 ~u ~v:prob.Nas_problem.v in
  check_bool
    (Printf.sprintf "r0=%.3e r4=%.3e" r0 r4)
    true
    (r4 < 0.01 *. r0)

let test_params_rejects () =
  check_bool "raises" true
    (try ignore (Nas_pipeline.params ~cls:Nas_coeffs.S "x"); false
     with Invalid_argument _ -> true)

let test_cls_parsing () =
  check_bool "parse C" true (Nas_coeffs.cls_of_string "C" = Some Nas_coeffs.C);
  check_bool "bad" true (Nas_coeffs.cls_of_string "Z" = None);
  check_int "iterations B" 20 (Nas_coeffs.iterations Nas_coeffs.B)

let () =
  Alcotest.run "nas"
    [ ( "randlc",
        [ Alcotest.test_case "range/deterministic" `Quick
            test_randlc_range_deterministic;
          Alcotest.test_case "first value exact" `Quick
            test_randlc_known_first_value ] );
      ( "setup",
        [ Alcotest.test_case "charges" `Quick test_setup_charges;
          Alcotest.test_case "coefficients" `Quick test_coeffs;
          Alcotest.test_case "weights27" `Quick test_weights27_structure;
          Alcotest.test_case "zero corners dropped" `Quick
            test_weights27_zero_corner_dropped;
          Alcotest.test_case "class parsing" `Quick test_cls_parsing ] );
      ( "pipeline",
        [ Alcotest.test_case "stage count" `Quick test_pipeline_stage_count;
          Alcotest.test_case "dsl == reference" `Quick test_dsl_matches_reference;
          Alcotest.test_case "residual decreases" `Quick test_residual_decreases;
          Alcotest.test_case "params rejects" `Quick test_params_rejects ] ) ]
