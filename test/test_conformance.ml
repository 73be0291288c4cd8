(* Conformance harness unit tests: the rectangular Verify regression, MMS
   order arithmetic, a quick differential-oracle case, and emitted-C
   run-equivalence on a real cycle plan (skipped visibly when no C
   compiler is installed). *)

open Repro_mg
open Repro_core
module Grid = Repro_grid.Grid

(* -- Verify on rectangular interiors (regression: it silently assumed
   square grids, looping interior_size in every dimension) -------------- *)

let test_verify_rectangular () =
  let n = 8 in
  (* 3 x 5 interior: v = x(1-x)y(1-y) scaled, f = A v computed by hand *)
  let g = Grid.create [| 5; 7 |] in
  Grid.fill_interior g ~f:(fun idx ->
      float_of_int ((idx.(0) * 10) + idx.(1)));
  let out = Grid.create [| 5; 7 |] in
  Verify.apply_poisson ~n ~v:g ~out;
  let invhsq = float_of_int (n * n) in
  (* check an interior point against the 5-point formula, including one
     adjacent to the long edge (j = 5) that the square assumption would
     have skipped or read out of range *)
  List.iter
    (fun (i, j) ->
      let c = Grid.get2 g i j in
      let expect =
        invhsq
        *. ((4.0 *. c) -. Grid.get2 g (i - 1) j -. Grid.get2 g (i + 1) j
           -. Grid.get2 g i (j - 1) -. Grid.get2 g i (j + 1))
      in
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "A v at (%d,%d)" i j)
        expect (Grid.get2 out i j))
    [ (1, 1); (2, 3); (3, 5); (1, 5) ];
  (* error_l2 must cover all 15 interior points, not 9 *)
  let err = Verify.error_l2 ~v:g ~exact:(fun _ -> 0.0) in
  let sum = ref 0.0 in
  Grid.iter_interior g ~f:(fun _ x -> sum := !sum +. (x *. x));
  Alcotest.(check (float 1e-9))
    "error_l2 covers the rectangular interior"
    (sqrt (!sum /. 15.0))
    err

let test_verify_no_interior_rejected () =
  let g = Grid.create [| 2; 4 |] in
  let out = Grid.create [| 2; 4 |] in
  Alcotest.check_raises "no-interior grid rejected"
    (Invalid_argument "Verify: extent 2 leaves no interior") (fun () ->
      Verify.apply_poisson ~n:4 ~v:g ~out)

(* -- MMS order arithmetic --------------------------------------------- *)

let test_observed_order () =
  (* synthetic second-order decay: e = c / n^2 *)
  let samples = List.map (fun n -> (n, 3.0 /. float_of_int (n * n))) [ 8; 16; 32 ] in
  Alcotest.(check (float 1e-9)) "order of n^-2 data" 2.0
    (Verify.observed_order samples);
  let first_order = List.map (fun n -> (n, 1.0 /. float_of_int n)) [ 8; 16; 32 ] in
  Alcotest.(check (float 1e-9)) "order of n^-1 data" 1.0
    (Verify.observed_order first_order)

(* -- fill_val is stable (every native pair's cycle 0 depends on it) ---- *)

let test_fill_val () =
  (* an accidental change to the FNV fill breaks this test rather than
     silently changing every native pair's report *)
  let v = Conformance.fill_val ~input:0 [| 1; 1 |] in
  Alcotest.(check bool) "in range" true (v >= -0.5 && v < 0.5);
  Alcotest.(check (float 0.0))
    "deterministic" v
    (Conformance.fill_val ~input:0 [| 1; 1 |]);
  Alcotest.(check bool) "input index matters" true
    (Conformance.fill_val ~input:1 [| 1; 1 |] <> v);
  Alcotest.(check bool) "position matters" true
    (Conformance.fill_val ~input:0 [| 1; 2 |] <> v)

(* -- grid_diff is NaN-aware: an exact gate must pass identical outputs - *)

let point_diff a b =
  let grid x =
    let g = Grid.create [| 1 |] in
    Repro_grid.Buf.set g.Grid.buf 0 x;
    g
  in
  (Conformance.grid_diff (grid a) (grid b)).Conformance.max_abs

let test_diff_nan_aware () =
  let check name expect a b =
    Alcotest.(check (float 0.0)) name expect (point_diff a b)
  in
  check "equal +inf" 0.0 infinity infinity;
  check "equal -inf" 0.0 neg_infinity neg_infinity;
  check "NaN vs NaN" 0.0 Float.nan Float.nan;
  check "NaN vs 1.0" infinity Float.nan 1.0;
  check "1.0 vs NaN" infinity 1.0 Float.nan;
  check "-0.0 vs 0.0" 0.0 (-0.0) 0.0;
  check "+inf vs -inf" infinity infinity neg_infinity;
  check "one ulp" (Float.succ 1.0 -. 1.0) 1.0 (Float.succ 1.0)

(* -- quick differential oracle case ------------------------------------ *)

let test_oracle_quick () =
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
  let case = Conformance.oracle_case ~quick:true cfg ~n:32 ~cycles:2 () in
  if not (Conformance.case_pass case) then
    Alcotest.failf "oracle case failed:@\n%a" Conformance.pp_case case

(* -- emitted-C run-equivalence: a native pair's cycle 0 ---------------- *)

let c_equiv_for opts name () =
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
  let plan = Solver.polymg_plan cfg ~n:32 ~opts in
  if not (Native.available ()) then begin
    Printf.printf "%s skipped: no C compiler found (tried gcc, cc)\n%!" name;
    Alcotest.skip ()
  end;
  let inputs, outputs = Conformance.fill_io plan in
  match Conformance.vs_native plan ~inputs ~outputs with
  | Ok d when d.Conformance.max_abs <= Conformance.default_budgets.vs_c -> ()
  | Ok d ->
    Alcotest.failf "%s: max_abs=%.3e max_ulp=%.1e" name d.Conformance.max_abs
      d.Conformance.max_ulp
  | Error e -> Alcotest.failf "%s: %s" name e

let () =
  Alcotest.run "conformance"
    [ ( "verify",
        [ Alcotest.test_case "rectangular interiors" `Quick
            test_verify_rectangular;
          Alcotest.test_case "no-interior rejected" `Quick
            test_verify_no_interior_rejected;
          Alcotest.test_case "observed order" `Quick test_observed_order ] );
      ( "fill",
        [ Alcotest.test_case "deterministic fill" `Quick test_fill_val ] );
      ( "diff",
        [ Alcotest.test_case "NaN-aware" `Quick test_diff_nan_aware ] );
      ( "oracle",
        [ Alcotest.test_case "quick 2D V case" `Quick test_oracle_quick ] );
      ( "c-equivalence",
        [ Alcotest.test_case "naive plan" `Quick
            (c_equiv_for Options.naive "naive");
          Alcotest.test_case "opt+ plan" `Quick
            (c_equiv_for Options.opt_plus "opt+");
          Alcotest.test_case "dtile-opt+ plan" `Quick
            (c_equiv_for Options.dtile_opt_plus "dtile-opt+") ] ) ]
