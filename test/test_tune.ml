(* The §3.2.4 tuner: its search space, its failure handling and its pick.
   No test compares timings. *)

open Repro_core
open Repro_mg
module Mempool = Repro_runtime.Mempool

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let tile = Alcotest.(array int)
let check_tile = Alcotest.check tile

let test_tiles () =
  let t2 = Tune.tiles ~dims:2 and t3 = Tune.tiles ~dims:3 in
  check_int "2-D tiles" 16 (List.length t2);
  check_int "3-D tiles" 27 (List.length t3);
  check_tile "2-D first" [| 8; 64 |] (List.hd t2);
  check_tile "2-D second" [| 8; 128 |] (List.nth t2 1);
  check_tile "2-D last" [| 64; 512 |] (List.nth t2 15);
  check_tile "3-D first" [| 8; 8; 64 |] (List.hd t3);
  check_tile "3-D last" [| 32; 32; 256 |] (List.nth t3 26);
  check_bool "dims 4 rejected" true
    (try ignore (Tune.tiles ~dims:4); false with Invalid_argument _ -> true)

let test_space () =
  let base = Options.opt_plus in
  let s2 = Tune.space base ~dims:2 ~limits:[ 6; 1 ] in
  check_int "limits x tiles" 32 (List.length s2);
  List.iteri
    (fun i (o : Options.t) ->
      check_int "limits outermost"
        (if i < 16 then 6 else 1)
        o.Options.group_size_limit;
      check_tile "2-D tile" (List.nth (Tune.tiles ~dims:2) (i mod 16))
        o.Options.tile_2d;
      check_tile "3-D tile untouched" base.Options.tile_3d o.Options.tile_3d)
    s2;
  let s3 = Tune.space base ~dims:3 ~limits:[ 3 ] in
  check_int "3-D space" 27 (List.length s3);
  List.iter
    (fun (o : Options.t) ->
      check_tile "2-D tile untouched" base.Options.tile_2d o.Options.tile_2d)
    s3;
  Alcotest.(check string)
    "label" "limit=3 tile=8x8x64"
    (Tune.label ~dims:3 (List.hd s3))

let test_time () =
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
  let n = 32 in
  let problem = Problem.poisson_random ~dims:2 ~n ~seed:1 in
  let make opts ~rt = Solver.polymg_stepper cfg ~n ~opts ~rt in
  (match Tune.time ~make problem Options.opt_plus with
   | Some t -> check_bool "finite positive time" true (Float.is_finite t && t > 0.0)
   | None -> Alcotest.fail "a buildable configuration was not measured");
  let refuse _ ~rt:_ = invalid_arg "no plan at this size" in
  check_bool "unbuildable is None" true
    (Tune.time ~make:refuse problem Options.opt_plus = None);
  let fail_after_run opts ~rt =
    let stepper = make opts ~rt in
    fun ~v ~f ~out ->
      stepper ~v ~f ~out;
      invalid_arg "size rejected mid-run"
  in
  check_bool "failing run is None" true
    (Tune.time ~make:fail_after_run problem Options.opt_plus = None);
  check_int "pools quiescent" 0 (Mempool.assert_quiescent ())

let test_best () =
  check_bool "nothing measured" true (Tune.best [ ("a", None) ] = None);
  check_bool "empty" true (Tune.best [] = None);
  check_bool "minimum" true
    (Tune.best [ ("a", Some 3.0); ("b", None); ("c", Some 1.0); ("d", Some 2.0) ]
     = Some ("c", 1.0));
  check_bool "first on ties" true
    (Tune.best [ ("a", Some 2.0); ("b", Some 1.0); ("c", Some 1.0) ]
     = Some ("b", 1.0))

let () =
  Alcotest.run "tune"
    [ ( "tune",
        [ Alcotest.test_case "tiles" `Quick test_tiles;
          Alcotest.test_case "space" `Quick test_space;
          Alcotest.test_case "time" `Quick test_time;
          Alcotest.test_case "best" `Quick test_best ] ) ]
