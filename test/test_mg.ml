open Repro_ir
open Repro_core
open Repro_mg
module Grid = Repro_grid.Grid

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* Table 3 stage counts, reproduced exactly *)
let test_stage_counts_table3 () =
  List.iter
    (fun (dims, shape, sm, expect) ->
      let cfg = Cycle.default ~dims ~shape ~smoothing:sm in
      check_int
        (Cycle.bench_name cfg)
        expect
        (Pipeline.stage_count (Cycle.build cfg)))
    [ (2, Cycle.V, (4, 4, 4), 40);
      (2, Cycle.V, (10, 0, 0), 42);
      (2, Cycle.W, (4, 4, 4), 100);
      (2, Cycle.W, (10, 0, 0), 98);
      (3, Cycle.V, (4, 4, 4), 40);
      (3, Cycle.V, (10, 0, 0), 42);
      (3, Cycle.W, (4, 4, 4), 100);
      (3, Cycle.W, (10, 0, 0), 98) ]

let test_min_n () =
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
  check_int "4 levels" 16 (Cycle.min_n cfg);
  check_int "6 levels" 64 (Cycle.min_n { cfg with Cycle.levels = 6 });
  check_int "8 levels" 256 (Cycle.min_n { cfg with Cycle.levels = 8 })

let test_params () =
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
  let p = Cycle.params cfg ~n:64 in
  check_float "invhsq finest" 4096.0 (p "invhsq_L3");
  check_float "invhsq coarsest" 64.0 (p "invhsq_L0");
  check_float "weight" (0.8 /. (4.0 *. 4096.0)) (p "w_L3");
  check_bool "unknown rejected" true
    (try ignore (p "bogus"); false with Invalid_argument _ -> true)

let test_params_divisibility () =
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
  check_bool "raises" true
    (try ignore (Cycle.params cfg ~n:36 "invhsq_L0"); false
     with Invalid_argument _ -> true)

let test_zero_smoothing_cycle () =
  (* with no smoothing anywhere the cycle degenerates to a pass-through:
     all coarse corrections are zero, so one cycle returns v unchanged *)
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(0, 0, 0) in
  let p = Cycle.build cfg in
  check_bool "builds" true (Pipeline.stage_count p > 0);
  let n = 32 in
  let problem = Problem.poisson ~dims:2 ~n in
  Grid.fill_interior problem.Problem.v ~f:(fun idx -> float_of_int idx.(0));
  let rt = Exec.runtime () in
  let stepper = Solver.polymg_stepper cfg ~n ~opts:Options.naive ~rt in
  let out = Grid.create (Grid.extents problem.Problem.v) in
  stepper ~v:problem.Problem.v ~f:problem.Problem.f ~out;
  Exec.free_runtime rt;
  check_bool "pass-through" true
    (Grid.max_abs_diff out problem.Problem.v < 1e-14)

let test_inputs_outputs () =
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
  let p = Cycle.build cfg in
  check_bool "v != f" true (Cycle.input_v p <> Cycle.input_f p);
  check_bool "output not input" true
    (not (Func.is_input (Pipeline.func p (Cycle.output p))))

(* convergence *)

let residual_factor cfg ~n ~cycles =
  let r = Solver.solve cfg ~n ~opts:Options.opt_plus ~cycles () in
  let rs = List.map (fun s -> s.Solver.residual) r.Solver.stats in
  match rs with
  | first :: rest when cycles >= 2 ->
    let last = List.nth rest (List.length rest - 1) in
    (last /. first) ** (1.0 /. float_of_int (cycles - 1))
  | _ -> Alcotest.fail "need >= 2 cycles"

let test_vcycle_converges_2d () =
  let cfg =
    { (Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4)) with
      Cycle.levels = 6 }
  in
  let rho = residual_factor cfg ~n:64 ~cycles:5 in
  check_bool (Printf.sprintf "V-cycle rate %.3f < 0.25" rho) true (rho < 0.25)

let test_wcycle_converges_faster () =
  let v =
    { (Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4)) with
      Cycle.levels = 6 }
  in
  let w = { v with Cycle.shape = Cycle.W } in
  let rv = residual_factor v ~n:64 ~cycles:4 in
  let rw = residual_factor w ~n:64 ~cycles:4 in
  check_bool (Printf.sprintf "W (%.4f) beats V (%.4f)" rw rv) true (rw < rv)

let test_fcycle_converges () =
  let cfg =
    { (Cycle.default ~dims:2 ~shape:Cycle.F ~smoothing:(2, 2, 2)) with
      Cycle.levels = 5 }
  in
  let rho = residual_factor cfg ~n:32 ~cycles:4 in
  check_bool (Printf.sprintf "F-cycle rate %.3f" rho) true (rho < 0.2)

let test_3d_converges () =
  let cfg =
    { (Cycle.default ~dims:3 ~shape:Cycle.V ~smoothing:(4, 4, 4)) with
      Cycle.levels = 4 }
  in
  let rho = residual_factor cfg ~n:32 ~cycles:4 in
  check_bool (Printf.sprintf "3D rate %.3f" rho) true (rho < 0.5)

let test_solution_approaches_exact () =
  (* after enough W-cycles the iterate reaches the discrete solution,
     whose distance to the continuous solution is O(h²) *)
  let cfg =
    { (Cycle.default ~dims:2 ~shape:Cycle.W ~smoothing:(4, 4, 4)) with
      Cycle.levels = 5 }
  in
  let solve n =
    let problem = Problem.poisson ~dims:2 ~n in
    let rt = Exec.runtime () in
    let stepper = Solver.polymg_stepper cfg ~n ~opts:Options.opt_plus ~rt in
    let r = Solver.iterate stepper ~problem ~cycles:12 ~residuals:false () in
    Exec.free_runtime rt;
    Verify.error_l2 ~v:r.Solver.v ~exact:problem.Problem.exact
  in
  let e32 = solve 32 and e64 = solve 64 in
  check_bool
    (Printf.sprintf "O(h^2): e32=%.2e e64=%.2e ratio=%.2f" e32 e64 (e32 /. e64))
    true
    (e32 /. e64 > 3.0 && e32 /. e64 < 5.0)

let test_handopt_matches_polymg () =
  List.iter
    (fun (dims, shape, sm) ->
      let cfg = Cycle.default ~dims ~shape ~smoothing:sm in
      let n = if dims = 2 then 32 else 16 in
      let problem = Problem.poisson ~dims ~n in
      let rt = Exec.runtime () in
      let s_poly = Solver.polymg_stepper cfg ~n ~opts:Options.opt_plus ~rt in
      let s_hand =
        Handopt.stepper (Handopt.create cfg ~n ~par:rt.Exec.par ())
      in
      let s_pluto =
        Handopt.stepper
          (Handopt.create cfg ~n ~par:rt.Exec.par
             ~smoothing:(Handopt.Pluto { sigma = 5 })
             ())
      in
      let run s = (Solver.iterate s ~problem ~cycles:3 ~residuals:false ()).Solver.v in
      let vp = run s_poly and vh = run s_hand and vd = run s_pluto in
      Exec.free_runtime rt;
      let d1 = Grid.max_abs_diff vp vh and d2 = Grid.max_abs_diff vp vd in
      check_bool
        (Printf.sprintf "%s handopt diff %g" (Cycle.bench_name cfg) d1)
        true (d1 < 1e-12);
      check_bool
        (Printf.sprintf "%s handpluto diff %g" (Cycle.bench_name cfg) d2)
        true (d2 < 1e-12))
    [ (2, Cycle.V, (4, 4, 4)); (2, Cycle.W, (10, 0, 0));
      (3, Cycle.V, (10, 0, 0)); (3, Cycle.W, (4, 4, 4));
      (2, Cycle.V, (3, 1, 2)) ]

let test_handopt_rejects_fcycle () =
  List.iter
    (fun (what, cfg) ->
      check_bool (what ^ " raises") true
        (try
           ignore
             (Handopt.create cfg ~n:32 ~par:Repro_runtime.Parallel.sequential ());
           false
         with Invalid_argument _ -> true))
    [ ("F-cycle", Cycle.default ~dims:2 ~shape:Cycle.F ~smoothing:(2, 2, 2));
      ( "GSRB",
        { (Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(2, 2, 2)) with
          Cycle.smoother = Cycle.Gsrb } ) ]

(* Health instruments Handopt: its finest residuals are Verify's norms of
   a plain sequential Handopt run's iterates, bit for bit, and a probe
   leaves the iterates bit-identical. *)
let test_health_matches_handopt () =
  let bits (g : Grid.t) =
    Array.map Int64.bits_of_float (Repro_grid.Buf.to_array g.Grid.buf)
  in
  List.iter
    (fun (dims, shape) ->
      let cfg = Cycle.default ~dims ~shape ~smoothing:(4, 4, 4) in
      let n = if dims = 2 then 32 else 16 and cycles = 4 in
      let problem = Problem.poisson_random ~dims ~n ~seed:5 in
      let f = problem.Problem.f in
      let iterates ?probe () =
        let step =
          Handopt.stepper
            (Handopt.create cfg ~n ~par:Repro_runtime.Parallel.sequential
               ?probe ())
        in
        let v = ref (Grid.copy problem.Problem.v) in
        List.init cycles (fun _ ->
            let out = Grid.copy !v in
            step ~v:!v ~f ~out;
            v := out;
            out)
      in
      let plain = iterates () in
      let probed = iterates ~probe:(fun ~level:_ _ _ _ -> ()) () in
      let h = Health.observe cfg ~n ~cycles ~problem () in
      let same what a b =
        check_bool
          (Printf.sprintf "%s %s" (Cycle.bench_name cfg) what)
          true
          (Int64.bits_of_float a = Int64.bits_of_float b)
      in
      same "residual0" h.Health.residual0
        (Verify.residual_l2 ~n ~v:problem.Problem.v ~f);
      List.iteri
        (fun c v ->
          same (Printf.sprintf "residual %d" (c + 1)) h.Health.residuals.(c)
            (Verify.residual_l2 ~n ~v ~f))
        plain;
      List.iter2
        (fun a b -> check_bool "probed iterate" true (bits a = bits b))
        plain probed)
    [ (2, Cycle.V); (2, Cycle.W); (3, Cycle.V) ]

let test_verify_residual_of_exact_discrete () =
  (* residual of f against A·v is zero when f = A·v by construction *)
  let n = 16 in
  let v = Grid.interior ~dims:2 (n - 1) in
  Grid.fill_interior v ~f:(fun idx ->
      sin (float_of_int idx.(0)) *. cos (float_of_int idx.(1)));
  let f = Grid.create (Grid.extents v) in
  Verify.apply_poisson ~n ~v ~out:f;
  check_float "zero residual" 0.0 (Verify.residual_l2 ~n ~v ~f)

(* The per-point formulation of [Verify] (bounds-checked [Grid.get2]/
   [get3] into a materialized [A_h v], summed by [Grid.iter_interior]),
   kept as the oracle the direct strided walks must match bit for bit. *)
let oracle_apply_poisson ~n ~v ~out =
  let invhsq = float_of_int (n * n) in
  let ext = Grid.extents v in
  match Array.length ext with
  | 2 ->
    for i = 1 to ext.(0) - 2 do
      for j = 1 to ext.(1) - 2 do
        let c = Grid.get2 v i j in
        let s =
          (4.0 *. c) -. Grid.get2 v (i - 1) j -. Grid.get2 v (i + 1) j
          -. Grid.get2 v i (j - 1) -. Grid.get2 v i (j + 1)
        in
        Grid.set2 out i j (invhsq *. s)
      done
    done
  | _ ->
    for i = 1 to ext.(0) - 2 do
      for j = 1 to ext.(1) - 2 do
        for k = 1 to ext.(2) - 2 do
          let c = Grid.get3 v i j k in
          let s =
            (6.0 *. c) -. Grid.get3 v (i - 1) j k -. Grid.get3 v (i + 1) j k
            -. Grid.get3 v i (j - 1) k -. Grid.get3 v i (j + 1) k
            -. Grid.get3 v i j (k - 1) -. Grid.get3 v i j (k + 1)
          in
          Grid.set3 out i j k (invhsq *. s)
        done
      done
    done

(* The residual's squares in [Verify]'s order: a point at column
   offset j of its row (j = 0 at the first interior column) adds into
   lane j mod 8, rows in row-major order, and the lanes are combined by
   the fixed tree ((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7)). *)
let oracle_residual_l2 ~n ~v ~f =
  let av = Grid.create (Grid.extents v) in
  oracle_apply_poisson ~n ~v ~out:av;
  let acc = Array.make 8 0.0 and count = ref 0 in
  let last = Array.length (Grid.extents v) - 1 in
  Grid.iter_interior f ~f:(fun idx fv ->
      let r = fv -. Grid.get av idx in
      let k = (idx.(last) - 1) mod 8 in
      acc.(k) <- acc.(k) +. (r *. r);
      incr count);
  let sum =
    acc.(0) +. acc.(1) +. (acc.(2) +. acc.(3))
    +. (acc.(4) +. acc.(5) +. (acc.(6) +. acc.(7)))
  in
  sqrt (sum /. float_of_int !count)

(* Same bits, or both NaN (NaN payloads are not part of the contract). *)
let same_float a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  || (Float.is_nan a && Float.is_nan b)

type walk_case = {
  wc_ext : int array;
  wc_n : int;
  wc_v : float array;
  wc_f : float array;
  wc_poison : (bool * int array * float) option;
      (* (into v?, point, NaN or ±∞) *)
}

(* how many of a point's coordinates are in the ghost layer *)
let ghost_coords ext idx =
  let g = ref 0 in
  Array.iteri (fun a i -> if i = 0 || i = ext.(a) - 1 then incr g) idx;
  !g

let print_walk_case c =
  Printf.sprintf "extents [%s], n %d%s"
    (String.concat "x" (Array.to_list (Array.map string_of_int c.wc_ext)))
    c.wc_n
    (match c.wc_poison with
     | None -> ""
     | Some (in_v, idx, x) ->
       Printf.sprintf ", %s point [%s] (%d ghost coordinates) := %h"
         (if in_v then "v" else "f")
         (String.concat "," (Array.to_list (Array.map string_of_int idx)))
         (ghost_coords c.wc_ext idx) x)

(* a point with exactly [ghosts] ghost coordinates: that many axes,
   drawn at random, at 0 or at their last index, the others interior *)
let point_gen ext ~ghosts =
  let open QCheck.Gen in
  let* axes = shuffle_l (List.init (Array.length ext) Fun.id) in
  let ghost_axes = List.filteri (fun k _ -> k < ghosts) axes in
  flatten_a
    (Array.mapi
       (fun a e ->
         if List.mem a ghost_axes then
           map (fun hi -> if hi then e - 1 else 0) bool
         else int_range 1 (e - 2))
       ext)

(* rectangular 2-D/3-D extents 3 .. 24 and 3 .. 19 (so 3-D rows also
   run whole groups of eight lanes plus a tail of every length), any n,
   values over ~40 binades and either sign; one case in two plants a
   NaN or ±∞ in v at a point with 0 .. rank ghost coordinates
   (interior, face, edge or corner), or in f at an interior point *)
let walk_case_gen =
  let open QCheck.Gen in
  let value =
    map3
      (fun neg m e -> (if neg then -1.0 else 1.0) *. ldexp (1.0 +. m) e)
      bool (float_bound_exclusive 1.0) (int_range (-20) 19)
  in
  let* dims = int_range 2 3 in
  let* ext = array_repeat dims (int_range 3 (if dims = 2 then 24 else 19)) in
  let points = Array.fold_left ( * ) 1 ext in
  let* wc_n = int_range 1 4096 in
  let* wc_v = array_repeat points value in
  let* wc_f = array_repeat points value in
  let* wc_poison =
    frequency
      [ (1, return None);
        ( 1,
          let* in_v = bool in
          let* ghosts = if in_v then int_range 0 dims else return 0 in
          let* idx = point_gen ext ~ghosts in
          let* x = oneofl [ Float.nan; Float.infinity; Float.neg_infinity ] in
          return (Some (in_v, idx, x)) ) ]
  in
  return { wc_ext = ext; wc_n; wc_v; wc_f; wc_poison }

let grid_of ext data =
  let g = Grid.create ext in
  Array.iteri (fun i x -> Repro_grid.Buf.set g.Grid.buf i x) data;
  g

(* The C walks against the OCaml oracle, bit for bit, the residual on
   every code path of its sum this host runs; and the guard's
   finiteness rule: the residual reads every point but the rim (points
   with ≥ 2 ghost coordinates), so "residual or rim not finite" holds
   exactly when some value of v or f is not finite. *)
let prop_walks_bit_identical =
  QCheck.Test.make ~count:300 ~long_factor:10
    ~name:"residual_l2/apply_poisson bit-identical to the per-point oracle"
    (QCheck.make ~print:print_walk_case walk_case_gen)
    (fun c ->
      let v = grid_of c.wc_ext c.wc_v and f = grid_of c.wc_ext c.wc_f in
      (match c.wc_poison with
       | Some (in_v, idx, x) -> Grid.set (if in_v then v else f) idx x
       | None -> ());
      let n = c.wc_n in
      (* out starts as a copy of f so untouched ghosts must match too *)
      let out = Grid.copy f and out_ref = Grid.copy f in
      Verify.apply_poisson ~n ~v ~out;
      oracle_apply_poisson ~n ~v ~out:out_ref;
      let ops_same = ref true in
      Repro_grid.Buf.iteri
        (fun i x ->
          if not (same_float x (Repro_grid.Buf.get out_ref.Grid.buf i)) then
            ops_same := false)
        out.Grid.buf;
      let r = Verify.residual_l2 ~n ~v ~f in
      let r_ref = oracle_residual_l2 ~n ~v ~f in
      let poison_ok =
        match c.wc_poison with
        | None -> Float.is_finite r
        | Some (_, idx, _) when ghost_coords c.wc_ext idx >= 2 ->
          Float.is_finite r
        | Some (_, _, x) when Float.is_nan x -> Float.is_nan r
        | Some _ -> not (Float.is_finite r)
      in
      let guard_rule = not (Float.is_finite r && Verify.rim_finite v) in
      let nonfinite g = Repro_grid.Buf.find_nonfinite g.Grid.buf <> None in
      let paths_same =
        List.for_all
          (fun (_, rp) -> same_float rp r_ref)
          (Verify.residual_l2_paths ~n ~v ~f)
      in
      !ops_same && same_float r r_ref && paths_same && poison_ok
      && guard_rule = (nonfinite v || nonfinite f))

let test_residual_rejects_mismatched_grids () =
  (* a 64² iterate against an 8² right-hand side used to return a
     residual over the 8² corner of the grid *)
  let v = Grid.interior ~dims:2 64 and f = Grid.interior ~dims:2 8 in
  Alcotest.check_raises "64² v against 8² f"
    (Invalid_argument "Verify.residual_l2: v and f extents differ") (fun () ->
      ignore (Verify.residual_l2 ~n:65 ~v ~f));
  Alcotest.check_raises "8² v against 64² f"
    (Invalid_argument "Verify.residual_l2: v and f extents differ") (fun () ->
      ignore (Verify.residual_l2 ~n:65 ~v:f ~f:v));
  Alcotest.check_raises "2-D v against 3-D f"
    (Invalid_argument "Verify.residual_l2: v and f extents differ") (fun () ->
      ignore
        (Verify.residual_l2 ~n:8 ~v:(Grid.interior ~dims:2 7)
           ~f:(Grid.interior ~dims:3 7)))

(* The guard calls residual_l2 after every cycle and Krylov
   apply_poisson every iteration: neither may allocate per point (the
   per-point formulation allocated ~1.1 M minor words at 258²). *)
let test_residual_allocation_free () =
  let residual ~n ~v ~f = ignore (Verify.residual_l2 ~n ~v ~f) in
  let apply ~n ~v ~f = Verify.apply_poisson ~n ~v ~out:f in
  List.iter
    (fun (name, dims, interior, op) ->
      let v = Grid.interior ~dims interior in
      Grid.fill_interior v ~f:(fun idx -> float_of_int (idx.(0) + idx.(1)));
      let f = Grid.copy v in
      let n = interior + 1 in
      op ~n ~v ~f;
      let w0 = Gc.minor_words () in
      op ~n ~v ~f;
      let words = Gc.minor_words () -. w0 in
      check_bool (name ^ ": residual finite") true
        (Float.is_finite (Verify.residual_l2 ~n ~v ~f));
      check_bool
        (Printf.sprintf "%s: %.0f minor words < 100" name words)
        true (words < 100.0))
    [ ("130² residual_l2", 2, 128, residual);
      ("34³ residual_l2", 3, 32, residual);
      ("34³ apply_poisson", 3, 32, apply) ]

let test_problem_classes () =
  check_int "2D B" 1024 (Problem.class_n ~dims:2 Problem.B);
  check_int "3D C" 256 (Problem.class_n ~dims:3 Problem.C);
  check_bool "parse" true (Problem.cls_of_string "b" = Some Problem.B);
  check_bool "bad" true (Problem.cls_of_string "x" = None)

let test_problem_rhs () =
  let p = Problem.poisson ~dims:2 ~n:16 in
  (* rhs of the manufactured solution is positive in the interior *)
  let mn = ref infinity in
  Grid.iter_interior p.Problem.f ~f:(fun _ v -> if v < !mn then mn := v);
  check_bool "positive rhs" true (!mn > 0.0);
  check_float "zero guess" 0.0 (Repro_grid.Norms.linf p.Problem.v)

let test_solver_iterate_swaps () =
  (* two cycles through iterate must equal two manual stepper calls *)
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(2, 2, 2) in
  let n = 32 in
  let problem = Problem.poisson ~dims:2 ~n in
  let rt = Exec.runtime () in
  let stepper = Solver.polymg_stepper cfg ~n ~opts:Options.naive ~rt in
  let r = Solver.iterate stepper ~problem ~cycles:2 ~residuals:false () in
  let a = Grid.copy problem.Problem.v in
  let b = Grid.create (Grid.extents a) in
  stepper ~v:a ~f:problem.Problem.f ~out:b;
  stepper ~v:b ~f:problem.Problem.f ~out:a;
  Exec.free_runtime rt;
  check_bool "same" true (Grid.max_abs_diff r.Solver.v a < 1e-14)

(* The right-hand side and exact solution of [Problem.poisson] against
   the per-point formula they replaced, bit for bit: [u] multiplies
   [sin (pi *. float i *. h)] over the index from 1.0, and [f] is
   [float dims *. pi *. pi *. u idx] inside, 0 on the ghosts. *)
let oracle_u ~n idx =
  let pi = 4.0 *. atan 1.0 and h = 1.0 /. float_of_int n in
  let acc = ref 1.0 in
  Array.iter (fun i -> acc := !acc *. sin (pi *. float_of_int i *. h)) idx;
  !acc

let prop_rhs_bit_identical =
  QCheck.Test.make ~count:40 ~long_factor:10
    ~name:"poisson: table-built f and exact equal the per-point formula"
    QCheck.(pair (int_range 2 3) (int_range 4 96))
    (fun (dims, n) ->
      let pi = 4.0 *. atan 1.0 in
      let p = Problem.poisson ~dims ~n in
      let ok = ref true in
      (* [fill_all] on a scratch grid visits every index, ghosts too *)
      Grid.fill_all (Grid.create (Grid.extents p.Problem.f)) ~f:(fun idx ->
          let inside = Array.for_all (fun i -> i >= 1 && i <= n - 1) idx in
          let want =
            if inside then float_of_int dims *. pi *. pi *. oracle_u ~n idx
            else 0.0
          in
          if not (same_float (Grid.get p.Problem.f idx) want) then ok := false;
          if not (same_float (p.Problem.exact idx) (oracle_u ~n idx)) then
            ok := false;
          0.0);
      !ok)

(* A released grid comes back from [create] zeroed and from [copy] equal
   to the source, as the same storage. *)
let test_reused_grid_fresh_contents () =
  let ext = [| 11; 13 |] in
  let g = Grid.create ext in
  Grid.fill g 7.5;
  Grid.release g;
  let z = Grid.create ext in
  check_bool "create took the released grid" true (z.Grid.buf == g.Grid.buf);
  check_float "create: all zeros" 0.0 (Repro_grid.Norms.linf z);
  let src = Grid.create ext in
  Grid.fill_all src ~f:(fun idx -> float_of_int ((idx.(0) * 17) + idx.(1)) /. 3.0);
  Grid.fill z Float.nan;
  Grid.release z;
  let c = Grid.copy src in
  check_bool "copy took the released grid" true (c.Grid.buf == z.Grid.buf);
  check_bool "copy: equal to its source" true (Grid.max_abs_diff c src = 0.0);
  (* a second release of a held grid does not hand it out twice *)
  Grid.release c;
  Grid.release c;
  let a = Grid.create ext and b = Grid.create ext in
  check_bool "one grid, handed out once" true (a.Grid.buf != b.Grid.buf)

(* Random batches of live grids released together, over 16 shapes: 12
   small ones (the count and per-shape bounds) and four of 1.5 MB (the
   byte bound).  The list stays within [free_bound] after every batch. *)
let prop_free_list_bounded =
  let shape k = if k >= 12 then [| 440; 428 + k |] else [| k + 3; 5 |] in
  QCheck.Test.make ~count:20 ~long_factor:10
    ~name:"grid free list: never past its bound"
    QCheck.(list_of_size Gen.(int_range 1 60) (pair (int_range 0 15) (int_range 0 12)))
    (fun ops ->
      List.for_all
        (fun (k, m) ->
          let live = List.init m (fun _ -> Grid.create (shape k)) in
          List.iter Grid.release live;
          let s = Grid.free_stats () and b = Grid.free_bound in
          s.Grid.held <= b.Grid.held
          && s.Grid.held_bytes <= b.Grid.held_bytes
          && s.Grid.max_shape <= b.Grid.max_shape)
        ops)

(* A checkpoint sink may keep the last iterate it was handed, the
   result, past [Guard.run]: the guard must not recycle it, so a second
   solve of the same shape leaves it. *)
let test_guard_keeps_sink_grid () =
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(2, 2, 2) in
  let n = 32 in
  Exec.with_runtime @@ fun rt ->
  let primary = Solver.polymg_stepper cfg ~n ~opts:Options.opt_plus ~rt in
  let policy = { Guard.default_policy with Guard.max_cycles = 4 } in
  let kept = ref None in
  let checkpoint =
    { Guard.ck_accept = (fun ~cycle:_ ~residual:_ ~v ~stats:_ -> kept := Some v);
      ck_restore = (fun () -> None) }
  in
  let problem = Problem.poisson ~dims:2 ~n in
  ignore (Guard.run ~policy ~checkpoint ~primary ~problem ());
  let g = Option.get !kept in
  let bits = Repro_grid.Buf.to_array g.Grid.buf in
  ignore (Guard.run ~policy ~primary ~problem:(Problem.poisson ~dims:2 ~n) ());
  check_bool "sink's grid bit-unchanged" true
    (Array.for_all2 same_float bits (Repro_grid.Buf.to_array g.Grid.buf))

(* Served requests recycle their grids: 20 same-shape requests in one
   server give the residual history one request gives in a fresh
   process, read from the flight recorder's cycle-end events. *)
let serve_histories k =
  let module Flightrec = Repro_runtime.Flightrec in
  let rq =
    { Serve.default_request with
      Serve.rq_n = 32; rq_cycles = 12; rq_tol = Some 1e-9; rq_variant = "opt+" }
  in
  let sv = Serve.create () in
  Flightrec.set_enabled true;
  let hs =
    List.init k (fun _ ->
        Flightrec.reset ();
        let rs = Serve.solve sv rq in
        check_bool "request ok" true (rs.Serve.rs_status = Serve.Ok);
        List.filter_map
          (fun (e : Flightrec.event) ->
            match e.Flightrec.kind with
            | Flightrec.Cycle_end { residual; _ } -> Some residual
            | _ -> None)
          (Flightrec.events ()))
  in
  Flightrec.set_enabled false;
  Serve.shutdown sv;
  hs

let history_bits h =
  String.concat " " (List.map (fun r -> Int64.to_string (Int64.bits_of_float r)) h)

(* What a fresh process computes; before any domain is spawned. *)
let in_child f =
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let d = Bytes.of_string (f ()) in
    ignore (Unix.write wr d 0 (Bytes.length d));
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let s = In_channel.input_all ic in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    s

let test_serve_recycling_keeps_histories () =
  let fresh = in_child (fun () -> history_bits (List.hd (serve_histories 1))) in
  check_bool "fresh history has cycles" true (String.length fresh > 0);
  let module Telemetry = Repro_runtime.Telemetry in
  Telemetry.reset ();
  Telemetry.set_enabled true;
  let hs = serve_histories 20 in
  Telemetry.set_enabled false;
  check_bool "grids were reused" true
    (Telemetry.value (Telemetry.counter "grid.reused") > 0);
  List.iteri
    (fun i h ->
      Alcotest.(check string) (Printf.sprintf "request %d" (i + 1)) fresh
        (history_bits h))
    hs

let () =
  Alcotest.run "mg"
    [ (* forks a child: runs before anything spawns a domain *)
      ( "grid recycling",
        [ Alcotest.test_case "served histories as in a fresh process" `Quick
            test_serve_recycling_keeps_histories;
          Alcotest.test_case "reused grid reads fresh" `Quick
            test_reused_grid_fresh_contents;
          Alcotest.test_case "guard keeps the sink's grid" `Quick
            test_guard_keeps_sink_grid ]
        @ Qc_replay.to_alcotest_list [ prop_free_list_bounded ] );
      ( "cycle construction",
        [ Alcotest.test_case "Table 3 stage counts" `Quick test_stage_counts_table3;
          Alcotest.test_case "min_n" `Quick test_min_n;
          Alcotest.test_case "params" `Quick test_params;
          Alcotest.test_case "params divisibility" `Quick test_params_divisibility;
          Alcotest.test_case "zero smoothing degenerate" `Quick
            test_zero_smoothing_cycle;
          Alcotest.test_case "inputs/outputs" `Quick test_inputs_outputs ] );
      ( "convergence",
        [ Alcotest.test_case "V-cycle 2D" `Quick test_vcycle_converges_2d;
          Alcotest.test_case "W beats V" `Quick test_wcycle_converges_faster;
          Alcotest.test_case "F-cycle" `Quick test_fcycle_converges;
          Alcotest.test_case "3D" `Quick test_3d_converges;
          Alcotest.test_case "O(h²) discretization" `Slow
            test_solution_approaches_exact ] );
      ( "baselines",
        [ Alcotest.test_case "handopt == polymg" `Quick test_handopt_matches_polymg;
          Alcotest.test_case "handopt rejects F" `Quick test_handopt_rejects_fcycle;
          Alcotest.test_case "health instruments handopt" `Quick
            test_health_matches_handopt ] );
      ( "problem & verify",
        [ Alcotest.test_case "residual of exact" `Quick
            test_verify_residual_of_exact_discrete;
          Alcotest.test_case "classes" `Quick test_problem_classes;
          Alcotest.test_case "rhs" `Quick test_problem_rhs;
          Alcotest.test_case "iterate swaps" `Quick test_solver_iterate_swaps;
          Alcotest.test_case "residual rejects mismatched grids" `Quick
            test_residual_rejects_mismatched_grids;
          Alcotest.test_case "residual allocation-free" `Quick
            test_residual_allocation_free ] );
      ( "verify properties",
        Qc_replay.to_alcotest_list
          [ prop_walks_bit_identical; prop_rhs_bit_identical ] ) ]
