open Repro_core
open Repro_mg

let check_bool = Alcotest.(check bool)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let plan_of ?(opts = Options.opt_plus) ?(n = 32) cfg =
  Plan.build (Cycle.build cfg) ~opts ~n ~params:(Cycle.params cfg ~n)

let vcfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4)

let test_emit_markers () =
  let s = C_emit.to_string (plan_of vcfg) in
  List.iter
    (fun marker ->
      check_bool ("contains " ^ marker) true (contains s marker))
    [ "pool_allocate"; "pool_deallocate"; "#pragma omp parallel for";
      "collapse(2)"; "double _buf_"; "users:"; "#pragma omp simd";
      "void pipeline_V_2D_4_4_4" ]

let test_emit_scratch_reuse_visible () =
  (* with scratch reuse, some buffer serves several smoothing steps *)
  let s = C_emit.to_string (plan_of vcfg) in
  check_bool "a shared scratchpad exists" true
    (contains s "_t0; " || contains s "_t1; ")

let test_emit_diamond_marker () =
  let s = C_emit.to_string (plan_of ~opts:Options.dtile_opt_plus vcfg) in
  check_bool "diamond group" true (contains s "diamond time tiling")

let test_emit_3d_collapse () =
  let cfg = Cycle.default ~dims:3 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
  let s = C_emit.to_string (plan_of ~n:16 cfg) in
  check_bool "collapse(3)" true (contains s "collapse(3)")

let test_line_counts_ordering () =
  (* W-cycle code is larger than V-cycle code (Table 3 trend) *)
  let v = C_emit.line_count (plan_of vcfg) in
  let w =
    C_emit.line_count
      (plan_of (Cycle.default ~dims:2 ~shape:Cycle.W ~smoothing:(4, 4, 4)))
  in
  check_bool (Printf.sprintf "W (%d) > V (%d) > 100" w v) true
    (w > v && v > 100)

let test_emit_all_benchmarks () =
  List.iter
    (fun (dims, shape, sm) ->
      let cfg = Cycle.default ~dims ~shape ~smoothing:sm in
      let n = if dims = 2 then 32 else 16 in
      List.iter
        (fun opts ->
          let s = C_emit.to_string (plan_of ~opts ~n cfg) in
          check_bool (Cycle.bench_name cfg) true (String.length s > 500))
        [ Options.naive; Options.opt; Options.opt_plus; Options.dtile_opt_plus ])
    [ (2, Cycle.V, (4, 4, 4)); (2, Cycle.V, (10, 0, 0));
      (2, Cycle.W, (4, 4, 4)); (3, Cycle.V, (4, 4, 4));
      (3, Cycle.W, (10, 0, 0)) ]

(* Compile-and-run promotion of the old -fsyntax-only check: the
   emitted C is compiled into a native kernel, run on filled inputs and
   diffed against the engine through the conformance harness's one
   interpreter-vs-native comparison.  Skips visibly when no C compiler
   exists. *)
let test_emitted_c_runs () =
  match Native.cc () with
  | None ->
    Printf.printf "compile-and-run skipped: no C compiler (tried gcc, cc)\n%!";
    Alcotest.skip ()
  | Some _ ->
    List.iter
      (fun (dims, shape, sm, opts, n) ->
        let cfg = Cycle.default ~dims ~shape ~smoothing:sm in
        let plan =
          Plan.build (Cycle.build cfg) ~opts ~n ~params:(Cycle.params cfg ~n)
        in
        let what =
          Printf.sprintf "%s %s computes what the engine computes"
            (Cycle.bench_name cfg) (Options.name opts)
        in
        let inputs, outputs = Conformance.fill_io plan in
        match Conformance.vs_native plan ~inputs ~outputs with
        | Ok d when d.Conformance.max_abs <= Conformance.default_budgets.vs_c -> ()
        | Ok d ->
          Alcotest.failf "%s: max_abs=%.3e, max_ulp=%.1e" what
            d.Conformance.max_abs d.Conformance.max_ulp
        | Error e -> Alcotest.failf "%s: %s" what e)
      [ (2, Cycle.V, (4, 4, 4), Options.opt_plus, 32);
        (2, Cycle.W, (10, 0, 0), Options.opt, 32);
        (3, Cycle.V, (4, 4, 4), Options.opt_plus, 16);
        (2, Cycle.V, (10, 0, 0), Options.dtile_opt_plus, 32);
        (2, Cycle.V, (2, 2, 2), Options.naive, 32) ]

let test_parity_cases_emitted () =
  let s = C_emit.to_string (plan_of vcfg) in
  check_bool "parity comment" true (contains s "parity case")

(* Every preset's inner loops are vectorizable as emitted: ghost rims
   go through the rank's rim helper instead of a per-point rim test in
   a full-box nest, and every [#pragma omp simd] sits directly on a
   loop (an OpenMP requirement gcc enforces). *)
let test_simd_loops () =
  List.iter
    (fun (dims, shape, sm, n) ->
      let cfg = Cycle.default ~dims ~shape ~smoothing:sm in
      List.iter
        (fun opts ->
          let what = Cycle.bench_name cfg ^ " " ^ Options.name opts in
          let lines =
            String.split_on_char '\n' (C_emit.to_string (plan_of ~opts ~n cfg))
            |> List.map String.trim
          in
          check_bool (what ^ ": no per-point rim test") false
            (List.exists (fun l -> contains l "if (i < 1 ||") lines);
          let rec simd_on_for = function
            | "#pragma omp simd" :: next :: rest ->
              String.starts_with ~prefix:"for (" next && simd_on_for rest
            | [ "#pragma omp simd" ] -> false
            | _ :: rest -> simd_on_for rest
            | [] -> true
          in
          check_bool (what ^ ": every omp simd line precedes a for") true
            (simd_on_for lines))
        [ Options.naive; Options.opt; Options.opt_plus; Options.dtile_opt_plus ])
    [ (2, Cycle.V, (4, 4, 4), 32); (3, Cycle.W, (10, 0, 0), 16) ]

let () =
  Alcotest.run "c_emit"
    [ ( "emission",
        [ Alcotest.test_case "markers" `Quick test_emit_markers;
          Alcotest.test_case "scratch reuse" `Quick test_emit_scratch_reuse_visible;
          Alcotest.test_case "diamond" `Quick test_emit_diamond_marker;
          Alcotest.test_case "3d collapse" `Quick test_emit_3d_collapse;
          Alcotest.test_case "line counts" `Quick test_line_counts_ordering;
          Alcotest.test_case "all benchmarks emit" `Quick test_emit_all_benchmarks;
          Alcotest.test_case "parity cases" `Quick test_parity_cases_emitted;
          Alcotest.test_case "simd loops" `Quick test_simd_loops;
          Alcotest.test_case "compile and run vs engine" `Quick
            test_emitted_c_runs ] ) ]
