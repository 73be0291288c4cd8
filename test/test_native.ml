(* Native backend: differential correctness against the interpreter,
   cache-key determinism (one compile, then memory and disk hits), a
   memory hit served without re-probing for a compiler, torn
   .so rejection, compile-failure fallback accounting, and a
   seed-replayable property running random pipelines through both
   backends.  Every test needing a real compiler skips visibly when none
   is installed. *)

open Repro_mg
open Repro_core
module Grid = Repro_grid.Grid
module Telemetry = Repro_runtime.Telemetry
module Flightrec = Repro_runtime.Flightrec
module Json = Repro_runtime.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let c_compiles = Telemetry.counter "native.compiles"
let c_cache_hits = Telemetry.counter "native.cache_hits"
let c_cache_rejects = Telemetry.counter "native.cache_rejects"
let c_kernel_calls = Telemetry.counter "native.kernel_calls"
let c_fallbacks = Telemetry.counter "native.fallbacks"

(* Bracket a test with an isolated, empty kernel cache and live
   counters: interned kernels are dropped on both sides so hit/compile
   accounting starts from zero, and nothing leaks into the shared
   POLYMG_NATIVE_CACHE location other tests or users may rely on. *)
let with_native_env ?(tag = "t") f () =
  match Native.cc () with
  | None ->
    Printf.printf "native: skipped (no C compiler found)\n%!";
    Alcotest.skip ()
  | Some compiler ->
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "polymg-native-test-%d-%s" (Unix.getpid ()) tag)
    in
    if Sys.file_exists dir then
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
    Native.unload_all ();
    Native.set_cache_dir (Some dir);
    Telemetry.set_enabled true;
    Telemetry.reset ();
    Fun.protect
      ~finally:(fun () ->
        Native.unload_all ();
        Native.set_cache_dir None;
        Native.set_compiler_override None;
        Telemetry.set_enabled false;
        Telemetry.reset ())
      (fun () -> f ~compiler ~dir)

(* One V-cycle through both backends on the same problem; the budget is
   the conformance vs_c budget (TESTING.md). *)
let budget = 1e-10

let cycle_plan ?(opts = Options.opt_plus) ~n () =
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
  Solver.polymg_plan cfg ~n ~opts

let run_both plan kernel ~n =
  let pipeline = plan.Plan.pipeline in
  let vin = Cycle.input_v pipeline in
  let fin = Cycle.input_f pipeline in
  let out_id = Cycle.output pipeline in
  let problem = Problem.poisson ~dims:2 ~n in
  let ext = Grid.extents problem.Problem.v in
  let out_i = Grid.create ext in
  let out_n = Grid.create ext in
  Exec.with_runtime (fun rt ->
      Exec.run plan rt
        ~inputs:[ (vin, problem.Problem.v); (fin, problem.Problem.f) ]
        ~outputs:[ (out_id, out_i) ]);
  Native.run kernel
    ~inputs:[ (vin, problem.Problem.v); (fin, problem.Problem.f) ]
    ~outputs:[ (out_id, out_n) ];
  Grid.max_abs_diff out_i out_n

let load_exn plan =
  match Native.load plan with
  | Ok k -> k
  | Error e -> Alcotest.failf "Native.load: %s" e

(* -- direct differential correctness ----------------------------------- *)

let test_matches_interp =
  with_native_env ~tag:"diff" (fun ~compiler:_ ~dir:_ ->
      let plan = cycle_plan ~n:32 () in
      let k = load_exn plan in
      let d = run_both plan k ~n:32 in
      check_bool
        (Printf.sprintf "native within %g of interpreter (got %g)" budget d)
        true (d < budget);
      check_bool "kernel calls counted" true
        (Telemetry.value c_kernel_calls >= 1))

(* -- cache-key determinism: one compile, then memory and disk hits ----- *)

let test_cache_determinism =
  with_native_env ~tag:"cache" (fun ~compiler ~dir ->
      let plan = cycle_plan ~n:32 () in
      check_bool "cache key is deterministic" true
        (Native.cache_key plan ~compiler = Native.cache_key plan ~compiler);
      let k1 = load_exn plan in
      check_int "first load compiles" 1 (Telemetry.value c_compiles);
      check_int "first load is no hit" 0 (Telemetry.value c_cache_hits);
      let k2 = load_exn plan in
      check_int "second load is a memory hit" 1
        (Telemetry.value c_cache_hits);
      check_int "no recompile on memory hit" 1 (Telemetry.value c_compiles);
      check_bool "interned: same kernel object" true (k1 == k2);
      (* a fresh process is simulated by dropping the interned table:
         the third load must come from the disk cache, still without
         compiling *)
      Native.unload_all ();
      let k3 = load_exn plan in
      check_int "third load is a disk hit" 2 (Telemetry.value c_cache_hits);
      check_int "no recompile on disk hit" 1 (Telemetry.value c_compiles);
      check_bool "artifact lives in the isolated cache" true
        (String.length (Native.so_path k3) > String.length dir
         && String.sub (Native.so_path k3) 0 (String.length dir) = dir);
      let d = run_both plan k3 ~n:32 in
      check_bool "disk-cached kernel still correct" true (d < budget))

(* -- a memory hit spawns nothing: discovery is probed once per process - *)

let test_memory_hit_without_path =
  with_native_env ~tag:"nopath" (fun ~compiler:_ ~dir:_ ->
      let plan = cycle_plan ~n:32 () in
      let k1 = load_exn plan in
      (* with PATH empty, any compiler probe would come back empty-handed:
         the hit must be served without one *)
      let path = Sys.getenv_opt "PATH" in
      Unix.putenv "PATH" "";
      let second =
        Fun.protect
          ~finally:(fun () -> Unix.putenv "PATH" (Option.value path ~default:""))
          (fun () -> Native.load plan)
      in
      match second with
      | Ok k2 ->
        check_bool "same interned kernel" true (k1 == k2);
        check_int "served as a memory hit" 1 (Telemetry.value c_cache_hits)
      | Error e -> Alcotest.failf "memory-hit load without PATH: %s" e)

(* -- torn/corrupt .so: rejected by the CRC sidecar, recompiled --------- *)

let test_torn_so_rejected =
  with_native_env ~tag:"torn" (fun ~compiler:_ ~dir:_ ->
      let plan = cycle_plan ~n:32 () in
      let k = load_exn plan in
      let so = Native.so_path k in
      Native.unload_all ();
      (* overwrite the artifact's head in place: same size, wrong
         bytes — exactly what a torn write leaves behind *)
      let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 so in
      output_string oc "GARBAGE!";
      close_out oc;
      let k2 = load_exn plan in
      check_int "corrupt artifact rejected" 1
        (Telemetry.value c_cache_rejects);
      check_int "rejection forces a recompile" 2
        (Telemetry.value c_compiles);
      let d = run_both plan k2 ~n:32 in
      check_bool "recompiled kernel correct" true (d < budget))

(* -- compile failure: forced Native errors, Auto falls back loudly ----- *)

let test_compile_failure_fallback =
  with_native_env ~tag:"fail" (fun ~compiler:_ ~dir:_ ->
      Native.set_compiler_override (Some "/bin/false");
      let incident_dir =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "polymg-native-incidents-%d" (Unix.getpid ()))
      in
      if Sys.file_exists incident_dir then
        Array.iter
          (fun f -> Sys.remove (Filename.concat incident_dir f))
          (Sys.readdir incident_dir);
      Flightrec.reset ();
      Flightrec.set_enabled true;
      Flightrec.set_incident_dir (Some incident_dir);
      Fun.protect
        ~finally:(fun () ->
          Flightrec.set_incident_dir None;
          Flightrec.set_enabled false;
          Flightrec.reset ())
        (fun () ->
          let n = 32 in
          (* forced native: a compile failure must be an error, not a
             silent downgrade *)
          let forced =
            cycle_plan ~opts:{ Options.opt_plus with Options.backend = Options.Native }
              ~n ()
          in
          Exec.with_runtime (fun rt ->
              try
                let (_ : Solver.stepper) = Solver.plan_stepper forced ~rt in
                Alcotest.fail "forced Native must raise Unavailable"
              with Native.Unavailable _ -> ());
          (* Auto: same failure falls back to the interpreter, counted
             and filed as an incident *)
          let auto =
            cycle_plan ~opts:{ Options.opt_plus with Options.backend = Options.Auto }
              ~n ()
          in
          let problem = Problem.poisson ~dims:2 ~n in
          let r =
            Exec.with_runtime (fun rt ->
                Solver.iterate
                  (Solver.plan_stepper auto ~rt)
                  ~problem ~cycles:1 ())
          in
          check_bool "fallback solve converges like the interpreter" true
            (match r.Solver.stats with
             | [ s ] -> Float.is_finite s.Solver.residual
             | _ -> false);
          check_bool "fallback counted" true
            (Telemetry.value c_fallbacks >= 1);
          let incidents = Sys.readdir incident_dir in
          check_bool "incident filed" true (Array.length incidents > 0);
          let read path =
            let ic = open_in_bin path in
            let s = really_input_string ic (in_channel_length ic) in
            close_in ic;
            s
          in
          let kind_of f =
            match Json.parse (read (Filename.concat incident_dir f)) with
            | Ok doc -> Option.bind (Json.member "kind" doc) Json.to_str
            | Error _ -> None
          in
          check_bool "incident kind is native-fallback" true
            (Array.exists
               (fun f -> kind_of f = Some "native-fallback")
               incidents)))

(* -- property: random pipelines agree across backends ------------------ *)

let prop_native_matches_interp =
  QCheck.Test.make ~name:"random pipelines: native matches interpreter"
    ~count:25 Pipeline_gen.pipelines_arb
    (fun stages ->
      let built = Pipeline_gen.gen_pipeline_of stages in
      let n = 32 in
      let plan = Pipeline_gen.build_plan built ~opts:Options.opt_plus ~n in
      match Native.load plan with
      | Error _ ->
        (* unemittable plan (or no compiler): vacuously true — the
           backend refused, it did not miscompute *)
        true
      | Ok kernel ->
        let (p, in_id, out_id) = built in
        let f = Repro_ir.Pipeline.func p out_id in
        let out_n = Repro_ir.Sizeexpr.eval ~n f.Repro_ir.Func.sizes.(0) in
        let input = Grid.interior ~dims:2 (n - 1) in
        Grid.fill_interior input ~f:(fun idx ->
            sin (float_of_int ((idx.(0) * 7) + (idx.(1) * 3)) /. 5.0));
        let reference = Pipeline_gen.run_plan built plan ~n in
        let out = Grid.interior ~dims:2 out_n in
        Native.run kernel ~inputs:[ (in_id, input) ]
          ~outputs:[ (out_id, out) ];
        Grid.max_abs_diff reference out < budget)

let properties =
  List.map
    (fun (name, speed, run) ->
      (name, speed, with_native_env ~tag:"qc" (fun ~compiler:_ ~dir:_ -> run ())))
    (Qc_replay.to_alcotest_list [ prop_native_matches_interp ])

let () =
  Alcotest.run "native"
    [ ( "backend",
        [ Alcotest.test_case "matches interpreter" `Quick test_matches_interp;
          Alcotest.test_case "cache determinism" `Quick
            test_cache_determinism;
          Alcotest.test_case "memory hit needs no compiler probe" `Quick
            test_memory_hit_without_path;
          Alcotest.test_case "torn .so rejected" `Quick test_torn_so_rejected;
          Alcotest.test_case "compile failure falls back" `Quick
            test_compile_failure_fallback ] );
      ("properties", properties) ]
