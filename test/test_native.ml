(* Native backend: differential correctness against the interpreter,
   cache-key determinism (one compile, then memory and disk hits), a
   memory hit served without re-probing for a compiler, torn
   .so rejection, compile-failure fallback accounting, the conformance
   backend axis running through this backend, and a seed-replayable
   property running random pipelines through both backends.  Every
   comparison goes through Conformance.vs_native.  Every test needing a
   real compiler skips visibly when none is installed. *)

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

(* The conformance vs_c budget (TESTING.md): 0, so every check below
   is exact equality. *)
let budget = Conformance.default_budgets.vs_c

let cycle_plan ?(opts = Options.opt_plus) ?(omega = 0.8) ~n () =
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
  Solver.polymg_plan { cfg with Cycle.omega } ~n ~opts

(* One V-cycle through both backends on filled inputs: the worst
   absolute difference. *)
let native_diff plan =
  let inputs, outputs = Conformance.fill_io plan in
  match Conformance.vs_native plan ~inputs ~outputs with
  | Ok d -> d.Conformance.max_abs
  | Error e -> Alcotest.failf "native vs interpreter: %s" e

let load_exn plan =
  match Native.load plan with
  | Ok k -> k
  | Error e -> Alcotest.failf "Native.load: %s" e

(* -- direct differential correctness ----------------------------------- *)

let test_matches_interp =
  with_native_env ~tag:"diff" (fun ~compiler:_ ~dir:_ ->
      let d = native_diff (cycle_plan ~n:32 ()) in
      check_bool
        (Printf.sprintf "native within %g of interpreter (got %g)" budget d)
        true (d <= budget);
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
      let d = native_diff plan in
      check_bool "disk-cached kernel still correct" true (d <= budget))

(* -- regression: the damping factor is part of the kernel's identity -- *)

(* ω = 0.8 and ω = 0.5 used to share one digest (the digest hashed only
   stage names and options), so the ω = 0.5 solve was handed the cached
   ω = 0.8 kernel. *)
let test_omega_not_shared =
  with_native_env ~tag:"omega" (fun ~compiler ~dir:_ ->
      let p8 = cycle_plan ~n:32 () and p5 = cycle_plan ~omega:0.5 ~n:32 () in
      check_bool "digests differ" true (Plan.digest p8 <> Plan.digest p5);
      check_bool "cache keys differ" true
        (Native.cache_key p8 ~compiler <> Native.cache_key p5 ~compiler);
      let k8 = load_exn p8 in
      let k5 = load_exn p5 in
      check_bool "two kernels" true (k8 != k5);
      check_int "two compiles" 2 (Telemetry.value c_compiles);
      check_bool "omega 0.5 kernel computes omega 0.5" true
        (native_diff p5 <= budget))

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
      ignore (load_exn plan);
      check_int "corrupt artifact rejected" 1
        (Telemetry.value c_cache_rejects);
      check_int "rejection forces a recompile" 2
        (Telemetry.value c_compiles);
      let d = native_diff plan in
      check_bool "recompiled kernel correct" true (d <= budget))

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

(* -- the conformance backend axis runs through Native ----------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let vcfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4)

let native_variants = [ ("naive", Options.naive); ("opt+", Options.opt_plus) ]

(* The leg uses Native's compiler choice: a broken compiler fails every
   pair, naming the compile failure, rather than passing with a compiler
   the leg found on its own. *)
let test_native_case_compiler =
  with_native_env ~tag:"case-cc" (fun ~compiler:_ ~dir:_ ->
      Native.set_compiler_override (Some "/nonexistent/cc");
      let case =
        Conformance.native_case ~variants:native_variants vcfg ~n:32
          ~cycles:3 ()
      in
      check_int "one pair per variant and domain count" 4
        (List.length case.Conformance.pairs);
      List.iter
        (fun (p : Conformance.pair) ->
          match p.Conformance.first_bad_stage with
          | Some (reason, _) when not p.Conformance.pass ->
            check_bool
              (Printf.sprintf "reason names the compile failure (%s)" reason)
              true
              (contains reason "compile failed")
          | _ ->
            Alcotest.failf
              "expected a failing pair naming the load error, got@\n%a"
              Conformance.pp_case case)
        case.Conformance.pairs)

(* One case (fill pass, lockstep cycles, both domain counts) compiles
   each variant's kernel once into Native's cache, and a following load
   of the same plan is a memory hit. *)
let test_native_case_compiles_once =
  with_native_env ~tag:"case-cache" (fun ~compiler:_ ~dir:_ ->
      let case =
        Conformance.native_case ~variants:native_variants vcfg ~n:32
          ~cycles:3 ()
      in
      if not (Conformance.case_pass case) then
        Alcotest.failf "native case failed:@\n%a" Conformance.pp_case case;
      check_int "one compile per variant" (List.length native_variants)
        (Telemetry.value c_compiles);
      let hits = Telemetry.value c_cache_hits in
      ignore (load_exn (Solver.polymg_plan vcfg ~n:32 ~opts:Options.opt_plus));
      check_int "a following load is a memory hit" (hits + 1)
        (Telemetry.value c_cache_hits);
      check_int "and compiles nothing" (List.length native_variants)
        (Telemetry.value c_compiles))

(* -- vectorization and the host's ISA change no bit ---------------------- *)

(* Every point of a kernel is one independent assignment and
   [-ffp-contract=off] forbids FMA contraction, so neither the vector
   width nor whether a loop is vectorized can change a result: the same
   C built by another compiler command must agree bit for bit, ghosts
   included, on the four presets and the diamond-tiled 3-D kernel. *)
let bits (g : Grid.t) =
  Array.map Int64.bits_of_float (Repro_grid.Buf.to_array g.Grid.buf)

let same_bits ~alt =
  let w3d = Cycle.default ~dims:3 ~shape:Cycle.W ~smoothing:(10, 0, 0) in
  List.iter
    (fun (cfg, opts, n) ->
      let what = Cycle.bench_name cfg ^ " " ^ Options.name opts in
      let plan = Solver.polymg_plan cfg ~n ~opts in
      let inputs, outputs = Conformance.fill_io plan in
      let run compiler =
        Native.set_compiler_override compiler;
        let outs =
          List.map (fun (fid, g) -> (fid, Grid.create (Grid.extents g))) outputs
        in
        Native.run (load_exn plan) ~inputs ~outputs:outs;
        Native.set_compiler_override None;
        outs
      in
      let compiles = Telemetry.value c_compiles in
      let host = run None and other = run (Some alt) in
      check_int (what ^ ": two kernels") (compiles + 2)
        (Telemetry.value c_compiles);
      List.iter2
        (fun (_, h) (_, o) ->
          let d = Conformance.grid_diff h o in
          check_bool
            (Printf.sprintf "%s: max_abs %g, identical bits" what
               d.Conformance.max_abs)
            true
            (d.Conformance.max_abs = 0.0 && bits h = bits o))
        host other)
    (List.map
       (fun opts -> (vcfg, opts, 64))
       [ Options.naive; Options.opt; Options.opt_plus; Options.dtile_opt_plus ]
     @ [ (w3d, Options.dtile_opt_plus, 32) ])

(* gcc with its loop vectorizer switched off runs every loop scalar. *)
let test_vectorized_bitwise =
  with_native_env ~tag:"simd" (fun ~compiler:_ ~dir:_ ->
      if Sys.command "gcc --version >/dev/null 2>&1" <> 0 then begin
        Printf.printf "vectorization bit-identity: skipped (no gcc)\n%!";
        Alcotest.skip ()
      end;
      same_bits ~alt:"gcc -fno-tree-loop-vectorize")

(* The baseline x86-64 ISA (SSE2, two doubles per vector) against the
   host's.  A compiler override prefixes Native's flags, so a [-march=]
   in it would lose to their later [-march=native]: the baseline build
   goes through a wrapper that rewrites that flag. *)
let test_host_isa_bitwise =
  with_native_env ~tag:"isa" (fun ~compiler:_ ~dir ->
      if Sys.command "gcc -dumpmachine 2>/dev/null | grep -q '^x86_64'" <> 0
      then begin
        Printf.printf "host-ISA bit-identity: skipped (no x86-64 gcc)\n%!";
        Alcotest.skip ()
      end;
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let wrapper = Filename.concat dir "gcc-x86-64" in
      let oc = open_out wrapper in
      output_string oc
        "#!/bin/sh\n\
         for a; do shift; [ \"$a\" = -march=native ] && a=-march=x86-64; \
         set -- \"$@\" \"$a\"; done\n\
         exec gcc \"$@\"\n";
      close_out oc;
      Unix.chmod wrapper 0o755;
      same_bits ~alt:wrapper)

(* -- the memory budget sees the native arena --------------------------- *)

(* A native rung's footprint is at least its kernel's arena, so a
   budget between the interpreter's model and the arena demotes a
   native solve (V-2D-4-4-4 dtile-opt+ at n=256: a 1.3 MiB model, a
   2.1 MB arena) and leaves an interpreted one where it was. *)
let test_budget_sees_arena () =
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
  let n = 256 in
  let decide backend =
    let opts =
      { Options.dtile_opt_plus with
        Options.backend;
        mem_budget = Some (2 * 1024 * 1024) }
    in
    match Govern.decide (Cycle.build cfg) ~opts ~n ~params:(Cycle.params cfg ~n) with
    | Ok r -> r
    | Error _ -> Alcotest.fail "2 MiB is infeasible"
  in
  let native = decide Options.Native in
  Array.iter
    (fun (r : Govern.rung) ->
      check_bool (r.Govern.rname ^ ": peak covers the arena") true
        (r.Govern.peak_bytes >= C_emit.arena_bytes r.Govern.plan))
    native.Govern.ladder;
  check_bool "the native solve demotes" true (native.Govern.chosen > 0);
  check_int "the interpreted solve keeps dtile-opt+" 0
    (decide Options.Interp).Govern.chosen

(* -- property: random pipelines agree across backends ------------------ *)

let prop_native_matches_interp =
  QCheck.Test.make ~name:"random pipelines: native matches interpreter"
    ~count:25 Pipeline_gen.pipelines_arb
    (fun stages ->
      let built = Pipeline_gen.gen_pipeline_of stages in
      let n = 32 in
      let plan = Pipeline_gen.build_plan built ~opts:Options.opt_plus ~n in
      (* unemittable plan (or no compiler): vacuously true — the backend
         refused, it did not miscompute *)
      Result.is_error (Native.load plan)
      ||
      let inputs, outputs = Conformance.fill_io plan in
      match Conformance.vs_native plan ~inputs ~outputs with
      | Ok d -> d.Conformance.max_abs <= budget
      | Error _ -> false)

(* -- plan identity: a function of content ------------------------------ *)

let config_gen =
  QCheck.Gen.(
    map
      (fun (((dims, shape), (n1, n2, n3)), (gsrb, variant)) ->
        let n1 = if n1 + n2 + n3 = 0 then 1 else n1 in
        ( { (Cycle.default ~dims ~shape ~smoothing:(n1, n2, n3)) with
            Cycle.levels = 3;
            smoother = (if gsrb then Cycle.Gsrb else Cycle.Jacobi) },
          variant ))
      (pair
         (pair
            (pair (int_range 2 3) (oneofl [ Cycle.V; Cycle.W; Cycle.F ]))
            (triple (int_range 0 2) (int_range 0 2) (int_range 0 2)))
         (pair bool (oneofl [ "naive"; "opt"; "opt+"; "dtile-opt+" ]))))

let config_arb =
  QCheck.make config_gen ~print:(fun ((c : Cycle.config), v) ->
      Printf.sprintf "%s L%d %s %s" (Cycle.bench_name c) c.Cycle.levels
        (match c.Cycle.smoother with Cycle.Gsrb -> "gsrb" | Cycle.Jacobi -> "jacobi")
        v)

let digest_of (cfg, variant) ~n =
  Plan.digest
    (Solver.polymg_plan cfg ~n ~opts:(Option.get (Options.variant_of_string variant)))

(* What a fresh process computes. *)
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
    let buf = Bytes.create 64 in
    let len = Unix.read rd buf 0 64 in
    Unix.close rd;
    ignore (Unix.waitpid [] pid);
    Bytes.sub_string buf 0 len

let prop_digest_stable =
  QCheck.Test.make ~name:"plan digest: equal configs, equal digests"
    ~count:12 config_arb (fun c ->
      let d = digest_of c ~n:16 in
      d = digest_of c ~n:16 && d = in_child (fun () -> digest_of c ~n:16))

let prop_digest_perturbed =
  QCheck.Test.make ~name:"plan digest: a perturbed param, coefficient or size differs"
    ~count:12 config_arb (fun ((cfg, variant) as c) ->
      (* ω is a resolved param of Jacobi stages and a folded coefficient
         of red-black Gauss-Seidel stages *)
      let d = digest_of c ~n:16 in
      d <> digest_of ({ cfg with Cycle.omega = cfg.Cycle.omega *. 0.75 }, variant) ~n:16
      && d <> digest_of c ~n:32)

(* A kernel built with -march=native runs only where the host's ISA
   does: the key is a function of content and the host, and another
   host's fingerprint alone (a CPU without some feature flag) moves
   it. *)
let prop_cache_key_host =
  QCheck.Test.make ~name:"kernel key: per host, in any process"
    ~count:8
    (QCheck.pair config_arb QCheck.small_printable_string)
    (fun (((cfg, variant) as c), other) ->
      let compiler = Option.value (Native.cc ()) ~default:"cc" in
      let key () =
        Native.cache_key ~compiler
          (Solver.polymg_plan cfg ~n:16
             ~opts:(Option.get (Options.variant_of_string variant)))
      in
      let k = key () in
      let host = Native.host_fingerprint () in
      let pure host =
        Native.key ~digest:(digest_of c ~n:16)
          ~compiler_id:(Native.compiler_identity compiler) ~host
      in
      k = key ()
      && k = in_child key
      && k = pure host
      && (other = host || pure other <> k))

let properties =
  List.map
    (fun (name, speed, run) ->
      (name, speed, with_native_env ~tag:"qc" (fun ~compiler:_ ~dir:_ -> run ())))
    (Qc_replay.to_alcotest_list [ prop_native_matches_interp ])

(* "identity" forks a child, and OCaml 5 refuses Unix.fork once any
   domain has been spawned: it runs before "backend", whose native case
   runs the interpreter on 4 domains. *)
let () =
  Alcotest.run "native"
    [ ( "identity",
        Qc_replay.to_alcotest_list
          [ prop_digest_stable; prop_digest_perturbed; prop_cache_key_host ] );
      ( "backend",
        [ Alcotest.test_case "matches interpreter" `Quick test_matches_interp;
          Alcotest.test_case "cache determinism" `Quick
            test_cache_determinism;
          Alcotest.test_case "omega 0.8 and 0.5 kernels not shared" `Quick
            test_omega_not_shared;
          Alcotest.test_case "memory hit needs no compiler probe" `Quick
            test_memory_hit_without_path;
          Alcotest.test_case "torn .so rejected" `Quick test_torn_so_rejected;
          Alcotest.test_case "compile failure falls back" `Quick
            test_compile_failure_fallback;
          Alcotest.test_case "native case uses Native's compiler" `Quick
            test_native_case_compiler;
          Alcotest.test_case "native case compiles each kernel once" `Quick
            test_native_case_compiles_once;
          Alcotest.test_case "vectorization changes no bit" `Quick
            test_vectorized_bitwise;
          Alcotest.test_case "host ISA changes no bit" `Quick
            test_host_isa_bitwise ] );
      ( "budget",
        [ Alcotest.test_case "native rungs budget the arena" `Quick
            test_budget_sees_arena ] );
      ("properties", properties) ]
