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
let c_probes = Telemetry.counter "native.probes"

let rec rm_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Bracket a test with an isolated, empty kernel cache and live
   counters: interned kernels are dropped on both sides so hit/compile
   accounting starts from zero, and nothing leaks into the shared
   POLYMG_NATIVE_CACHE location other tests or users may rely on.  The
   cache directory is removed afterwards. *)
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
    rm_tree dir;
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
        Telemetry.reset ();
        rm_tree dir)
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

(* -- the probe memo: a fresh process names its compiler without one ----- *)

let index_of s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go 0

let contains s sub = index_of s sub <> None

let read_all path = In_channel.with_open_bin path In_channel.input_all
let write_all path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* A compiler is one executable, run with no shell: another command is
   a shell script in [dir] that ends in [exec gcc]. *)
let script ~dir name body =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir name in
  let oc = open_out path in
  output_string oc ("#!/bin/sh\n" ^ body);
  close_out oc;
  Unix.chmod path 0o755;
  path

(* The first line [c --version] prints, run here and now. *)
let live_version c =
  let ic = Unix.open_process_args_in c [| c; "--version" |] in
  let out = In_channel.input_all ic in
  ignore (Unix.close_process_in ic);
  String.trim (List.hd (String.split_on_char '\n' out))

(* [f ()] as a fresh process runs it, with the compiler processes it
   started *)
let fresh f =
  Native.forget_probes ();
  let before = Telemetry.value c_probes in
  let v = f () in
  (v, Telemetry.value c_probes - before)

(* A torn, garbled or foreign memo is never trusted: the next lookup
   probes and rewrites it as it was. *)
let test_memo_damaged =
  with_native_env ~tag:"memo-damaged" (fun ~compiler ~dir ->
      let memo = Filename.concat dir "compilers.probe" in
      let id, _ = fresh (fun () -> Native.compiler_identity compiler) in
      let good = read_all memo in
      let lookup what =
        let id', probes = fresh (fun () -> Native.compiler_identity compiler) in
        Alcotest.(check string) (what ^ ": identity") id id';
        probes
      in
      check_int "an intact memo answers" 0 (lookup "intact");
      let version = live_version compiler in
      let at = Option.get (index_of good version) in
      List.iter
        (fun (what, damaged) ->
          write_all memo damaged;
          check_bool (what ^ ": probed") true (lookup what > 0);
          Alcotest.(check string) (what ^ ": rewritten") good (read_all memo))
        [ ("torn", String.sub good 0 (String.length good / 2));
          ( "garbled",
            String.mapi
              (fun i ch -> if i >= at && i < at + String.length version then 'x' else ch)
              good );
          ("foreign", "polymg.native-probe/0" ^ String.sub good 21 (String.length good - 21));
          ("empty", "") ])

(* A compiler changed in place is probed again, and its kernels' key
   moves with its version line. *)
let test_memo_changed_compiler =
  with_native_env ~tag:"memo-changed" (fun ~compiler:_ ~dir ->
      let fake v = ignore (script ~dir "fakecc" (Printf.sprintf "echo 'fakecc %s'\n" v)) in
      fake "1.0";
      let cc = Filename.concat dir "fakecc" in
      (* the memo takes a file only once it is two seconds old *)
      Unix.sleepf 2.1;
      let plan = cycle_plan ~n:32 () in
      let lookup () =
        fresh (fun () -> (Native.compiler_identity cc, Native.cache_key plan ~compiler:cc))
      in
      let (id, key), probes = lookup () in
      Alcotest.(check string) "first identity" (cc ^ "|fakecc 1.0") id;
      check_bool "first lookup probes" true (probes > 0);
      let (id', key'), probes = lookup () in
      check_int "then the memo answers" 0 probes;
      Alcotest.(check string) "with the same identity" id id';
      Alcotest.(check string) "and key" key key';
      (* same inode, same size: only the file's times move *)
      fake "1.1";
      let (id, key'), probes = lookup () in
      check_bool "a changed compiler is probed" true (probes > 0);
      Alcotest.(check string) "its new identity" (cc ^ "|fakecc 1.1") id;
      check_bool "and its key moves" true (key <> key'))

(* A compiler that fails or cannot run is never memoized and fails to
   compile, as without a memo. *)
let test_memo_failures =
  with_native_env ~tag:"memo-fail" (fun ~compiler:_ ~dir ->
      let memo = Filename.concat dir "compilers.probe" in
      List.iter
        (fun cc ->
          let id, _ = fresh (fun () -> Native.compiler_identity cc) in
          Alcotest.(check string) (cc ^ ": identity") (cc ^ "|") id;
          check_bool (cc ^ ": not memoized") false
            (Sys.file_exists memo && contains (read_all memo) cc);
          Native.set_compiler_override (Some cc);
          match Native.load (cycle_plan ~n:32 ()) with
          | Ok _ -> Alcotest.failf "%s loaded a kernel" cc
          | Error e ->
            check_bool (cc ^ ": compile failed: " ^ e) true (contains e "compile failed"))
        [ "/bin/false"; "/nonexistent/cc" ])

(* -- a compile leaves nothing behind ---------------------------------- *)

(* [f tmp] with TMPDIR, for this process and the compilers it starts,
   an empty private directory [tmp]. *)
let with_private_tmpdir f =
  let tmp =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "polymg-native-tmpdir-%d" (Unix.getpid ()))
  in
  rm_tree tmp;
  Sys.mkdir tmp 0o755;
  let env = Option.value (Sys.getenv_opt "TMPDIR") ~default:""
  and ocaml = Filename.get_temp_dir_name () in
  Unix.putenv "TMPDIR" tmp;
  Filename.set_temp_dir_name tmp;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "TMPDIR" env;
      Filename.set_temp_dir_name ocaml;
      rm_tree tmp)
    (fun () -> f tmp)

let listing dir = List.sort compare (Array.to_list (Sys.readdir dir))

(* A cold load writes the kernel's four files into the cache and, when
   it names its compiler, the probe memo; the compiler's object and
   shared object go to names of their own, removed with their
   directory, and nothing reaches TMPDIR. *)
let test_compile_leaves_nothing =
  with_native_env ~tag:"clean" (fun ~compiler ~dir ->
      with_private_tmpdir (fun tmp ->
          Native.forget_probes ();
          let plan = cycle_plan ~n:32 () in
          ignore (load_exn plan);
          let key = Native.cache_key plan ~compiler in
          Alcotest.(check (list string)) "the cache holds the kernel and the memo"
            (List.sort compare
               ("compilers.probe" :: List.map (( ^ ) key) [ ".c"; ".so"; ".meta"; ".log" ]))
            (listing dir);
          Alcotest.(check (list string)) "TMPDIR is still empty" [] (listing tmp)))

(* A compiler that fails in either step, after gcc has written that
   step's output: the load fails naming the step, the log holds what
   the step printed, and neither the object nor the shared object is
   left anywhere. *)
let test_compile_steps_fail_loudly =
  with_native_env ~tag:"steps" (fun ~compiler:_ ~dir ->
      let bin = dir ^ "-bin" in
      Fun.protect
        ~finally:(fun () -> rm_tree bin)
        (fun () ->
          with_private_tmpdir (fun tmp ->
              let plan = cycle_plan ~n:32 () in
              List.iter
                (fun (step, body) ->
                  rm_tree dir;
                  let cc = script ~dir:bin ("cc-fails-" ^ step) body in
                  Native.set_compiler_override (Some cc);
                  let key = Native.cache_key plan ~compiler:cc in
                  (match Native.load plan with
                   | Ok _ -> Alcotest.failf "%s: loaded a kernel" cc
                   | Error e ->
                     check_bool (step ^ ": the load names the step: " ^ e) true
                       (contains e "compile failed" && contains e (step ^ ": exit 3")));
                  check_bool (step ^ ": the log holds the step's output") true
                    (contains
                       (read_all (Filename.concat dir (key ^ ".log")))
                       ("fake: " ^ step ^ " refused"));
                  Alcotest.(check (list string)) (step ^ ": the cache holds the source and log")
                    [ key ^ ".c"; key ^ ".log" ]
                    (List.filter (( <> ) "compilers.probe") (listing dir));
                  Alcotest.(check (list string)) (step ^ ": TMPDIR is still empty") []
                    (listing tmp);
                  check_int (step ^ ": nothing compiled") 0 (Telemetry.value c_compiles))
                [ ( "compile",
                    "for a; do [ \"$a\" = -c ] && { gcc \"$@\"; echo 'fake: compile refused' >&2; \
                     exit 3; }; done\nexec gcc \"$@\"\n" );
                  ( "link",
                    "for a; do [ \"$a\" = -c ] && exec gcc \"$@\"; done\n\
                     gcc \"$@\"; echo 'fake: link refused' >&2; exit 3\n" ) ])))

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
      rm_tree incident_dir;
      Flightrec.reset ();
      Flightrec.set_enabled true;
      Flightrec.set_incident_dir (Some incident_dir);
      Fun.protect
        ~finally:(fun () ->
          Flightrec.set_incident_dir None;
          Flightrec.set_enabled false;
          Flightrec.reset ();
          rm_tree incident_dir)
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
  with_native_env ~tag:"simd" (fun ~compiler:_ ~dir ->
      if Sys.command "gcc --version >/dev/null 2>&1" <> 0 then begin
        Printf.printf "vectorization bit-identity: skipped (no gcc)\n%!";
        Alcotest.skip ()
      end;
      same_bits
        ~alt:(script ~dir "gcc-novec" "exec gcc -fno-tree-loop-vectorize \"$@\"\n"))

(* The baseline x86-64 ISA (SSE2, two doubles per vector) against the
   host's.  A wrapper's own flags come before Native's, so a [-march=]
   there would lose to their later [-march=native]: the baseline build
   goes through a wrapper that rewrites that flag. *)
let test_host_isa_bitwise =
  with_native_env ~tag:"isa" (fun ~compiler:_ ~dir ->
      if Sys.command "gcc -dumpmachine 2>/dev/null | grep -q '^x86_64'" <> 0
      then begin
        Printf.printf "host-ISA bit-identity: skipped (no x86-64 gcc)\n%!";
        Alcotest.skip ()
      end;
      same_bits
        ~alt:
          (script ~dir "gcc-x86-64"
             "for a; do shift; [ \"$a\" = -march=native ] && a=-march=x86-64; \
              set -- \"$@\" \"$a\"; done\n\
              exec gcc \"$@\"\n"))

(* -- golden outputs of the benchmark's kernels ----------------------------- *)

(* The six kernels the benchmark runs, one cycle each on [fill_io]'s
   inputs: every output grid's bits, ghosts included, as the MD5 of its
   little-endian bytes.  The digests were recorded from the kernels that
   emitted every smoothing step unrolled, so a change to how a chain is
   printed must leave every bit where it was.  Each kernel runs twice on
   one load: on the second call every byte two buffers share holds the
   other buffer's value from the first, so a read before a write shows
   as a wrong digest, not as a read of the arena's first zeros. *)
let golden_kernels =
  let v2 = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
  let w3 = Cycle.default ~dims:3 ~shape:Cycle.W ~smoothing:(10, 0, 0) in
  List.concat_map
    (fun (n, md5) ->
      [ (v2, Options.opt_plus, n, md5); (v2, Options.dtile_opt_plus, n, md5) ])
    [ (32, "e701737c30584c9cc51f4fa220fad544");
      (64, "45ab82b6e77a3abd7044274883f3495f") ]
  @ [ ( { v2 with Cycle.levels = 8 }, Options.dtile_opt_plus, 256,
        "1bea4e312c483af572d369b6dde042db" );
      (w3, Options.dtile_opt_plus, 32, "c0e9e68cab4e00d5c460f4e9fff00983") ]

let grid_md5 (g : Grid.t) =
  let a = Repro_grid.Buf.to_array g.Grid.buf in
  let b = Bytes.create (8 * Array.length a) in
  Array.iteri (fun i v -> Bytes.set_int64_le b (8 * i) (Int64.bits_of_float v)) a;
  Digest.to_hex (Digest.bytes b)

let test_golden_outputs =
  with_native_env ~tag:"golden" (fun ~compiler:_ ~dir:_ ->
      List.iter
        (fun ((cfg : Cycle.config), opts, n, want) ->
          let what =
            Printf.sprintf "%s L%d %s n=%d" (Cycle.bench_name cfg)
              cfg.Cycle.levels (Options.name opts) n
          in
          let plan = Solver.polymg_plan cfg ~n ~opts in
          let k = load_exn plan in
          List.iter
            (fun call ->
              let inputs, outputs = Conformance.fill_io plan in
              Native.run k ~inputs ~outputs;
              let got =
                String.concat " " (List.map (fun (_, g) -> grid_md5 g) outputs)
              in
              Alcotest.(check string) (what ^ ": output digests, " ^ call) want got)
            [ "first call"; "second call" ])
        golden_kernels)

(* -- the memory budget sees the native arena --------------------------- *)

(* A budget ladder counts what each backend allocates: a native rung
   its kernel's arena, an interpreted one its pool's peak of live
   buffers.  The packed arena is that peak up to 64-byte rounding and
   first-fit gaps: W-2D-4-4-4 dtile-opt+ at n=64 has such gaps (a 77.9
   KB arena over a 76.9 KB model), so a budget half-way demotes a
   native solve and leaves an interpreted one where it was. *)
let test_budget_sees_arena () =
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.W ~smoothing:(4, 4, 4) in
  let n = 64 in
  let decide backend mem_budget =
    let opts = { Options.dtile_opt_plus with Options.backend; mem_budget } in
    match Govern.decide (Cycle.build cfg) ~opts ~n ~params:(Cycle.params cfg ~n) with
    | Ok r -> r
    | Error _ -> Alcotest.fail "the budget is infeasible"
  in
  let peak backend = (decide backend None).Govern.ladder.(0).Govern.peak_bytes in
  let interp_peak = peak Options.Interp and native_peak = peak Options.Native in
  check_bool "the arena exceeds the interpreter's model" true
    (interp_peak < native_peak);
  let budget = Some ((interp_peak + native_peak) / 2) in
  let native = decide Options.Native budget in
  Array.iter
    (fun (r : Govern.rung) ->
      check_int (r.Govern.rname ^ ": pooled bytes are the arena")
        (C_emit.arena_bytes r.Govern.plan) r.Govern.pool_peak_bytes)
    native.Govern.ladder;
  check_bool "the native solve demotes" true (native.Govern.chosen > 0);
  check_int "the interpreted solve keeps dtile-opt+" 0
    (decide Options.Interp budget).Govern.chosen

(* -- property: random pipelines agree across backends ------------------ *)

let prop_native_matches_interp =
  QCheck.Test.make ~name:"random pipelines: native matches interpreter"
    ~count:25 Pipeline_gen.pipelines_arb
    (fun stages ->
      let built = Pipeline_gen.gen_pipeline_of stages in
      (* opt+'s tiles cover the n=32 grids in one tile; 8x12 tiles give
         truncated border tiles and bounds that vary between tiles; at
         n=64 opt+'s groups over 65x65 grids run as row pipelines *)
      List.for_all
        (fun (n, opts) ->
          let plan = Pipeline_gen.build_plan built ~opts ~n in
          (* unemittable plan (or no compiler): vacuously true — the
             backend refused, it did not miscompute *)
          Result.is_error (Native.load plan)
          ||
          let inputs, outputs = Conformance.fill_io plan in
          match Conformance.vs_native plan ~inputs ~outputs with
          | Ok d -> d.Conformance.max_abs <= budget
          | Error _ -> false)
        [ (32, Options.opt_plus);
          ( 32,
            Options.with_tiles Options.opt_plus ~t2:[| 8; 12 |]
              ~t3:Options.opt_plus.Options.tile_3d );
          (64, Options.opt_plus) ])

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
        Native.key ~emitter:Native.emitter_digest ~digest:(digest_of c ~n:16)
          ~compiler_id:(Native.compiler_identity compiler) ~host
      in
      k = key ()
      && k = in_child key
      && k = pure host
      && (other = host || pure other <> k))

(* A fresh process that finds its compiler in the probe memo keys its
   kernels as one that probes. *)
let prop_memo_key =
  QCheck.Test.make ~name:"probe memo: a memo hit keys as a live probe" ~count:6
    config_arb (fun ((cfg, variant) as c) ->
      let compiler = Option.get (Native.cc ()) in
      let plan =
        Solver.polymg_plan cfg ~n:16
          ~opts:(Option.get (Options.variant_of_string variant))
      in
      ignore (fresh (fun () -> Native.compiler_identity compiler));
      let k, probes = fresh (fun () -> Native.cache_key plan ~compiler) in
      probes = 0
      && k
         = Native.key ~emitter:Native.emitter_digest ~digest:(digest_of c ~n:16)
             ~compiler_id:(compiler ^ "|" ^ live_version compiler)
             ~host:(Native.host_fingerprint ()))

(* The key follows the sources that print the C: the build folds their
   digest in, so an emitter change never loads a kernel an older
   emitter printed, whatever the cache directory holds. *)
let test_key_per_emitter () =
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
  let plan = Solver.polymg_plan cfg ~n:32 ~opts:Options.dtile_opt_plus in
  let compiler = Option.value (Native.cc ()) ~default:"cc" in
  let key emitter =
    Native.key ~emitter ~digest:(Plan.digest plan)
      ~compiler_id:(Native.compiler_identity compiler)
      ~host:(Native.host_fingerprint ())
  in
  Alcotest.(check string) "the cache key is this build's emitter's"
    (key Native.emitter_digest) (Native.cache_key plan ~compiler);
  check_bool "the emitter digest is an MD5" true
    (String.length Native.emitter_digest = 32);
  check_bool "another emitter's digest moves the key" true
    (key (Digest.to_hex (Digest.string "another emitter"))
     <> key Native.emitter_digest)

(* The kernel key holds a plan's digest, not its C: two plans with
   equal digests must print the same kernel source, or a cache would
   serve one plan the other's kernel.  Each case builds a plan twice
   (equal digests, so equal C) and beside it plans with one input
   moved: a coefficient or ω, and the grid size.  Where a digest still
   matches (it ignores the input it should hash), the C must too. *)
let sound a b =
  Plan.digest a <> Plan.digest b || C_emit.entry_source a = C_emit.entry_source b

let key_sound (a, a') ~moved =
  Plan.digest a = Plan.digest a' && sound a a' && List.for_all (sound a) moved

(* [stages] with a weight or coefficient of stage [k] (mod their number)
   moved, where that stage has one *)
let nudge stages k =
  List.mapi
    (fun i (st : Pipeline_gen.gen_stage) ->
      if i <> k mod List.length stages then st
      else
        match st with
        | G_stencil (p, w, f) ->
          let w = Array.copy w in
          w.(k mod 9) <- w.(k mod 9) +. 0.125;
          G_stencil (p, w, f)
        | G_combine (p, q, c) -> G_combine (p, q, c +. 0.125)
        | st -> st)
    stages

let prop_key_sound_random =
  QCheck.Test.make ~name:"kernel key: equal plan digests print equal C (random pipelines)"
    ~count:20
    (QCheck.pair Pipeline_gen.pipelines_arb QCheck.small_nat)
    (fun (stages, k) ->
      let plan ?(n = 32) stages =
        Pipeline_gen.build_plan (Pipeline_gen.gen_pipeline_of stages)
          ~opts:Options.opt_plus ~n
      in
      key_sound
        (plan stages, plan stages)
        ~moved:[ plan (nudge stages k); plan ~n:64 stages ])

let prop_key_sound_presets =
  QCheck.Test.make ~name:"kernel key: equal plan digests print equal C (presets)"
    ~count:12 config_arb (fun ((cfg : Cycle.config), variant) ->
      let plan ?(n = 16) cfg =
        Solver.polymg_plan cfg ~n
          ~opts:(Option.get (Options.variant_of_string variant))
      in
      key_sound
        (plan cfg, plan cfg)
        ~moved:[ plan { cfg with Cycle.omega = cfg.Cycle.omega *. 0.75 }; plan ~n:32 cfg ])

(* -- the stepper contract ---------------------------------------------- *)

(* A stepper reads [v] and [f] and writes only [out] (Solver.stepper):
   the guard rolls back to its [v] with no copy.  One cycle from an
   iterate filled at every point, ghosts included: the names of the
   inputs it changed by a bit.  A raising stepper is held to the same
   contract. *)
let inputs_written (step : Solver.stepper) ~(v : Grid.t) ~(f : Grid.t) =
  let v = Grid.copy v and f = Grid.copy f in
  let fill i = 0.125 *. float_of_int ((i * 7919 mod 101) - 50) in
  Repro_grid.Buf.iteri
    (fun i _ -> Repro_grid.Buf.set v.Grid.buf i (fill i))
    v.Grid.buf;
  let v0 = bits v and f0 = bits f in
  (try step ~v ~f ~out:(Grid.create (Grid.extents v)) with Failure _ -> ());
  List.filter_map
    (fun (name, g, b0) -> if bits g = b0 then None else Some name)
    [ ("v", v, v0); ("f", f, f0) ]

(* Every stepper constructor in lib/: plan steppers for the four presets
   on both backends in 2-D and 3-D, plus a 2-D n=64 opt+ plan whose
   native kernel runs row pipelines, the W-3D-10-0-0 dtile-opt+ n=32
   plan of the checkpointed benchmark solve, and a demoted rung of the
   memory-budget ladder; the hand-written baselines; the NAS reference
   and DSL steppers at class S; and the request's chaos wrappers.  A
   stepper that writes one element of [v] must fail the check. *)
let stepper_contract ~native =
  Exec.with_runtime @@ fun rt ->
  let v2 = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
  let v3 = Cycle.default ~dims:3 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
  let w3 = Cycle.default ~dims:3 ~shape:Cycle.W ~smoothing:(10, 0, 0) in
  let grids (cfg : Cycle.config) n =
    let p = Problem.poisson ~dims:cfg.Cycle.dims ~n in
    (p.Problem.v, p.Problem.f)
  in
  let backends =
    Options.Interp :: (if native then [ Options.Native ] else [])
  in
  let plan_case (cfg, n, opts) backend =
    let opts = { opts with Options.backend } in
    ( Printf.sprintf "%s %s %s n=%d" (Cycle.bench_name cfg) (Options.name opts)
        (if backend = Options.Native then "native" else "interp")
        n,
      Solver.plan_stepper (Solver.polymg_plan cfg ~n ~opts) ~rt,
      grids cfg n )
  in
  let plans =
    List.concat_map
      (fun (cfg, n) ->
        List.map
          (fun opts -> (cfg, n, opts))
          Options.[ naive; opt; opt_plus; dtile_opt_plus ])
      [ (v2, 32); (v3, 16) ]
    @ [ (v2, 64, Options.opt_plus); (w3, 32, Options.dtile_opt_plus) ]
  in
  (* V-2D n=64 opt+ under a 112 KiB budget demotes to half the tiles,
     on the interpreter and with the native arena: the rung Request
     would run, picked by Govern.decide *)
  let rung backend =
    let opts =
      { Options.opt_plus with Options.backend; mem_budget = Some (112 * 1024) }
    in
    match
      Govern.decide (Cycle.build v2) ~opts ~n:64 ~params:(Cycle.params v2 ~n:64)
    with
    | Ok r when r.Govern.chosen > 0 ->
      let g = Govern.chosen r in
      ( Printf.sprintf "V-2D-4-4-4 rung %s %s n=64" g.Govern.rname
          (if backend = Options.Native then "native" else "interp"),
        Solver.plan_stepper g.Govern.plan ~rt,
        grids v2 64 )
    | Ok _ -> Alcotest.fail "112 KiB does not demote opt+ at n=64"
    | Error _ -> Alcotest.fail "112 KiB is infeasible at n=64"
  in
  let hand (cfg, n) (name, smoothing) =
    ( Printf.sprintf "%s %s n=%d" (Cycle.bench_name cfg) name n,
      Handopt.stepper (Handopt.create cfg ~n ~par:rt.Exec.par ~smoothing ()),
      grids cfg n )
  in
  let nas =
    let cls = Repro_nas.Nas_coeffs.S in
    let p = Repro_nas.Nas_problem.setup ~cls in
    let g = (p.Repro_nas.Nas_problem.u, p.Repro_nas.Nas_problem.v) in
    [ ( "NAS reference class S",
        Repro_nas.Nas_ref.(stepper (create ~cls ~par:rt.Exec.par)),
        g );
      ( "NAS DSL opt+ class S",
        Repro_nas.Nas_pipeline.stepper ~cls ~opts:Options.opt_plus ~rt,
        g ) ]
  in
  let opt2 = Solver.polymg_stepper v2 ~n:32 ~opts:Options.opt_plus ~rt in
  let chaos fault =
    match
      Request.validate ~allow_faults:true
        { Request.default_spec with Request.n = Some 32; fault = Some fault }
    with
    | Ok t -> ("chaos " ^ fault, Request.chaos t opt2, grids v2 32)
    | Error e -> Alcotest.failf "Request.validate: %s" e
  in
  let cases =
    List.concat_map (fun p -> List.map (plan_case p) backends) plans
    @ List.map rung backends
    @ List.concat_map
        (fun shape ->
          List.map (hand shape)
            [ ("handopt", Handopt.Plain);
              ("handopt+pluto", Handopt.Pluto { sigma = 5 }) ])
        [ (v2, 32); (v3, 16) ]
    @ nas
    @ [ chaos "nan"; chaos "crash" ]
  in
  List.iter
    (fun (name, step, (v, f)) ->
      Alcotest.(check (list string)) (name ^ ": inputs written") []
        (inputs_written step ~v ~f))
    cases;
  let writes_v ~v ~f ~out =
    opt2 ~v ~f ~out;
    Repro_grid.Buf.set v.Grid.buf 40 1e3
  in
  let v, f = grids v2 32 in
  Alcotest.(check (list string)) "a stepper writing one element of v" [ "v" ]
    (inputs_written writes_v ~v ~f)

let test_stepper_contract () =
  match Native.cc () with
  | None ->
    Printf.printf "native: skipped (no C compiler found), interpreter only\n%!";
    stepper_contract ~native:false
  | Some _ ->
    with_native_env ~tag:"contract"
      (fun ~compiler:_ ~dir:_ -> stepper_contract ~native:true)
      ()

let properties =
  List.map
    (fun (name, speed, run) ->
      (name, speed, with_native_env ~tag:"qc" (fun ~compiler:_ ~dir:_ -> run ())))
    (Qc_replay.to_alcotest_list [ prop_native_matches_interp; prop_memo_key ])

(* "identity" forks a child, and OCaml 5 refuses Unix.fork once any
   domain has been spawned: it runs before "backend", whose native case
   runs the interpreter on 4 domains. *)
let () =
  Alcotest.run "native"
    [ ( "identity",
        Qc_replay.to_alcotest_list
          [ prop_digest_stable; prop_digest_perturbed; prop_cache_key_host;
            prop_key_sound_presets; prop_key_sound_random ]
        @ [ Alcotest.test_case "kernel key: per emitter source" `Quick
              test_key_per_emitter ] );
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
          Alcotest.test_case "a compile leaves nothing behind" `Quick
            test_compile_leaves_nothing;
          Alcotest.test_case "each compile step fails loudly" `Quick
            test_compile_steps_fail_loudly;
          Alcotest.test_case "native case uses Native's compiler" `Quick
            test_native_case_compiler;
          Alcotest.test_case "native case compiles each kernel once" `Quick
            test_native_case_compiles_once;
          Alcotest.test_case "vectorization changes no bit" `Quick
            test_vectorized_bitwise;
          Alcotest.test_case "host ISA changes no bit" `Quick
            test_host_isa_bitwise;
          Alcotest.test_case "benchmark kernels' golden outputs" `Quick
            test_golden_outputs;
          Alcotest.test_case "probe memo: damaged memos are probed again" `Quick
            test_memo_damaged;
          Alcotest.test_case "probe memo: a changed compiler is probed again" `Quick
            test_memo_changed_compiler;
          Alcotest.test_case "probe memo: failing compilers are not memoized" `Quick
            test_memo_failures ] );
      ( "budget",
        [ Alcotest.test_case "native rungs budget the arena" `Quick
            test_budget_sees_arena ] );
      ( "contract",
        [ Alcotest.test_case "steppers write only out" `Quick
            test_stepper_contract ] );
      ("properties", properties) ]
