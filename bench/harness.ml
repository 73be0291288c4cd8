(* Shared measurement utilities for the paper harness. *)

open Repro_mg
open Repro_core
module Telemetry = Repro_runtime.Telemetry
module Json = Repro_runtime.Json

let init_gc () =
  (* keep bigarray custom-block accounting from forcing extra majors, so
     allocation costs reflect malloc/page-fault behaviour, not the GC *)
  Gc.set
    { (Gc.get ()) with
      Gc.custom_major_ratio = 10000;
      Gc.custom_minor_ratio = 10000 }

(* paper methodology: minimum over [reps] measurements after one warmup *)
let time_stepper ?(reps = 2) ~cycles stepper (problem : Problem.t) =
  let run () =
    (Solver.iterate stepper ~problem ~cycles ~residuals:false ())
      .Solver.total_seconds
  in
  ignore (run ());
  let best = ref infinity in
  for _ = 1 to reps do
    best := Float.min !best (run ())
  done;
  !best /. float_of_int cycles

type variant = {
  vname : string;
  make : Cycle.config -> n:int -> rt:Exec.runtime -> Solver.stepper;
}

let polymg_variant vname opts =
  { vname; make = (fun cfg ~n ~rt -> Solver.polymg_stepper cfg ~n ~opts ~rt) }

(* Autotune-lite (paper §3.2.4 tunes 80-135 configurations per benchmark;
   we probe a compact subset): group-size limits crossed with tile sizes,
   one trial cycle each, keeping the fastest. *)
let tune_space =
  [ (1, [| 64; 512 |], [| 16; 16; 128 |]);
    (3, [| 32; 512 |], [| 8; 16; 128 |]);
    (3, [| 64; 512 |], [| 16; 16; 128 |]);
    (6, [| 32; 256 |], [| 16; 16; 128 |]);
    (6, [| 64; 512 |], [| 32; 32; 256 |]) ]

let tune_opts base cfg ~n =
  let problem =
    Problem.poisson_random ~dims:cfg.Cycle.dims ~n ~seed:99
  in
  let best = ref (infinity, base) in
  List.iter
    (fun (limit, t2, t3) ->
      let opts =
        { (Options.with_tiles base ~t2 ~t3) with
          Options.group_size_limit = limit }
      in
      let rt = Exec.runtime () in
      (try
         let stepper = Solver.polymg_stepper cfg ~n ~opts ~rt in
         let t = time_stepper ~reps:2 ~cycles:1 stepper problem in
         if t < fst !best then best := (t, opts)
       with Invalid_argument _ -> ());
      Exec.free_runtime rt)
    tune_space;
  snd !best

let tuned_variant vname base =
  { vname;
    make =
      (fun cfg ~n ~rt ->
        let opts = tune_opts base cfg ~n in
        Solver.polymg_stepper cfg ~n ~opts ~rt) }

let handopt_variant =
  { vname = "handopt";
    make =
      (fun cfg ~n ~rt ->
        Handopt.stepper (Handopt.create cfg ~n ~par:rt.Exec.par ())) }

let handpluto_variant ?(sigma = 16) () =
  { vname = "handopt+pluto";
    make =
      (fun cfg ~n ~rt ->
        Handopt.stepper
          (Handopt.create cfg ~n ~par:rt.Exec.par
             ~smoothing:(Handopt.Pluto { sigma })
             ())) }

let all_variants =
  [ polymg_variant "polymg-naive" Options.naive;
    handopt_variant;
    handpluto_variant ();
    tuned_variant "polymg-opt" Options.opt;
    tuned_variant "polymg-opt+" Options.opt_plus;
    tuned_variant "polymg-dtile-opt+" Options.dtile_opt_plus ]

(* A preset run through the native backend (compiled, dlopen'd kernels).
   The stepper build compiles (or cache-hits) the kernel, so the timed
   region measures kernel calls only.  Forced Native, never Auto: a
   missing compiler must fail the bench loudly, not quietly measure the
   interpreter. *)
let native_variant vname opts =
  { vname = vname ^ "/native";
    make =
      (fun cfg ~n ~rt ->
        Solver.polymg_stepper cfg ~n
          ~opts:{ opts with Options.backend = Options.Native }
          ~rt) }

(* The equal-footing comparison the native backend exists for: every
   preset as a compiled kernel, the interpreted naive/opt+ plans and the
   hand-written baseline alongside. *)
let native_variants =
  [ polymg_variant "polymg-naive" Options.naive;
    polymg_variant "polymg-opt+" Options.opt_plus;
    handopt_variant;
    native_variant "polymg-naive" Options.naive;
    native_variant "polymg-opt" Options.opt;
    native_variant "polymg-opt+" Options.opt_plus;
    native_variant "polymg-dtile-opt+" Options.dtile_opt_plus ]

let benchmarks ~dims =
  [ Cycle.default ~dims ~shape:Cycle.V ~smoothing:(4, 4, 4);
    Cycle.default ~dims ~shape:Cycle.V ~smoothing:(10, 0, 0);
    Cycle.default ~dims ~shape:Cycle.W ~smoothing:(4, 4, 4);
    Cycle.default ~dims ~shape:Cycle.W ~smoothing:(10, 0, 0) ]

(* ---- structured measurement records (machine-readable trajectory) ---- *)

let counters_json cs =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) ->
           Printf.sprintf "\"%s\":%d" (Json.escape k) v)
         cs)
  ^ "}"

(* Every emitted record is also accumulated here so a run can end by
   writing the whole trajectory as one machine-readable artifact
   (BENCH_results.json, the file bench/compare.exe diffs). *)
let records : Json.t list ref = ref []

let record_json ~bench ~n ~dims ~domains ~vname ~seconds ~counters =
  Json.Obj
    [ ("bench", Json.Str bench);
      ("n", Json.num n);
      ("dims", Json.num dims);
      ("domains", Json.num domains);
      ("variant", Json.Str vname);
      ("s_per_cycle", Json.Num seconds);
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.num v)) counters))
    ]

(* One line per measurement, greppable as ^BENCH and parseable as JSON —
   the BENCH_*.json-compatible record every perf PR is judged against. *)
let emit_bench_json ~bench ~n ~dims ~domains ~vname ~seconds ~counters =
  records :=
    record_json ~bench ~n ~dims ~domains ~vname ~seconds ~counters :: !records;
  Printf.printf
    "BENCH \
     {\"bench\":\"%s\",\"n\":%d,\"dims\":%d,\"domains\":%d,\"variant\":\"%s\",\"s_per_cycle\":%.6f,\"counters\":%s}\n"
    (Json.escape bench) n dims domains
    (Json.escape vname)
    seconds (counters_json counters)

let write_bench_doc path records =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Json.to_channel oc
        (Json.Obj
           [ ("schema", Json.Str "polymg.bench/1");
             ("records", Json.Arr records) ]);
      output_char oc '\n')

let write_results ?(path = "BENCH_results.json") () =
  match !records with
  | [] -> ()
  | rs ->
    write_bench_doc path (List.rev rs);
    Printf.printf "wrote %s (%d records)\n" path (List.length rs)

(* One-record file of the reference opt+ config, for the on/off overhead
   gates ([compare.exe OFF.json ON.json --threshold 0.02]). *)
let write_gate_record ~path ~cfg ~n ~seconds =
  write_bench_doc path
    [ record_json ~bench:(Cycle.bench_name cfg) ~n ~dims:cfg.Cycle.dims
        ~domains:1 ~vname:"opt+" ~seconds ~counters:[] ];
  Printf.printf "wrote %s\n" path

(* Counter snapshot from one instrumented cycle, run outside the timed
   region so telemetry never perturbs the measurement itself. *)
let counter_snapshot stepper problem =
  Telemetry.reset ();
  Telemetry.set_enabled true;
  ignore (Solver.iterate stepper ~problem ~cycles:1 ~residuals:false ());
  Telemetry.set_enabled false;
  let cs = Telemetry.counters () in
  Telemetry.reset ();
  cs

(* The disabled probe must keep tier-1 timings at the seed level: with
   every timing sink off, a start/stop pair plus a counter update must
   cost one atomic load and a predictable branch each — no clock read,
   no accumulator touch, no allocation.  Fail loudly if 5M such sites
   are not far below measurement noise (a cycle is milliseconds). *)
let assert_probe_noop () =
  Telemetry.set_enabled false;
  Repro_runtime.Profile.set_enabled false;
  let iters = 5_000_000 in
  let c = Telemetry.counter "bench.noop" in
  let site = Telemetry.site "bench.noop" in
  let minor0 = Gc.minor_words () in
  let t0 = Telemetry.now_ns () in
  for _ = 1 to iters do
    let t = Telemetry.start () in
    Telemetry.stop t site;
    Telemetry.add c 1
  done;
  let per_call =
    float_of_int (Telemetry.now_ns () - t0) /. float_of_int iters
  in
  let minor_words = Gc.minor_words () -. minor0 in
  Printf.printf
    "probe disabled-path: %.1f ns per start/stop+counter site (budget 100 \
     ns), %.0f minor words for %d sites (budget 256)\n"
    per_call minor_words iters;
  if per_call > 100.0 then
    failwith "probe disabled path exceeds the no-op budget";
  (* slack for the Gc.minor_words probes themselves, not the loop *)
  if minor_words > 256.0 then failwith "probe disabled path allocates"

(* Same discipline for the flight recorder: a guarded call site
   ([if Flightrec.on () then Flightrec.emit ...]) with the recorder off
   must cost one atomic load and a predictable branch — no event is
   constructed, so the loop must not allocate either. *)
let assert_flightrec_noop () =
  let module Flightrec = Repro_runtime.Flightrec in
  Flightrec.set_enabled false;
  let iters = 5_000_000 in
  let minor0 = Gc.minor_words () in
  let t0 = Telemetry.now_ns () in
  for i = 1 to iters do
    if Flightrec.on () then
      Flightrec.emit (Flightrec.Checkpoint { cycle = i; residual = 0.0 })
  done;
  let per_call =
    float_of_int (Telemetry.now_ns () - t0) /. float_of_int iters
  in
  let minor_words = Gc.minor_words () -. minor0 in
  Printf.printf
    "flightrec disabled-path: %.1f ns per guarded site (budget 100 ns), \
     %.0f minor words for %d sites (budget 256)\n"
    per_call minor_words iters;
  if per_call > 100.0 then
    failwith "flightrec disabled path exceeds the no-op budget";
  (* slack for the Gc.minor_words probes themselves, not the loop *)
  if minor_words > 256.0 then
    failwith "flightrec disabled path allocates"

(* Append one ledger record for a measured run (durable JSONL — the
   longitudinal trajectory bench/trend.exe reads). *)
let ledger_append ~path ~cfg ~n ~domains ~vname ~seconds ~plan_digest ~sites =
  let module Ledger = Repro_runtime.Ledger in
  let r =
    Ledger.make ~sites ~bench:(Cycle.bench_name cfg) ~n ~domains
      ~variant:vname ~plan_digest ~s_per_cycle:seconds ()
  in
  Ledger.append ~path r;
  Printf.printf "ledger: appended %s -> %s\n" (Ledger.key r) path

(* Time every variant of one benchmark at one size; returns
   (variant, seconds-per-cycle) in order.  Variants are measured
   round-robin — one timed run each per round — so that machine noise
   phases (frequency scaling, co-tenants) hit every variant equally, and
   the per-variant minimum over rounds is reported.  With [json] (the
   default) each variant also gets one instrumented cycle after the
   timed region, and its counter snapshot is emitted as a BENCH record. *)
let run_benchmark ?(domains = 1) ?(cycles = 2) ?(reps = 2) ?(json = true)
    ?variants cfg ~n =
  (* counter hygiene: whatever instrumentation an earlier command left
     on, timed regions run with telemetry off and zeroed state, and each
     variant's snapshot (in counter_snapshot) is reset-bracketed so no
     counts bleed between variants *)
  Telemetry.set_enabled false;
  Telemetry.reset ();
  let variants = Option.value variants ~default:all_variants in
  let problem =
    Problem.poisson_random ~dims:cfg.Cycle.dims ~n ~seed:20170704
  in
  let prepared =
    List.map
      (fun v ->
        let rt = Exec.runtime ~domains () in
        let stepper = v.make cfg ~n ~rt in
        (* warm-up: first run allocates pools and touches memory *)
        ignore (Solver.iterate stepper ~problem ~cycles:1 ~residuals:false ());
        (v, rt, stepper, ref infinity))
      variants
  in
  for _ = 1 to reps do
    List.iter
      (fun (_, _, stepper, best) ->
        let t =
          (Solver.iterate stepper ~problem ~cycles ~residuals:false ())
            .Solver.total_seconds
          /. float_of_int cycles
        in
        if t < !best then best := t)
      prepared
  done;
  List.map
    (fun (v, rt, stepper, best) ->
      if json then
        emit_bench_json ~bench:(Cycle.bench_name cfg) ~n
          ~dims:cfg.Cycle.dims ~domains ~vname:v.vname ~seconds:!best
          ~counters:(counter_snapshot stepper problem);
      Exec.free_runtime rt;
      (v.vname, !best))
    prepared

let speedup_table ~base rows =
  let tbase = List.assoc base rows in
  List.map (fun (name, t) -> (name, t, tbase /. t)) rows

let print_speedups ~title ~base rows =
  Printf.printf "\n%s\n" title;
  Printf.printf "  %-20s %12s %10s\n" "variant" "s/cycle" "speedup";
  List.iter
    (fun (name, t, s) -> Printf.printf "  %-20s %12.4f %9.2fx\n" name t s)
    (speedup_table ~base rows)

let geomean xs =
  match xs with
  | [] -> 0.0
  | _ ->
    exp (List.fold_left (fun a x -> a +. log x) 0.0 xs
         /. float_of_int (List.length xs))
