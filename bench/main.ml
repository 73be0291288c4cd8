(* Benchmark harness regenerating every table and figure of the paper
   (see DESIGN.md for the experiment index, EXPERIMENTS.md for results).

   Usage:
     bench/main.exe                    full paper run at class B (default)
     bench/main.exe all --class C      full paper run at class C
     bench/main.exe table3|fig9|fig10|fig11a|fig11b|fig12|nas|scaling
     bench/main.exe quick              fast smoke pass (small sizes)
     bench/main.exe bechamel           Bechamel micro-suite (one Test.make
                                       per table/figure kernel) *)

open Repro_mg
open Repro_core

let usage () =
  print_endline
    "usage: main.exe \
     [all|table3|fig9|fig10|fig11a|fig11b|fig12|nas|scaling|ablation|quick|native|bechamel|telemetry|flightrec|profile] \
     [--class B|C] [--cycles N] [--reps N] [--ledger PATH]";
  exit 1

type args = {
  cmd : string;
  cls : Problem.cls;
  nas_cls : Repro_nas.Nas_coeffs.cls;
  cycles : int;
  reps : int;
  ledger : string option;
}

let parse_args () =
  let cmd = ref "all" in
  let cls = ref Problem.B in
  let nas_cls = ref Repro_nas.Nas_coeffs.B in
  let cycles = ref 2 in
  let reps = ref 2 in
  let ledger = ref None in
  let rec go = function
    | [] -> ()
    | "--class" :: v :: rest ->
      (match Problem.cls_of_string v with
       | Some c -> cls := c
       | None -> usage ());
      (match Repro_nas.Nas_coeffs.cls_of_string v with
       | Some c -> nas_cls := c
       | None -> ());
      go rest
    | "--cycles" :: v :: rest ->
      (match int_of_string_opt v with
       | Some c when c > 0 -> cycles := c
       | Some _ | None -> usage ());
      go rest
    | "--reps" :: v :: rest ->
      (match int_of_string_opt v with
       | Some c when c > 0 -> reps := c
       | Some _ | None -> usage ());
      go rest
    | "--ledger" :: v :: rest ->
      ledger := Some v;
      go rest
    | c :: rest when not (String.length c > 1 && c.[0] = '-') ->
      cmd := c;
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  { cmd = !cmd;
    cls = !cls;
    nas_cls = !nas_cls;
    cycles = !cycles;
    reps = !reps;
    ledger = !ledger }

(* ---- Bechamel micro-suite: one Test.make per table/figure kernel ---- *)

let bechamel_suite () =
  let open Bechamel in
  let mk_cycle name cfg n opts =
    Test.make ~name
      (Staged.stage (fun () ->
           let r = Solver.solve cfg ~n ~opts ~cycles:1 ~residuals:false () in
           ignore r.Solver.total_seconds))
  in
  let v2 = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
  let w2 = Cycle.default ~dims:2 ~shape:Cycle.W ~smoothing:(10, 0, 0) in
  let v3 = Cycle.default ~dims:3 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
  let tests =
    Test.make_grouped ~name:"polymg"
      [ mk_cycle "table3:V-2D-444:naive" v2 64 Options.naive;
        mk_cycle "fig9:V-2D-444:opt+" v2 64 Options.opt_plus;
        mk_cycle "fig9:W-2D-1000:opt+" w2 64 Options.opt_plus;
        mk_cycle "fig10:V-3D-444:opt+" v3 32 Options.opt_plus;
        mk_cycle "fig11a:smoother-dtile" w2 64 Options.dtile_opt_plus;
        mk_cycle "fig11b:intra+pool" v2 64
          { Options.opt with Options.scratch_reuse = true; Options.pool = true } ]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Printf.printf "\n=== Bechamel micro-suite (ns per cycle, small grids) ===\n";
  Hashtbl.iter
    (fun name o ->
      match Bechamel.Analyze.OLS.estimates o with
      | Some [ est ] -> Printf.printf "  %-32s %14.0f ns\n" name est
      | Some _ | None -> Printf.printf "  %-32s (no estimate)\n" name)
    results

let main () =
  let a = parse_args () in
  let header () =
    Printf.printf
      "PolyMG paper harness — class %s, %d cycle(s) per measurement, min of %d\n"
      (Problem.cls_name a.cls) a.cycles a.reps
  in
  match a.cmd with
  | "bechamel" -> bechamel_suite ()
  | "table3" -> header (); Tables.table3 ~cycles:a.cycles ~reps:a.reps ()
  | "fig9" ->
    header ();
    Tables.fig ~dims:2 ~cls:a.cls ~cycles:a.cycles ~reps:a.reps ()
  | "fig10" ->
    header ();
    Tables.fig ~dims:3 ~cls:a.cls ~cycles:a.cycles ~reps:a.reps ();
    Tables.nas ~cls:a.nas_cls ~iters:3 ~reps:a.reps ()
  | "fig11a" -> header (); Figures.fig11a ~cls:a.cls ~reps:a.reps ()
  | "fig11b" ->
    header ();
    Figures.fig11b ~cls:a.cls ~cycles:a.cycles ~reps:a.reps ()
  | "fig12" -> header (); Figures.fig12 ~cls:a.cls ~cycles:1 ()
  | "nas" -> header (); Tables.nas ~cls:a.nas_cls ~iters:3 ~reps:a.reps ()
  | "scaling" ->
    header ();
    Figures.scaling ~cls:a.cls ~cycles:a.cycles ~reps:a.reps ()
  | "ablation" ->
    header ();
    Figures.ablation ~cls:a.cls ~cycles:a.cycles ~reps:a.reps ()
  | "quick" ->
    Printf.printf "PolyMG quick smoke run (tiny sizes)\n";
    Harness.assert_probe_noop ();
    let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
    let rows = Harness.run_benchmark ~cycles:2 ~reps:1 cfg ~n:128 in
    Harness.print_speedups ~title:"V-2D-4-4-4 N=128" ~base:"polymg-naive" rows
  | "native" ->
    (* backend comparison on the issue's reference config: DSL variants
       through the compiled-kernel backend next to the interpreter and
       the hand-optimized baseline, all on the same problem and rep
       protocol, so the speedup table answers "does the native backend
       close the engine gap?" directly.  Skips visibly (exit 0, loud
       message) when no C compiler is on PATH — CI treats the skip as
       environmental, not as a pass. *)
    (match Repro_core.Native.cc () with
     | None ->
       Printf.printf
         "native: SKIPPED (no C compiler found; tried gcc, cc)\n"
     | Some compiler ->
       Printf.printf
         "PolyMG native backend bench — %s, %d cycle(s) per measurement, \
          min of %d\n"
         compiler a.cycles a.reps;
       let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
       let rows =
         Harness.run_benchmark ~cycles:a.cycles ~reps:a.reps
           ~variants:Harness.native_variants cfg ~n:128
       in
       Harness.print_speedups ~title:"V-2D-4-4-4 N=128 (backend axis)"
         ~base:"polymg-naive/native" rows)
  | "telemetry" ->
    (* span-sink cost check: the probe's no-op budget plus a paired
       timing of the same stepper with spans off vs on *)
    Harness.assert_probe_noop ();
    let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
    let n = 256 in
    let problem = Problem.poisson_random ~dims:2 ~n ~seed:7 in
    let rt = Exec.runtime () in
    let stepper = Solver.polymg_stepper cfg ~n ~opts:Options.opt_plus ~rt in
    let t_off = Harness.time_stepper ~reps:a.reps ~cycles:a.cycles stepper problem in
    Repro_runtime.Telemetry.set_enabled true;
    let t_on = Harness.time_stepper ~reps:a.reps ~cycles:a.cycles stepper problem in
    Repro_runtime.Telemetry.set_enabled false;
    Repro_runtime.Telemetry.reset ();
    Exec.free_runtime rt;
    Printf.printf
      "V-2D-4-4-4 N=%d opt+: %.4f s/cycle telemetry off, %.4f s/cycle on \
       (overhead %+.1f%%)\n"
      n t_off t_on
      (100.0 *. ((t_on /. t_off) -. 1.0))
  | "flightrec" ->
    (* recorder-cost gate: the disabled path must be a no-op (and
       allocation-free), and a recorder-on solve of the reference config
       must stay within noise of recorder-off.  Writes one-record
       polymg.bench/1 files for both so CI can hold the <2% line with
       `compare.exe flightrec_off.json flightrec_on.json --threshold
       0.02`. *)
    Harness.assert_flightrec_noop ();
    let module Flightrec = Repro_runtime.Flightrec in
    let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
    let n = 128 in
    let problem = Problem.poisson_random ~dims:2 ~n ~seed:7 in
    let rt = Exec.runtime () in
    let stepper = Solver.polymg_stepper cfg ~n ~opts:Options.opt_plus ~rt in
    let reps = max a.reps 3 in
    Flightrec.set_enabled false;
    (* throwaway pass: page in pool buffers so the off-timing is not
       charged the cold start the on-timing then skips *)
    ignore (Harness.time_stepper ~reps:1 ~cycles:a.cycles stepper problem);
    let t_off = Harness.time_stepper ~reps ~cycles:a.cycles stepper problem in
    Flightrec.set_enabled true;
    let t_on = Harness.time_stepper ~reps ~cycles:a.cycles stepper problem in
    Flightrec.set_enabled false;
    Flightrec.reset ();
    Exec.free_runtime rt;
    Printf.printf
      "V-2D-4-4-4 N=%d opt+: %.4f s/cycle recorder off, %.4f s/cycle on \
       (overhead %+.1f%%)\n"
      n t_off t_on
      (100.0 *. ((t_on /. t_off) -. 1.0));
    Harness.write_gate_record ~path:"flightrec_off.json" ~cfg ~n ~seconds:t_off;
    Harness.write_gate_record ~path:"flightrec_on.json" ~cfg ~n ~seconds:t_on
  | "profile" ->
    (* stats-sink cost gate, same shape as the flightrec leg: the
       disabled probe must be a no-op (and allocation-free), and a
       stats-on solve of the reference config must stay within
       noise of stats-off.  Writes one-record polymg.bench/1 files
       for the CI `compare.exe profile_off.json profile_on.json
       --threshold 0.02` gate, prints the per-site profile table from
       the instrumented run, and with --ledger appends the profiled
       record to the longitudinal ledger for trend.exe. *)
    Harness.assert_probe_noop ();
    let module Profile = Repro_runtime.Profile in
    let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
    let n = 128 in
    let problem = Problem.poisson_random ~dims:2 ~n ~seed:7 in
    let rt = Exec.runtime () in
    let plan = Solver.polymg_plan cfg ~n ~opts:Options.opt_plus in
    let stepper = Solver.plan_stepper plan ~rt in
    let reps = max a.reps 3 in
    Profile.set_enabled false;
    Profile.reset ();
    (* throwaway pass: page in pool buffers so the off-timing is not
       charged the cold start the on-timing then skips *)
    ignore (Harness.time_stepper ~reps:1 ~cycles:a.cycles stepper problem);
    let t_off = Harness.time_stepper ~reps ~cycles:a.cycles stepper problem in
    Profile.set_enabled true;
    let t_on = Harness.time_stepper ~reps ~cycles:a.cycles stepper problem in
    Profile.set_enabled false;
    Printf.printf
      "V-2D-4-4-4 N=%d opt+: %.4f s/cycle profiler off, %.4f s/cycle on \
       (overhead %+.1f%%)\n"
      n t_off t_on
      (100.0 *. ((t_on /. t_off) -. 1.0));
    Profile.report Format.std_formatter;
    Format.pp_print_newline Format.std_formatter ();
    let sites = Profile.sites () in
    Profile.reset ();
    Exec.free_runtime rt;
    Harness.write_gate_record ~path:"profile_off.json" ~cfg ~n ~seconds:t_off;
    Harness.write_gate_record ~path:"profile_on.json" ~cfg ~n ~seconds:t_on;
    (match a.ledger with
     | Some path ->
       Harness.ledger_append ~path ~cfg ~n ~domains:1 ~vname:"opt+"
         ~seconds:t_on ~plan_digest:(Plan.digest plan) ~sites
     | None -> ())
  | "all" ->
    header ();
    Tables.table3 ~cycles:a.cycles ~reps:1 ();
    Tables.fig ~dims:2 ~cls:a.cls ~cycles:a.cycles ~reps:a.reps ();
    Tables.fig ~dims:3 ~cls:a.cls ~cycles:a.cycles ~reps:a.reps ();
    Tables.nas ~cls:a.nas_cls ~iters:3 ~reps:a.reps ();
    Figures.fig11a ~cls:a.cls ~reps:a.reps ();
    Figures.fig11b ~cls:a.cls ~cycles:a.cycles ~reps:a.reps ();
    Figures.fig12 ~cls:Problem.B ~cycles:1 ();
    Figures.scaling ~cls:a.cls ~cycles:a.cycles ~reps:1 ();
    Figures.ablation ~cls:a.cls ~cycles:a.cycles ~reps:a.reps ()
  | _ -> usage ()

let () =
  Harness.init_gc ();
  main ();
  (* any command that emitted BENCH records also leaves the artifact the
     comparator (and CI's regression gate) consumes *)
  Harness.write_results ()
