(* Benchmark harness regenerating every table and figure of the paper
   (see DESIGN.md for the experiment index, EXPERIMENTS.md for results).

   Usage:
     bench/main.exe                    full paper run at class B (default)
     bench/main.exe all --class C      full paper run at class C
     bench/main.exe table3|fig9|fig10|fig11a|fig11b|fig12|nas|scaling
     bench/main.exe quick              fast smoke pass (small sizes) *)

open Repro_mg
open Repro_core
module Telemetry = Repro_runtime.Telemetry

let usage () =
  print_endline
    "usage: main.exe \
     [all|table3|fig9|fig10|fig11a|fig11b|fig12|nas|scaling|quick|native|telemetry|flightrec|profile] \
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

(* ---- sink-cost legs (telemetry, flightrec, profile) ---- *)

let reference_cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4)

(* Paired timing of the reference opt+ plan with one sink off, then on
   ([set] flips it and leaves it off), after a throwaway pass that pages
   in pool buffers so the off-timing is not charged the cold start the
   on-timing then skips.  Prints the overhead line. *)
let sink_overhead ~sink ~set ~n ~reps ~cycles =
  let problem = Problem.poisson_random ~dims:2 ~n ~seed:7 in
  let plan = Solver.polymg_plan reference_cfg ~n ~opts:Options.opt_plus in
  Exec.with_runtime @@ fun rt ->
  let stepper = Solver.plan_stepper plan ~rt in
  let time reps = Tune.seconds_per_cycle ~reps ~cycles stepper problem in
  set false;
  ignore (time 1);
  let t_off = time reps in
  set true;
  let t_on = time reps in
  set false;
  Printf.printf
    "V-2D-4-4-4 N=%d opt+: %.4f s/cycle %s off, %.4f s/cycle on (overhead \
     %+.1f%%)\n"
    n t_off sink t_on
    (100.0 *. ((t_on /. t_off) -. 1.0));
  (plan, t_off, t_on)

let main () =
  let a = parse_args () in
  let header () =
    Printf.printf
      "PolyMG paper harness — class %s, %d cycle(s) per measurement, min of %d\n"
      (Problem.cls_name a.cls) a.cycles a.reps
  in
  match a.cmd with
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
    ignore
      (sink_overhead ~sink:"telemetry" ~set:Telemetry.set_enabled ~n:256
         ~reps:a.reps ~cycles:a.cycles);
    Telemetry.reset ()
  | "flightrec" ->
    (* recorder-cost gate: the disabled path must be a no-op (and
       allocation-free), and a recorder-on solve must stay within noise
       of recorder-off; CI holds the <2% line on the gate files *)
    Harness.assert_flightrec_noop ();
    let module Flightrec = Repro_runtime.Flightrec in
    let _, t_off, t_on =
      sink_overhead ~sink:"recorder" ~set:Flightrec.set_enabled ~n:128
        ~reps:(max a.reps 3) ~cycles:a.cycles
    in
    Flightrec.reset ();
    Harness.write_gates "flightrec" ~cfg:reference_cfg ~n:128 ~off:t_off
      ~on:t_on
  | "profile" ->
    (* stats-sink cost gate, same shape as the flightrec leg; also
       prints the per-site profile table of the instrumented run and,
       with --ledger, appends its record to the longitudinal ledger for
       trend.exe *)
    Harness.assert_probe_noop ();
    let module Profile = Repro_runtime.Profile in
    Profile.reset ();
    let plan, t_off, t_on =
      sink_overhead ~sink:"profiler" ~set:Profile.set_enabled ~n:128
        ~reps:(max a.reps 3) ~cycles:a.cycles
    in
    Profile.report Format.std_formatter;
    Format.pp_print_newline Format.std_formatter ();
    let sites = Profile.sites () in
    Profile.reset ();
    Harness.write_gates "profile" ~cfg:reference_cfg ~n:128 ~off:t_off
      ~on:t_on;
    (match a.ledger with
     | Some path ->
       Harness.ledger_append ~path ~cfg:reference_cfg ~n:128 ~domains:1
         ~vname:"opt+" ~seconds:t_on ~plan_digest:(Plan.digest plan) ~sites
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
    Figures.scaling ~cls:a.cls ~cycles:a.cycles ~reps:1 ()
  | _ -> usage ()

let () =
  Harness.init_gc ();
  main ();
  (* any command that emitted BENCH records also leaves the artifact the
     comparator (and CI's regression gate) consumes *)
  Harness.write_results ()
