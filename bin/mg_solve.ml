(* Command-line multigrid solver: the end-to-end driver a user runs.

   Examples:
     mg_solve --dims 2 --cycle V --n 256 --cycles 10
     mg_solve --dims 3 --cycle W --smoothing 10,0,0 --variant dtile-opt+
     mg_solve --dims 2 --cycle F --levels 6 --variant handopt --verbose
     mg_solve --guard --tol 1e-9 --max-cycles 40 --variant opt+ *)

open Cmdliner
open Repro_mg
open Repro_core
module Telemetry = Repro_runtime.Telemetry
module Flightrec = Repro_runtime.Flightrec
module Profile = Repro_runtime.Profile
module Metrics = Repro_runtime.Metrics
module Snapshot = Repro_runtime.Snapshot
module Json = Repro_runtime.Json

let print_stats stats =
  List.iter
    (fun (s : Solver.cycle_stats) ->
      Printf.printf "  cycle %2d: residual %.6e  (%.4fs)%s\n" s.Solver.cycle
        s.Solver.residual s.Solver.seconds
        (if s.Solver.status = Solver.Ok then ""
         else "  [" ^ Solver.status_name s.Solver.status ^ "]"))
    stats

(* a one-line message on stderr, then [exit code] *)
let fail code fmt =
  Format.kfprintf (fun _ -> exit code) Format.err_formatter (fmt ^^ "@.")

(* an output file that cannot be written is a clean exit 1, never an
   uncaught exception *)
let write_or_exit what write =
  try write () with
  | Sys_error msg -> fail 1 "%s: cannot write %s" what msg
  | Unix.Unix_error (e, _, path) ->
    fail 1 "%s: cannot write %s: %s" what path (Unix.error_message e)

let print_status_summary stats =
  let count st =
    List.length (List.filter (fun s -> s.Solver.status = st) stats)
  in
  Printf.printf "status: ok=%d nan=%d diverged=%d stagnated=%d\n"
    (count Solver.Ok) (count Solver.Nan) (count Solver.Diverged)
    (count Solver.Stagnated)

let run dims cycle smoothing levels n variant backend cycles domains verbose
    profile trace metrics tol max_cycles guard no_fallback poison mem_budget
    deadline conform health no_flightrec incident_dir checkpoint_dir
    checkpoint_every resume =
  Gc.set
    { (Gc.get ()) with
      Gc.custom_major_ratio = 10000;
      Gc.custom_minor_ratio = 10000 };
  let parsed what = function Some v -> v | None -> fail 2 "%s" what in
  let shape =
    parsed "cycle must be V, W or F"
      (Cycle.shape_of_string (String.uppercase_ascii cycle))
  in
  let smoothing =
    parsed "smoothing must be n1,n2,n3 (three integers)"
      (match List.map int_of_string_opt (String.split_on_char ',' smoothing)
       with
       | [ Some a; Some b; Some c ] -> Some (a, b, c)
       | _ -> None)
  in
  let mem_budget =
    Option.map
      (fun b ->
        parsed
          (Printf.sprintf
             "mem-budget: cannot parse %S (expected BYTES, optionally with a \
              K/M/G suffix)"
             b)
          (Govern.bytes_of_string b))
      mem_budget
  in
  let backend =
    parsed
      ("backend must be interp, native or auto, not " ^ backend)
      (Options.backend_of_string backend)
  in
  if resume && checkpoint_dir = None then
    fail 2 "--resume requires --checkpoint-dir";
  let rq =
    match
      Request.validate
        { Request.default_spec with
          dims; levels; n; shape; smoothing; variant; backend; cycles;
          max_cycles; tol; guard; fallback = not no_fallback; domains; poison;
          mem_budget; deadline; checkpoint_dir; checkpoint_every;
          resume_dir = (if resume then checkpoint_dir else None) }
    with
    | Ok rq -> rq
    | Error msg -> fail 2 "%s" msg
  in
  let cfg = Request.cfg rq and n = Request.n rq in
  if conform then begin
    (* differential oracle on the selected cycle: every plan variant and
       the hand-optimized baselines in lockstep against the naive plan *)
    Printf.printf "%s  N=%d  conformance oracle (%d cycles)\n"
      (Cycle.bench_name cfg) n cycles;
    let case = Conformance.oracle_case cfg ~n ~cycles () in
    Format.printf "%a@." Conformance.pp_case case;
    exit (if Conformance.case_pass case then 0 else 1)
  end;
  (* The flight recorder is always-on (bounded per-domain rings, one
     flag test per event site when idle); --no-flightrec exists for the
     overhead gate in the bench harness. *)
  Flightrec.set_enabled (not no_flightrec);
  Flightrec.set_incident_dir incident_dir;
  (* every observability output reads the one probe: spans for the
     profile table and the trace, per-site stats for the metrics
     document; both sinks switch on and off together *)
  let probes on =
    Telemetry.set_enabled on;
    Profile.set_enabled on
  in
  if profile || trace <> None || metrics <> None then begin
    Telemetry.reset ();
    Profile.reset ();
    Metrics.reset ();
    probes true
  end;
  (* once the resume is accepted: the resume line, the banner, and the
     SIGINT/SIGTERM handlers that flush a final generation plus an
     incident report, then die with the conventional 128+signum status *)
  let on_start ~resumed sink =
    Option.iter
      (fun r ->
        let st = r.Checkpoint.state in
        Printf.printf "resume: generation %d (cycle %d, residual %.6e)%s\n"
          r.Checkpoint.gen st.Checkpoint.cycle st.Checkpoint.residual
          (match r.Checkpoint.rejected with
           | [] -> ""
           | l ->
             Printf.sprintf "  [%d corrupt generation(s) skipped]"
               (List.length l)))
      resumed;
    Printf.printf "%s  N=%d  levels=%d  variant=%s  domains=%d%s\n%!"
      (Cycle.bench_name cfg) n levels variant domains
      (if poison then "  poison=on" else "");
    let on_signal (s : Checkpoint.sink) signum =
      let flushed = s.Checkpoint.flush () in
      ignore
        (Flightrec.incident ~kind:"interrupted"
           ~detail:
             [ ( "signal",
                 Json.Str (if signum = Sys.sigint then "SIGINT" else "SIGTERM")
               );
               ( "checkpoint",
                 match flushed with Some p -> Json.Str p | None -> Json.Null )
             ]
           ());
      exit (128 + if signum = Sys.sigint then 2 else 15)
    in
    Option.iter
      (fun s ->
        Sys.set_signal Sys.sigint (Sys.Signal_handle (on_signal s));
        Sys.set_signal Sys.sigterm (Sys.Signal_handle (on_signal s)))
      sink
  in
  (* the hand-optimized baselines: steppers without a plan *)
  let baseline rt =
    let smoothing =
      if variant = "handopt+pluto" then Handopt.Pluto { sigma = 16 }
      else Handopt.Plain
    in
    Handopt.stepper (Handopt.create cfg ~n ~par:rt.Exec.par ~smoothing ())
  in
  let outcome =
    match Request.run ~on_start ~baseline rq with
    | outcome -> outcome
    | exception Native.Unavailable msg ->
      (* forced --backend native could not run (no compiler, unemittable
         plan, or a compile failure): a deliberate request, a clean
         refusal — never a silent interpreter downgrade *)
      ignore
        (Flightrec.incident ~kind:"native-unavailable"
           ~detail:[ ("reason", Json.Str msg) ]
           ());
      fail 7 "native: %s" msg
    | exception e ->
      (* any anomaly the structured paths did not already report *)
      ignore
        (Flightrec.incident ~kind:"exception"
           ~detail:[ ("exception", Json.Str (Printexc.to_string e)) ]
           ());
      raise e
  in
  probes false;
  let code = Request.code_of_status (Request.status outcome) in
  let s =
    match outcome with
    | Request.No_resume msg -> fail code "resume: %s" msg
    | Request.Stopped msg -> fail code "deadline: %s" msg
    | Request.Over_budget inf ->
      fail code "govern: %a" Govern.pp_infeasible inf
    | Request.Solved s -> s
  in
  (* a checkpoint already covering the cycle budget: nothing ran *)
  let covered =
    match s.Request.resumed with
    | Some { Checkpoint.state = { Checkpoint.cycle; _ }; _ }
      when cycle >= Request.cycles rq ->
      Printf.printf "resume: cycle %d already meets the %d-cycle budget\n"
        cycle (Request.cycles rq);
      true
    | Some _ | None -> false
  in
  (match s.Request.report with
   | Some report ->
     Format.printf "govern: @[<v>%a@]@?" Govern.pp_report report;
     if s.Request.runtime_demotions > 0 then
       Printf.printf "govern: %d runtime demotion(s); executed rung %s\n"
         s.Request.runtime_demotions
         (Option.get s.Request.rung).Govern.rname
   | None -> ());
  (match s.Request.plan with
   | Some plan when verbose -> Format.printf "%a@." Plan.summary plan
   | _ -> ());
  let stats = s.Request.stats and total_seconds = s.Request.total_seconds in
  if not covered then print_stats stats;
  (match s.Request.guarded with
   | Some r ->
     List.iter
       (fun (e : Guard.event) ->
         Printf.printf "  guard: cycle %d: %s fault — %s\n" e.Guard.cycle
           (Guard.fault_name e.Guard.fault)
           (Guard.action_name e.Guard.action))
       r.Guard.events;
     Printf.printf "guard: %s  residual %.6e  (%d fallback cycle%s)\n"
       (Guard.outcome_name r.Guard.outcome)
       r.Guard.residual r.Guard.fallback_cycles
       (if r.Guard.fallback_cycles = 1 then "" else "s")
   | None -> ());
  (match s.Request.flushed with
   | Some path when verbose ->
     Printf.printf "checkpoint: final flush -> %s\n" path
   | _ -> ());
  let problem = s.Request.problem in
  let err = Verify.error_l2 ~v:s.Request.v ~exact:problem.Problem.exact in
  Printf.printf "total %.4fs; error vs continuous solution: %.6e\n"
    total_seconds err;
  (* Convergence observatory: a sequential reference probe of the same
     cycle, reported on demand and embedded in the metrics document. *)
  let health_report =
    if health || metrics <> None then
      match Health.observe cfg ~n ~cycles ~problem () with
      | h -> Some h
      | exception Invalid_argument msg ->
        if health then Printf.eprintf "health: %s\n" msg;
        None
    else None
  in
  (match (health, health_report) with
  | true, Some h -> Format.printf "%a@." Health.pp h
  | _ -> ());
  if profile then begin
    print_status_summary stats;
    Format.printf "%t@." (fun fmt -> Telemetry.report fmt);
    let span_name =
      if Request.guarded rq then "guard.cycle" else "solver.cycle"
    in
    let span_total = float_of_int (Telemetry.span_total_ns span_name) /. 1e9 in
    Printf.printf "profile: cycle-span total %.4fs vs wall-clock %.4fs (%+.2f%%)\n"
      span_total total_seconds
      (if total_seconds = 0.0 then 0.0
       else 100.0 *. (span_total -. total_seconds) /. total_seconds)
  end;
  (match trace with
   | Some path ->
     write_or_exit "trace" (fun () ->
         Snapshot.atomic_write_string ~path (Telemetry.chrome_trace ()));
     Printf.printf "trace: wrote %s (load in chrome://tracing or Perfetto)\n"
       path
   | None -> ());
  (match metrics with
   | None -> ()
   | Some path ->
     let plan = s.Request.plan in
     let cost = Option.map Cost.of_plan plan in
     let roofline = Repro_runtime.Roofline.get () in
     let doc =
       Perf_report.build ~health:health_report ~cfg ~n ~variant ~domains
         ~cost ~plan ~stats ~total_seconds
         ~counters:(Telemetry.counters ()) ~roofline
     in
     write_or_exit "metrics" (fun () -> Perf_report.write ~path doc);
     Printf.printf
       "metrics: wrote %s (roofline %.1f GB/s, %.1f GFLOP/s)\n" path
       roofline.Repro_runtime.Roofline.bandwidth_gbs
       roofline.Repro_runtime.Roofline.gflops);
  code

let dims_t =
  Arg.(value & opt int 2 & info [ "dims" ] ~doc:"Grid rank (2 or 3).")

let cycle_t =
  Arg.(value & opt string "V" & info [ "cycle" ] ~doc:"Cycle shape: V, W or F.")

let smoothing_t =
  Arg.(
    value & opt string "4,4,4"
    & info [ "smoothing" ] ~doc:"Smoothing steps n1,n2,n3 (pre,coarse,post).")

let levels_t =
  Arg.(value & opt int 4 & info [ "levels" ] ~doc:"Multigrid levels.")

let n_t =
  Arg.(
    value & opt (some int) None
    & info [ "n"; "size" ] ~doc:"Problem size parameter N (interior is N-1).")

let variant_t =
  Arg.(
    value & opt string "opt+"
    & info [ "variant" ]
        ~doc:"naive | opt | opt+ | dtile-opt+ | handopt | handopt+pluto.")

let backend_t =
  Arg.(
    value & opt string "interp"
    & info [ "backend" ]
        ~doc:
          "Execution backend for PolyMG plans: $(b,interp) runs the plan \
           through the engine's interpreter; $(b,native) compiles the \
           plan's emitted C to a dlopen'd kernel (exits 7 when no C \
           compiler is available or the plan cannot be compiled); \
           $(b,auto) prefers native and falls back to the interpreter, \
           counting the fallback and filing a native-fallback incident.")

let cycles_t =
  Arg.(value & opt int 5 & info [ "cycles" ] ~doc:"Multigrid cycles to run.")

let domains_t =
  Arg.(value & opt int 1 & info [ "domains" ] ~doc:"Worker domains.")

let verbose_t =
  Arg.(value & flag & info [ "verbose" ] ~doc:"Print the optimized plan.")

let profile_t =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:"Record telemetry and print the per-stage/per-group profile.")

let trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a Chrome trace-event JSON file of the run.")

let metrics_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write a self-describing JSON metrics document for the run: \
           config, plan digest, per-stage predicted bytes/FLOPs vs \
           measured time against the machine roofline, residual history \
           and runtime counters.")

let tol_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "tol" ]
        ~doc:
          "Stop when the L2 residual reaches this tolerance (implies \
           guarded execution; must be finite and > 0).")

let max_cycles_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-cycles" ]
        ~doc:
          "Cycle budget under guarded execution (defaults to --cycles; \
           at least 1).")

let guard_t =
  Arg.(
    value & flag
    & info [ "guard" ]
        ~doc:
          "Guarded execution: detect NaN/divergence per cycle, roll back \
           to the last good iterate and retry on a naive-plan fallback.")

let no_fallback_t =
  Arg.(
    value & flag
    & info [ "no-fallback" ]
        ~doc:"Under --guard, stop on the first fault instead of falling \
              back to the naive plan.")

let poison_t =
  Arg.(
    value & flag
    & info [ "poison" ]
        ~doc:
          "Poison pooled buffers with signaling NaNs and canary guard \
           words (debug aid for storage bugs).")

let mem_budget_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "mem-budget" ] ~docv:"BYTES"
        ~doc:
          "Byte budget for the runtime working footprint (suffixes K/M/G, \
           binary).  Planning walks the degradation ladder (dtile-opt+ → \
           opt+ → opt → naive order of aggressiveness) to the best rung \
           whose modelled footprint fits, reports every demotion, and \
           arms pool budget enforcement at run time.  Exits with 5 when \
           no rung fits.")

let deadline_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Soft per-stage (plan group) deadline (finite and > 0).  A \
           stage running past it is cancelled cooperatively at the next \
           tile boundary; under --guard the trip is a recoverable fault \
           (rollback + fallback retry), otherwise the solve stops with \
           exit code 4.")

let conform_t =
  Arg.(
    value & flag
    & info [ "conform" ]
        ~doc:
          "Instead of solving, run the conformance oracle on the selected \
           cycle: every plan variant and the hand-optimized baselines in \
           lockstep against the naive plan, pairwise within the documented \
           tolerance budgets (see TESTING.md).  Exits 1 on any mismatch.")

let health_t =
  Arg.(
    value & flag
    & info [ "health" ]
        ~doc:
          "After the solve, run the convergence observatory: a sequential \
           reference cycle instrumented per level, reporting per-cycle and \
           asymptotic convergence factors, per-level smoothing rates, and \
           stall attribution (which level stopped reducing its residual, \
           and when).  The same block is embedded in --metrics output.")

let no_flightrec_t =
  Arg.(
    value & flag
    & info [ "no-flightrec" ]
        ~doc:
          "Disable the flight recorder (always-on bounded ring buffer of \
           structured runtime events; see README Observability).  With \
           the recorder off no incident reports are written.")

let incident_dir_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "incident-dir" ] ~docv:"DIR"
        ~doc:
          "Directory for incident reports.  On any anomaly (guard fault, \
           quarantine, deadline stop, budget infeasibility, uncaught \
           exception) a self-contained JSON report — event tail, plan \
           digest, policy, residual history, counters, environment — is \
           written there and summarized on stderr.")

let checkpoint_dir_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint-dir" ] ~docv:"DIR"
        ~doc:
          "Directory for durable solver checkpoints.  Every \
           --checkpoint-every accepted cycles the solver state (iterate, \
           residual history, plan digest) is written durably as a new \
           generation (ckpt-NNNNNN.snap, CRC-framed; see README Crash \
           safety); the directory keeps a ring of 4 generations, the \
           oldest rewritten in place by the next save, and a final \
           generation is flushed at solve end and on SIGINT/SIGTERM.")

let checkpoint_every_t =
  Arg.(
    value & opt int 1
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          "Checkpoint cadence in accepted cycles (default 1).  Under a \
           --deadline the cadence is clamped to every cycle, so a \
           deadline stop never loses more than one cycle of work.")

let resume_t =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Resume from the newest verifiable generation in \
           --checkpoint-dir: corrupt (torn, truncated, bit-flipped) \
           generations are detected by CRC framing and skipped for older \
           ones.  The restored cycle count continues toward --cycles (or \
           --max-cycles under --guard).  If the stored plan digest \
           differs from the current configuration the solve re-plans and \
           records a resume-replan incident.  Exits 6 when no usable \
           generation exists.")

let cmd =
  let doc = "solve the Poisson problem with PolyMG geometric multigrid" in
  let exits =
    Cmd.Exit.info 2
      ~doc:
        "invalid request: a shape, variant or value the request \
         validator refuses (for example --max-cycles below 1 under \
         guarded execution, or a --tol or --deadline that is not finite \
         and > 0)."
    :: Cmd.Exit.info 3
         ~doc:
           "guarded execution quarantined the primary plan; the solve \
            finished on the fallback plan."
    :: Cmd.Exit.info 4
         ~doc:
           "fault-stop: an unrecoverable fault (or a tripped --deadline \
            outside guarded mode) stopped the solve."
    :: Cmd.Exit.info 5
         ~doc:
           "memory budget infeasible: no degradation-ladder rung fits \
            --mem-budget."
    :: Cmd.Exit.info 6
         ~doc:
           "resume failed: --checkpoint-dir holds no usable checkpoint \
            generation (or the checkpoint is for a different problem \
            size)."
    :: Cmd.Exit.info 7
         ~doc:
           "native backend unavailable: --backend native was forced but \
            no C compiler was found, the plan is not compilable, or \
            compilation failed."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "mg_solve" ~doc ~exits)
    Term.(
      const run $ dims_t $ cycle_t $ smoothing_t $ levels_t $ n_t $ variant_t
      $ backend_t $ cycles_t $ domains_t $ verbose_t $ profile_t $ trace_t
      $ metrics_t $ tol_t $ max_cycles_t $ guard_t $ no_fallback_t $ poison_t
      $ mem_budget_t $ deadline_t $ conform_t $ health_t $ no_flightrec_t
      $ incident_dir_t $ checkpoint_dir_t $ checkpoint_every_t $ resume_t)

let () = exit (Cmd.eval' cmd)
