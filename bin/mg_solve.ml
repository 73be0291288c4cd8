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

(* an output file that cannot be written is a clean exit 1, never an
   uncaught exception *)
let write_or_exit what write =
  let fail msg =
    Printf.eprintf "%s: cannot write %s\n" what msg;
    exit 1
  in
  match write () with
  | () -> ()
  | exception Sys_error msg -> fail msg
  | exception Unix.Unix_error (e, _, path) ->
    fail (path ^ ": " ^ Unix.error_message e)

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
  let usage_error msg =
    prerr_endline msg;
    exit 2
  in
  let shape =
    match Cycle.shape_of_string (String.uppercase_ascii cycle) with
    | Some shape -> shape
    | None -> usage_error "cycle must be V, W or F"
  in
  let n1, n2, n3 =
    match List.map int_of_string_opt (String.split_on_char ',' smoothing) with
    | [ Some a; Some b; Some c ] -> (a, b, c)
    | _ -> usage_error "smoothing must be n1,n2,n3 (three integers)"
  in
  let cfg =
    { (Cycle.default ~dims ~shape ~smoothing:(n1, n2, n3)) with
      Cycle.levels }
  in
  let n =
    match n with
    | Some n -> n
    | None -> Cycle.min_n cfg * 8
  in
  Result.iter_error usage_error (Cycle.check cfg ~n ~cycles);
  if conform then begin
    (* differential oracle on the selected cycle: every plan variant and
       the hand-optimized baselines in lockstep against the naive plan *)
    Printf.printf "%s  N=%d  conformance oracle (%d cycles)\n"
      (Cycle.bench_name cfg) n cycles;
    let case = Conformance.oracle_case cfg ~n ~cycles () in
    Format.printf "%a@." Conformance.pp_case case;
    exit (if Conformance.case_pass case then 0 else 1)
  end;
  let mem_budget =
    match mem_budget with
    | None -> None
    | Some s -> (
      match Govern.bytes_of_string s with
      | Some b -> Some b
      | None ->
        Printf.eprintf
          "mem-budget: cannot parse %S (expected BYTES, optionally with a \
           K/M/G suffix)\n"
          s;
        exit 2)
  in
  let backend =
    match Options.backend_of_string backend with
    | Some b -> b
    | None ->
      Printf.eprintf "backend must be interp, native or auto, not %s\n"
        backend;
      exit 2
  in
  (* Governance knobs and the execution backend ride on the options
     record, so every plan built from them (including demoted ladder
     rungs) inherits them. *)
  let polymg_opts =
    Option.map
      (fun o -> { o with Options.mem_budget; deadline; backend })
      (Options.variant_of_string variant)
  in
  if (mem_budget <> None || deadline <> None) && polymg_opts = None then begin
    Printf.eprintf
      "--mem-budget/--deadline require a PolyMG variant \
       (naive|opt|opt+|dtile-opt+), not %s\n"
      variant;
    exit 2
  end;
  if backend <> Options.Interp && polymg_opts = None then begin
    Printf.eprintf
      "--backend %s requires a PolyMG variant \
       (naive|opt|opt+|dtile-opt+), not %s\n"
      (Options.backend_name backend) variant;
    exit 2
  end;
  (* The flight recorder is always-on (bounded per-domain rings, one
     flag test per event site when idle); --no-flightrec exists for the
     overhead gate in the bench harness. *)
  Flightrec.set_enabled (not no_flightrec);
  Flightrec.set_incident_dir incident_dir;
  let problem = Problem.poisson ~dims ~n in
  let guard_mode = guard || tol <> None in
  let governed_mode = mem_budget <> None && not guard_mode in
  (* ---- durable checkpoint/restart ---------------------------------- *)
  if resume && checkpoint_dir = None then begin
    prerr_endline "--resume requires --checkpoint-dir";
    exit 2
  end;
  if checkpoint_every < 1 then begin
    prerr_endline "--checkpoint-every must be >= 1";
    exit 2
  end;
  (* The active plan digest is needed before the solve starts: resume
     compares it against the checkpoint's, and the sink stamps it into
     every generation.  PolyMG plans are built once here and reused by
     the solve paths below (handopt baselines have no plan). *)
  let preplan, ck_digest =
    match checkpoint_dir with
    | None -> (None, None)
    | Some _ -> (
      match polymg_opts with
      | Some opts ->
        let p = Solver.polymg_plan cfg ~n ~opts in
        (Some p, Some (Plan.digest p))
      | None -> (None, Some "handopt"))
  in
  (* note the plan before any resume incident can fire, so a
     checkpoint-rejected or resume-replan report carries the digest *)
  (match ck_digest with
   | Some d -> Flightrec.note_plan ~digest:d ~variant
   | None -> ());
  let resume_state =
    match (resume, checkpoint_dir) with
    | true, Some dir -> (
      match Checkpoint.load_latest ~dir with
      | Error msg ->
        Printf.eprintf "resume: %s\n" msg;
        exit 6
      | Ok r ->
        let st = r.Checkpoint.state in
        if st.Checkpoint.dims <> dims || st.Checkpoint.n <> n then begin
          Printf.eprintf
            "resume: checkpoint is for dims=%d N=%d, not dims=%d N=%d\n"
            st.Checkpoint.dims st.Checkpoint.n dims n;
          exit 6
        end;
        let cur = Option.get ck_digest in
        if st.Checkpoint.plan_digest <> cur then begin
          (* configuration drifted since the checkpoint: re-plan under
             the current options, keep the restored iterate *)
          if Flightrec.on () then
            Flightrec.emit
              (Flightrec.Resume_replan
                 { old_digest = st.Checkpoint.plan_digest;
                   new_digest = cur });
          ignore
            (Flightrec.incident ~kind:"resume-replan"
               ~cycle:st.Checkpoint.cycle
               ~detail:
                 [ ("checkpoint_digest", Json.Str st.Checkpoint.plan_digest);
                   ("checkpoint_variant", Json.Str st.Checkpoint.variant);
                   ("current_digest", Json.Str cur);
                   ("current_variant", Json.Str variant) ]
               ())
        end;
        Printf.printf "resume: generation %d (cycle %d, residual %.6e)%s\n"
          r.Checkpoint.gen st.Checkpoint.cycle st.Checkpoint.residual
          (match r.Checkpoint.rejected with
           | [] -> ""
           | l ->
             Printf.sprintf "  [%d corrupt generation(s) skipped]"
               (List.length l));
        Some st)
    | _ -> None
  in
  let problem =
    match resume_state with
    | Some st -> { problem with Problem.v = st.Checkpoint.v }
    | None -> problem
  in
  let start_cycle =
    match resume_state with
    | Some st -> st.Checkpoint.cycle + 1
    | None -> 1
  in
  let sink =
    match checkpoint_dir with
    | None -> None
    | Some dir ->
      let ccfg =
        { Checkpoint.dir;
          every =
            Checkpoint.effective_every ~every:checkpoint_every ~deadline;
          keep = Checkpoint.default_keep }
      in
      Some
        (Checkpoint.sink ccfg ~dims ~n ~variant
           ~plan_digest:(Option.get ck_digest)
           ?history_prefix:
             (Option.map (fun st -> st.Checkpoint.history) resume_state)
           ())
  in
  (* SIGINT/SIGTERM: flush a final generation plus an incident report,
     then die with the conventional 128+signum status *)
  (match sink with
   | None -> ()
   | Some s ->
     let on_signal signum =
       let flushed = s.Checkpoint.flush () in
       ignore
         (Flightrec.incident ~kind:"interrupted"
            ~detail:
              [ ( "signal",
                  Json.Str
                    (if signum = Sys.sigint then "SIGINT" else "SIGTERM") );
                ( "checkpoint",
                  match flushed with
                  | Some p -> Json.Str p
                  | None -> Json.Null ) ]
            ());
       exit (128 + if signum = Sys.sigint then 2 else 15)
     in
     Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
     Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal));
  let on_accept = Option.map (fun s -> s.Checkpoint.on_accept) sink in
  (* ------------------------------------------------------------------ *)
  Printf.printf "%s  N=%d  levels=%d  variant=%s  domains=%d%s\n"
    (Cycle.bench_name cfg) n levels variant domains
    (if poison then "  poison=on" else "");
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
  let exit_code = ref 0 in
  let plan_ref = ref None in
  let incident_deadline e =
    ignore
      (Flightrec.incident ~kind:"deadline"
         ~detail:[ ("exception", Json.Str (Printexc.to_string e)) ]
         ())
  in
  let cycle_budget =
    if guard_mode then Option.value max_cycles ~default:cycles else cycles
  in
  let cycles_left = cycle_budget - start_cycle + 1 in
  let stats, v, total_seconds =
    match resume_state with
    | Some st when cycles_left < 1 ->
      (* the checkpoint already covers the requested budget *)
      Printf.printf "resume: cycle %d already meets the %d-cycle budget\n"
        st.Checkpoint.cycle cycle_budget;
      (st.Checkpoint.history, st.Checkpoint.v, 0.0)
    | _ ->
    try
    if governed_mode then begin
      (* Budgeted solve: Govern picks the ladder rung, Mempool enforces
         the budget, Budget_exceeded demotes instead of aborting. *)
      let opts = Option.get polymg_opts in
      match
        Solver.solve_governed cfg ~n ~opts ~domains ~poison
          ~cycles:cycles_left ~start_cycle ?on_accept ~problem ()
      with
      | exception (Repro_runtime.Watchdog.Deadline_exceeded _ as e) ->
        incident_deadline e;
        probes false;
        Printf.eprintf "deadline: %s\n" (Printexc.to_string e);
        exit 4
      | Error inf ->
        probes false;
        Format.eprintf "govern: %a@." Govern.pp_infeasible inf;
        exit 5
      | Ok g ->
        probes false;
        let executed = g.Solver.g_executed in
        plan_ref := Some executed.Govern.plan;
        Format.printf "govern: @[<v>%a@]@?" Govern.pp_report
          g.Solver.g_report;
        if g.Solver.g_runtime_demotions > 0 then
          Printf.printf
            "govern: %d runtime demotion(s); executed rung %s\n"
            g.Solver.g_runtime_demotions executed.Govern.rname;
        if verbose then Format.printf "%a@." Plan.summary executed.Govern.plan;
        let r = g.Solver.g_result in
        print_stats r.Solver.stats;
        (r.Solver.stats, r.Solver.v, r.Solver.total_seconds)
    end
    else
      Exec.with_runtime ~domains ~poison @@ fun rt ->
      (* budget under guard: the pool raises Budget_exceeded, the guard
         sees a crash fault and retries on the unpooled naive fallback *)
      (match polymg_opts with
       | Some o when o.Options.pool && o.Options.mem_budget <> None ->
         Repro_runtime.Mempool.set_budget rt.Exec.pool o.Options.mem_budget
       | Some _ | None -> ());
      let stepper =
        match variant with
        | "handopt" ->
          Flightrec.note_plan ~digest:"handopt" ~variant;
          Handopt.stepper (Handopt.create cfg ~n ~par:rt.Exec.par ())
        | "handopt+pluto" ->
          Flightrec.note_plan ~digest:"handopt" ~variant;
          Handopt.stepper
            (Handopt.create cfg ~n ~par:rt.Exec.par
               ~smoothing:(Handopt.Pluto { sigma = 16 })
               ())
        | v -> (
          match polymg_opts with
          | Some opts ->
            (* build once; the metrics report reuses the same plan so its
               stage names match the executed spans (the checkpoint path
               may already have built it for the digest) *)
            let plan =
              match preplan with
              | Some p -> p
              | None -> Solver.polymg_plan cfg ~n ~opts
            in
            plan_ref := Some plan;
            if verbose then Format.printf "%a@." Plan.summary plan;
            Solver.plan_stepper plan ~rt
          | None ->
            Printf.eprintf
              "unknown variant %s \
               (naive|opt|opt+|dtile-opt+|handopt|handopt+pluto)\n"
              v;
            exit 2)
      in
      let fallback_opts =
        match polymg_opts with
        | Some opts -> Guard.fallback_opts opts
        | None ->
          Options.naive (* handopt variants fall back to the naive plan *)
      in
      if guard_mode then begin
        let policy =
          { Guard.default_policy with
            Guard.tol;
            Guard.max_cycles = Option.value max_cycles ~default:cycles }
        in
        let fallback =
          if no_fallback then None
          else
            Some
              (fun () -> Solver.polymg_stepper cfg ~n ~opts:fallback_opts ~rt)
        in
        let checkpoint =
          Option.map
            (fun s ->
              { Guard.ck_accept = s.Checkpoint.on_accept;
                ck_restore = s.Checkpoint.restore })
            sink
        in
        let r =
          Guard.run ~policy ?checkpoint ~start_cycle ~primary:stepper
            ?fallback ~problem ()
        in
        probes false;
        print_stats r.Guard.stats;
        List.iter
          (fun (e : Guard.event) ->
            Printf.printf "  guard: cycle %d: %s fault — %s\n" e.Guard.cycle
              (Guard.fault_name e.Guard.fault)
              (Guard.action_name e.Guard.action))
          r.Guard.events;
        Printf.printf "guard: %s  residual %.6e  (%d fallback cycle%s)\n"
          (Guard.outcome_name r.Guard.outcome)
          r.Guard.residual r.Guard.fallback_cycles
          (if r.Guard.fallback_cycles = 1 then "" else "s");
        (match r.Guard.outcome with
         | Guard.Faulted _ -> exit_code := 4
         | Guard.Converged | Guard.Exhausted | Guard.Stagnated ->
           if
             List.exists
               (fun (e : Guard.event) ->
                 e.Guard.action = Guard.Quarantined_primary)
               r.Guard.events
           then exit_code := 3);
        (r.Guard.stats, r.Guard.v, r.Guard.total_seconds)
      end
      else begin
        let r =
          try
            Solver.iterate stepper ~problem ~cycles:cycles_left ~start_cycle
              ?on_accept ()
          with Repro_runtime.Watchdog.Deadline_exceeded _ as e ->
            incident_deadline e;
            probes false;
            Printf.eprintf "deadline: %s\n" (Printexc.to_string e);
            exit 4
        in
        probes false;
        print_stats r.Solver.stats;
        (r.Solver.stats, r.Solver.v, r.Solver.total_seconds)
      end
    with
    | Native.Unavailable msg ->
      (* forced --backend native could not run (no compiler, unemittable
         plan, or a compile failure): a deliberate request, a clean
         refusal — never a silent interpreter downgrade *)
      ignore
        (Flightrec.incident ~kind:"native-unavailable"
           ~detail:[ ("reason", Json.Str msg) ]
           ());
      probes false;
      Printf.eprintf "native: %s\n" msg;
      exit 7
    | e ->
      (* any anomaly the structured paths did not already report *)
      ignore
        (Flightrec.incident ~kind:"exception"
           ~detail:[ ("exception", Json.Str (Printexc.to_string e)) ]
           ());
      raise e
  in
  (* final checkpoint: the last accepted cycle is durable even when the
     cadence did not land on it *)
  (match sink with
   | None -> ()
   | Some s -> (
     match s.Checkpoint.flush () with
     | Some path ->
       if verbose then Printf.printf "checkpoint: final flush -> %s\n" path
     | None -> ()));
  let err = Verify.error_l2 ~v ~exact:problem.Problem.exact in
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
    let span_name = if guard_mode then "guard.cycle" else "solver.cycle" in
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
     let plan = !plan_ref in
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
  !exit_code

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
           guarded execution).")

let max_cycles_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-cycles" ]
        ~doc:
          "Cycle budget under guarded execution (defaults to --cycles).")

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
          "Soft per-stage (plan group) deadline.  A stage running past it \
           is cancelled cooperatively at the next tile boundary; under \
           --guard the trip is a recoverable fault (rollback + fallback \
           retry), otherwise the solve stops with exit code 4.")

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
           residual history, plan digest) is written atomically as a new \
           generation (ckpt-NNNNNN.snap, CRC-framed; see README Crash \
           safety); the last 3 generations are retained and a final \
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
    Cmd.Exit.info 3
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
