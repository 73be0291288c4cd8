(* Compiler introspection: prints the pipeline DAG, the grouping and
   storage mapping (the Fig. 6 dump), the generated C (Fig. 8), or the
   plan "explain" — predicted plan metrics next to measured telemetry
   from a trial cycle.

   Examples:
     polymg_dump --what dag
     polymg_dump --what groups --variant opt+ --smoothing 4,4,4
     polymg_dump --what c --dims 2 --cycle V > vcycle.c
     polymg_dump --what explain --variant opt+ -n 64
     polymg_dump --what check --variant dtile-opt+ -n 64 *)

open Cmdliner
open Repro_mg
open Repro_core
module Telemetry = Repro_runtime.Telemetry

(* Predicted side: what the optimizer claims the plan will do — all
   numbers come from the Cost model (the same one behind --what cost and
   mg_solve --metrics, so the three can never disagree).  Storage savings
   are measured against ablated rebuilds of the same plan (the Fig. 11b
   methodology). *)
let explain_predicted pipeline cfg ~(opts : Options.t) ~n plan =
  let params = Cycle.params cfg ~n in
  let cost = Cost.of_plan plan in
  let sum f =
    Array.fold_left (fun a (s : Cost.stage) -> a + f s) 0 cost.Cost.stages
  in
  let computed = sum (fun s -> s.Cost.points) in
  let domain = sum (fun s -> s.Cost.domain) in
  Printf.printf "predicted:\n";
  Printf.printf "  groups %d  members %d  arrays %d\n" (Plan.group_count plan)
    (Plan.member_count plan) (Plan.array_count plan);
  let ab = Plan.total_array_bytes plan in
  let ab0 =
    Plan.total_array_bytes
      (Plan.build pipeline ~opts:{ opts with Options.array_reuse = false } ~n
         ~params)
  in
  Printf.printf "  full-array bytes %d (no array-reuse: %d, saved %.1f%%)\n" ab
    ab0
    (if ab0 = 0 then 0.0
     else 100.0 *. (1.0 -. (float_of_int ab /. float_of_int ab0)));
  let sb = Plan.scratch_bytes_per_thread plan in
  let sb0 =
    Plan.scratch_bytes_per_thread
      (Plan.build pipeline ~opts:{ opts with Options.scratch_reuse = false } ~n
         ~params)
  in
  Printf.printf
    "  scratch bytes/thread %d (no scratch-reuse: %d, saved %.1f%%)\n" sb sb0
    (if sb0 = 0 then 0.0
     else 100.0 *. (1.0 -. (float_of_int sb /. float_of_int sb0)));
  Printf.printf
    "  points computed %d  useful %d  expected redundant fraction %.2f%%\n"
    computed domain
    (100.0 *. ((float_of_int computed /. float_of_int domain) -. 1.0));
  let mb x = float_of_int x /. 1048576.0 in
  Printf.printf
    "  dram traffic %.2f MiB/cycle (read %.2f, write %.2f)  scratch %.2f MiB\n"
    (mb (Cost.total_bytes cost))
    (mb cost.Cost.dram_read) (mb cost.Cost.dram_write)
    (mb cost.Cost.scratch_traffic);
  Printf.printf "  flops %.2fM/cycle  arithmetic intensity %.3f flop/byte\n"
    (cost.Cost.flops /. 1e6) cost.Cost.intensity;
  Array.iteri
    (fun gi g ->
      let cg = cost.Cost.groups.(gi) in
      let ws =
        Printf.sprintf "working set %.2f MiB (%s)" (mb cg.Cost.working_set)
          cg.Cost.fits_in
      in
      match g with
      | Plan.G_tiled tg ->
        Printf.printf
          "  group %d: overlapped, %d members, %d tiles, redundancy %.2f%%, %s\n"
          tg.Plan.gid
          (Array.length tg.Plan.members)
          (Array.length tg.Plan.tiles)
          (100.0 *. cg.Cost.redundancy)
          ws
      | Plan.G_diamond dg ->
        let scheme =
          match dg.Plan.scheme with
          | Plan.Sched_diamond { sigma } ->
            Printf.sprintf "diamond sigma=%d" sigma
          | Plan.Sched_skewed { tau; sigma } ->
            Printf.sprintf "skewed tau=%d sigma=%d" tau sigma
        in
        Printf.printf
          "  group %d: time-tiled (%s), %d steps, redundancy 0%%, %s\n"
          dg.Plan.gid scheme
          (Array.length dg.Plan.steps)
          ws)
    plan.Plan.groups

(* Measured side: one instrumented trial cycle of the same variant. *)
let explain_measured cfg ~opts ~n =
  let problem = Problem.poisson ~dims:cfg.Cycle.dims ~n in
  Exec.with_runtime @@ fun rt ->
  let stepper = Solver.polymg_stepper cfg ~n ~opts ~rt in
  Telemetry.reset ();
  Telemetry.set_enabled true;
  ignore (Solver.iterate stepper ~problem ~cycles:1 ~residuals:false ());
  Telemetry.set_enabled false;
  Printf.printf "measured (1 trial cycle):\n";
  Format.printf "%t@." (fun fmt -> Telemetry.report fmt);
  let v name =
    List.assoc_opt name (Telemetry.counters ()) |> Option.value ~default:0
  in
  let computed = v "exec.points_computed" in
  let redundant = v "exec.points_redundant" in
  Printf.printf "  measured redundant fraction %.2f%%  pool hit rate %s\n"
    (if computed = redundant then 0.0
     else
       100.0 *. float_of_int redundant /. float_of_int (computed - redundant))
    (let acq = v "mempool.acquire" in
     if acq = 0 then "n/a (pooling off)"
     else Printf.sprintf "%.0f%%" (100.0 *. float_of_int (v "mempool.hit") /. float_of_int acq));
  Telemetry.reset ()

(* Everything a mode action may need, resolved once in [run]. *)
type ctx = {
  cfg : Cycle.config;
  pipeline : Repro_ir.Pipeline.t;
  opts : Options.t;
  n : int;
  mem_budget : string option;
  domains : int;
}

let plan_of ctx =
  Plan.build ctx.pipeline ~opts:ctx.opts ~n:ctx.n
    ~params:(Cycle.params ctx.cfg ~n:ctx.n)

(* The single source of truth for --what: each mode's name, its slice of
   the --what help text, and its action.  The help string, the dispatch
   and the unknown-mode error are all derived from this table. *)
let modes : (string * string * (ctx -> unit)) list =
  [ ( "dag",
      "the pipeline DAG",
      fun ctx -> Format.printf "%a@." Repro_ir.Pipeline.pp ctx.pipeline );
    ( "groups",
      "the grouping and storage mapping",
      fun ctx -> Format.printf "%a@." Plan.summary (plan_of ctx) );
    ( "c",
      "the generated C pipeline function, without a main: the code the \
       native backend compiles",
      fun ctx -> print_string (C_emit.to_string (plan_of ctx)) );
    ( "cost",
      "the analytical per-stage bytes/FLOPs model",
      fun ctx ->
        Printf.printf "== cost: %s  n=%d  variant=%s ==\n"
          (Cycle.bench_name ctx.cfg) ctx.n (Options.name ctx.opts);
        Format.printf "%a@." Cost.pp (Cost.of_plan (plan_of ctx)) );
    ( "explain",
      "predicted plan metrics next to measured telemetry from a trial \
       cycle",
      fun ctx ->
        Printf.printf "== plan explain: %s  n=%d  variant=%s ==\n"
          (Cycle.bench_name ctx.cfg) ctx.n (Options.name ctx.opts);
        explain_predicted ctx.pipeline ctx.cfg ~opts:ctx.opts ~n:ctx.n
          (plan_of ctx);
        explain_measured ctx.cfg ~opts:ctx.opts ~n:ctx.n );
    ( "check",
      "run the Plan_check storage-safety pass and report violations",
      fun ctx ->
        let plan = plan_of ctx in
        match Plan_check.check plan with
        | Ok () ->
          Printf.printf
            "plan check: OK — %d groups, %d members, %d arrays storage-safe\n"
            (Plan.group_count plan) (Plan.member_count plan)
            (Plan.array_count plan)
        | Error issues ->
          List.iter (fun s -> Printf.printf "plan check: %s\n" s) issues;
          Printf.printf "plan check: FAILED — %d issue%s\n"
            (List.length issues)
            (if List.length issues = 1 then "" else "s");
          exit 1 );
    ( "budget",
      "the resource-governance degradation ladder: every rung's modelled \
       footprint and cost, the chosen rung under --mem-budget, and each \
       demotion's cost delta",
      fun ctx ->
        let mem_budget =
          match ctx.mem_budget with
          | None -> None
          | Some s -> (
            match Govern.bytes_of_string s with
            | Some b -> Some b
            | None ->
              Printf.eprintf "mem-budget: cannot parse %S\n" s;
              exit 2)
        in
        let opts = { ctx.opts with Options.mem_budget } in
        Printf.printf
          "== budget ladder: %s  n=%d  variant=%s  domains=%d ==\n"
          (Cycle.bench_name ctx.cfg) ctx.n (Options.name opts) ctx.domains;
        match
          Govern.decide ~domains:ctx.domains ctx.pipeline ~opts ~n:ctx.n
            ~params:(Cycle.params ctx.cfg ~n:ctx.n)
        with
        | Ok report -> Format.printf "@[<v>%a@]@." Govern.pp_report report
        | Error inf ->
          Format.printf "%a@." Govern.pp_infeasible inf;
          exit 5 );
    ( "conform",
      "the backend-axis conformance case: compile the emitted C into a \
       native kernel and run it against the engine at 1 and 4 domains, \
       on deterministically filled inputs and then for 3 lockstep \
       cycles, diffing every output grid; exits 1 on mismatch",
      fun ctx ->
        match Native.cc () with
        | None ->
          print_endline "conform: SKIPPED (no C compiler found (tried gcc, cc))"
        | Some _ ->
          let case =
            Conformance.native_case
              ~variants:[ (Options.name ctx.opts, ctx.opts) ]
              ctx.cfg ~n:ctx.n ~cycles:3 ()
          in
          Format.printf "%a@." Conformance.pp_case case;
          if not (Conformance.case_pass case) then exit 1 );
    ( "calibrate",
      "cost-model calibration: join the analytical per-stage roofline \
       predictions with profiler-measured times across shapes x \
       variants, reporting per-stage model error and the Spearman rank \
       correlation of predicted-vs-measured plan ordering",
      fun ctx ->
        let shapes = if ctx.n >= 64 then [ ctx.n / 2; ctx.n ] else [ ctx.n ] in
        let cal =
          Calibrate.run ctx.cfg ~n:ctx.n ~shapes ~domains:ctx.domains
        in
        Format.printf "%a@." Calibrate.pp cal );
    ( "health",
      "the convergence observatory on the selected cycle: per-cycle and \
       asymptotic convergence factors, per-level smoothing rates and \
       stall attribution over 8 reference cycles",
      fun ctx ->
        match Health.observe ctx.cfg ~n:ctx.n ~cycles:8 () with
        | h -> Format.printf "%a@." Health.pp h
        | exception Invalid_argument msg ->
          Printf.eprintf "health: %s\n" msg;
          exit 2 ) ]

let mode_names = String.concat ", " (List.map (fun (m, _, _) -> m) modes)

let fail msg =
  prerr_endline ("polymg_dump: " ^ msg);
  exit 2

let parsed what = function Some v -> v | None -> fail what

let run dims cycle smoothing levels n variant what mem_budget domains backend =
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
  let cfg = { (Cycle.default ~dims ~shape ~smoothing) with Cycle.levels } in
  Result.iter_error fail (Cycle.check cfg ~n ~cycles:1);
  let pipeline = Cycle.build cfg in
  let opts =
    parsed ("unknown variant " ^ variant) (Options.variant_of_string variant)
  in
  let backend =
    parsed
      ("backend must be interp, native or auto, not " ^ backend)
      (Options.backend_of_string backend)
  in
  let opts = { opts with Options.backend } in
  let ctx = { cfg; pipeline; opts; n; mem_budget; domains } in
  match List.find_opt (fun (m, _, _) -> m = what) modes with
  | Some (_, _, action) -> action ctx
  | None ->
    Printf.eprintf "unknown --what %S: must be one of %s\n" what mode_names;
    exit 2

let dims_t = Arg.(value & opt int 2 & info [ "dims" ] ~doc:"Grid rank.")
let cycle_t = Arg.(value & opt string "V" & info [ "cycle" ] ~doc:"V, W or F.")

let smoothing_t =
  Arg.(value & opt string "4,4,4" & info [ "smoothing" ] ~doc:"n1,n2,n3.")

let levels_t = Arg.(value & opt int 4 & info [ "levels" ] ~doc:"Levels.")
let n_t = Arg.(value & opt int 64 & info [ "n"; "size" ] ~doc:"Problem size N.")

let variant_t =
  Arg.(value & opt string "opt+" & info [ "variant" ] ~doc:"Optimizer preset.")

let what_t =
  let doc =
    (* derived from the mode table so help can never drift from dispatch *)
    "What to print: "
    ^ String.concat "; "
        (List.map (fun (m, desc, _) -> m ^ " (" ^ desc ^ ")") modes)
    ^ "."
  in
  Arg.(value & opt string "groups" & info [ "what" ] ~doc)

let mem_budget_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "mem-budget" ] ~docv:"BYTES"
        ~doc:
          "Byte budget for --what budget (suffixes K/M/G, binary); \
           without it the ladder is modelled but nothing is demoted.")

let domains_t =
  Arg.(
    value & opt int 1
    & info [ "domains" ]
        ~doc:"Worker domains assumed by the footprint model's scratch term.")

let backend_t =
  Arg.(
    value & opt string "interp"
    & info [ "backend" ]
        ~doc:
          "Execution backend the plan is modelled for, as mg_solve's \
           $(b,--backend): under $(b,native) or $(b,auto) each rung of \
           --what budget counts its native kernel's arena.")

let cmd =
  let doc = "inspect PolyMG pipelines, groupings and generated code" in
  Cmd.v
    (Cmd.info "polymg_dump" ~doc)
    Term.(
      const run $ dims_t $ cycle_t $ smoothing_t $ levels_t $ n_t $ variant_t
      $ what_t $ mem_budget_t $ domains_t $ backend_t)

let () = exit (Cmd.eval cmd)
