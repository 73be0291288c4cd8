module Options = Repro_core.Options
module Govern = Repro_core.Govern
module Exec = Repro_core.Exec
module Plan = Repro_core.Plan
module Grid = Repro_grid.Grid
module Buf = Repro_grid.Buf
module Telemetry = Repro_runtime.Telemetry
module Flightrec = Repro_runtime.Flightrec
module Mempool = Repro_runtime.Mempool
module Watchdog = Repro_runtime.Watchdog
module Json = Repro_runtime.Json

(* ------------------------------------------------------------------ *)
(* Statuses *)

type status =
  | Ok | Invalid | Quarantined | Deadline | Faulted | Infeasible | Unresumable
  | Shed

let statuses =
  [ (Ok, "ok"); (Invalid, "invalid"); (Quarantined, "quarantined");
    (Deadline, "deadline"); (Faulted, "faulted"); (Infeasible, "infeasible");
    (Unresumable, "unresumable"); (Shed, "shed") ]

let status_name s = List.assoc s statuses

let status_of_name name =
  List.find_map (fun (s, n) -> if n = name then Some s else None) statuses

let code_of_status = function
  | Ok -> 0
  | Invalid -> 2
  | Quarantined -> 3
  | Deadline | Faulted -> 4
  | Infeasible -> 5
  | Unresumable -> 6
  | Shed -> 7

(* ------------------------------------------------------------------ *)
(* Description and validation *)

type fault = Nan | Crash

type engine = Polymg of Options.t | Baseline

type spec = {
  dims : int;
  levels : int;
  n : int option;
  shape : Cycle.cycle_shape;
  smoothing : int * int * int;
  variant : string;
  backend : Options.backend;
  cycles : int;
  max_cycles : int option;
  tol : float option;
  guard : bool;
  fallback : bool;
  domains : int;
  poison : bool;
  check_plan : bool;
  mem_budget : int option;
  deadline : float option;
  checkpoint_dir : string option;
  checkpoint_every : int;
  resume_dir : string option;
  fault : string option;
  primary_retries : int;
}

(* A validated spec: the fields the validator derives, beside the spec
   itself for the ones it passes through unchanged. *)
type t = {
  spec : spec;
  cfg : Cycle.config;
  n : int;
  engine : engine;
  cycles : int;
  guard : bool;
  checkpoint : Checkpoint.config option;
  fault : fault option;
}

let cfg (t : t) = t.cfg
let n (t : t) = t.n
let cycles (t : t) = t.cycles
let guarded (t : t) = t.guard

let default_spec =
  { dims = 2; levels = 4; n = None; shape = Cycle.V; smoothing = (4, 4, 4);
    variant = "opt+"; backend = Options.Interp; cycles = 5; max_cycles = None;
    tol = None; guard = false; fallback = true; domains = 1; poison = false;
    check_plan = false; mem_budget = None; deadline = None;
    checkpoint_dir = None; checkpoint_every = 1; resume_dir = None;
    fault = None; primary_retries = 0 }

let validate ?(max_n = max_int) ?(min_steps = 0) ?(max_steps = max_int)
    ?(max_cycles = max_int) ?(allow_faults = false) ?(allow_handopt = true)
    (s : spec) =
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let n1, n2, n3 = s.smoothing in
  let cfg =
    { (Cycle.default ~dims:s.dims ~shape:s.shape ~smoothing:s.smoothing) with
      Cycle.levels = s.levels }
  in
  let n = Option.value s.n ~default:(32 lsl (cfg.levels - 1)) in
  let* () = Cycle.check cfg ~n ~cycles:s.cycles in
  let* engine =
    match (Options.variant_of_string s.variant, s.variant) with
    | Some o, _ ->
      (* every plan built from these options, demoted ladder rungs
         included, inherits the budget, deadline and backend *)
      Stdlib.Ok
        (Polymg
           { o with
             Options.mem_budget = s.mem_budget;
             deadline = s.deadline;
             backend = s.backend;
             check_plan = s.check_plan })
    | None, ("handopt" | "handopt+pluto") when allow_handopt ->
      Stdlib.Ok Baseline
    | None, v -> fail "unknown variant %S" v
  in
  let* fault =
    match s.fault with
    | None -> Stdlib.Ok None
    | Some _ when not allow_faults ->
      Error "fault injection is disabled on this server"
    | Some "nan" -> Stdlib.Ok (Some Nan)
    | Some "crash" -> Stdlib.Ok (Some Crash)
    | Some f -> fail "unknown fault kind %S" f
  in
  let polymg = engine <> Baseline in
  let guard = s.guard || s.tol <> None in
  let cycles =
    min max_cycles
      (if guard then Option.value s.max_cycles ~default:s.cycles else s.cycles)
  in
  let positive = function
    | Some x -> Float.is_finite x && x > 0.0
    | None -> true
  in
  if n1 + n2 + n3 < min_steps then
    fail "smoothing steps must total at least %d" min_steps
  else if max n1 (max n2 n3) > max_steps then
    fail "smoothing steps must be at most %d" max_steps
  else if n > max_n then fail "n %d exceeds the server maximum %d" n max_n
  else if s.domains < 1 then Error "domains must be at least 1"
  else if cycles < 1 then Error "--max-cycles must be >= 1"
  else if not (positive s.tol) then
    fail "--tol must be finite and > 0, not %g" (Option.get s.tol)
  else if not (positive s.deadline) then
    fail "--deadline must be finite and > 0, not %g" (Option.get s.deadline)
  else if
    (s.mem_budget <> None || s.deadline <> None || s.backend <> Options.Interp)
    && not polymg
  then
    fail
      "--mem-budget, --deadline and --backend require a PolyMG variant \
       (naive|opt|opt+|dtile-opt+), not %s"
      s.variant
  else if s.shape = Cycle.F && not polymg then
    fail "%s does not implement F-cycles" s.variant
  else if s.checkpoint_every < 1 then Error "--checkpoint-every must be >= 1"
  else
    Stdlib.Ok
      { spec = s;
        cfg;
        n;
        engine;
        cycles;
        guard;
        checkpoint =
          Option.map
            (fun dir ->
              { Checkpoint.dir;
                every =
                  Checkpoint.effective_every ~every:s.checkpoint_every
                    ~deadline:s.deadline;
                keep = Checkpoint.default_keep })
            s.checkpoint_dir;
        fault }

(* ------------------------------------------------------------------ *)
(* Running *)

(* What one attempt runs: an unbudgeted plan, a ladder rung, or the
   hand-optimized baseline. *)
type candidate = Plain of Plan.t | Rung of Govern.rung | Hand

(* The plan decision: the ladder when budgeted, and the candidates to
   try in order — the fitting rungs from the planner's choice down. *)
type decision = { report : Govern.report option; candidates : candidate list }

(* The decision's identity: everything the plans are built from. *)
let plan_key (t : t) =
  let c = t.cfg in
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [ Cycle.bench_name c;
            string_of_int c.Cycle.levels;
            Printf.sprintf "%h" c.Cycle.omega;
            (match c.Cycle.smoother with
             | Cycle.Jacobi -> "jacobi"
             | Cycle.Gsrb -> "gsrb");
            string_of_int t.n;
            (match t.engine with
             | Polymg o -> Options.fingerprint o
             | Baseline -> t.spec.variant);
            string_of_int t.spec.domains ]))

let decide (t : t) = function
  | Baseline -> Stdlib.Ok { report = None; candidates = [ Hand ] }
  | Polymg ({ Options.mem_budget = None; _ } as opts) ->
    Stdlib.Ok
      { report = None;
        candidates = [ Plain (Solver.polymg_plan t.cfg ~n:t.n ~opts) ] }
  | Polymg opts ->
    Govern.decide ~domains:t.spec.domains (Cycle.build t.cfg) ~opts ~n:t.n
      ~params:(Cycle.params t.cfg ~n:t.n)
    |> Result.map (fun r ->
           { report = Some r;
             candidates =
               Array.to_list r.Govern.ladder
               |> List.filteri (fun i (g : Govern.rung) ->
                      i >= r.Govern.chosen && g.Govern.fits)
               |> List.map (fun g -> Rung g) })

let candidate_plan = function
  | Plain p -> Some p
  | Rung r -> Some r.Govern.plan
  | Hand -> None

type solved = {
  stats : Solver.cycle_stats list;
  v : Grid.t;
  residual : float;
  total_seconds : float;
  guarded : Guard.result option;
  report : Govern.report option;
  plan : Plan.t option;
  rung : Govern.rung option;
  runtime_demotions : int;
  resumed : Checkpoint.resume option;
  flushed : string option;
  problem : Problem.t;
}

type outcome =
  | Solved of solved
  | Stopped of string
  | Over_budget of Govern.infeasible
  | No_resume of string

let status = function
  | Solved { guarded = Some g; _ } -> (
    match g.Guard.outcome with
    | Guard.Faulted _ -> Faulted
    | Guard.Converged | Guard.Exhausted | Guard.Stagnated ->
      if
        List.exists
          (fun (e : Guard.event) -> e.Guard.action = Guard.Quarantined_primary)
          g.Guard.events
      then Quarantined
      else Ok)
  | Solved { guarded = None; _ } -> Ok
  | Stopped _ -> Deadline
  | Over_budget _ -> Infeasible
  | No_resume _ -> Unresumable

let chaos (t : t) (primary : Solver.stepper) : Solver.stepper =
  match t.fault with
  | None -> primary
  | Some Crash -> fun ~v:_ ~f:_ ~out:_ -> failwith "injected crash (chaos hook)"
  | Some Nan ->
    fun ~v ~f ~out ->
      primary ~v ~f ~out;
      Buf.set out.Grid.buf (Buf.len out.Grid.buf / 2) Float.nan

(* The checkpoint to resume from, checked against the problem shape. *)
let load_resume (t : t) =
  match Option.map (fun dir -> Checkpoint.load_latest ~dir) t.spec.resume_dir
  with
  | None -> Stdlib.Ok None
  | Some (Error _ as e) -> e
  | Some (Stdlib.Ok { Checkpoint.state = st; _ })
    when st.Checkpoint.dims <> t.cfg.Cycle.dims || st.Checkpoint.n <> t.n ->
    Error
      (Printf.sprintf "checkpoint is for dims=%d N=%d, not dims=%d N=%d"
         st.Checkpoint.dims st.Checkpoint.n t.cfg.Cycle.dims t.n)
  | Some (Stdlib.Ok r) -> Stdlib.Ok (Some r)

(* The configuration drifted since the checkpoint: keep the restored
   iterate, run the current plan, and say so. *)
let note_drift (t : t) ~digest (st : Checkpoint.state) =
  if st.Checkpoint.plan_digest <> digest then begin
    if Flightrec.on () then
      Flightrec.emit
        (Flightrec.Resume_replan
           { old_digest = st.Checkpoint.plan_digest; new_digest = digest });
    ignore
      (Flightrec.incident ~kind:"resume-replan" ~cycle:st.Checkpoint.cycle
         ~detail:
           [ ("checkpoint_digest", Json.Str st.Checkpoint.plan_digest);
             ("checkpoint_variant", Json.Str st.Checkpoint.variant);
             ("current_digest", Json.Str digest);
             ("current_variant", Json.Str t.spec.variant) ]
         ())
  end

(* One attempt under its own fresh runtime.  A rung's pool budget is the
   total budget minus its modelled scratch term, so the model (plan
   time) and the pool (run time) agree on what the pooled share may
   spend.  The guard's naive fallback is unpooled: under a budget it is
   offered only when its modelled footprint fits too. *)
let attempt (t : t) ~report ~problem ~start_cycle ~sink ~baseline cand =
  Exec.with_runtime ~domains:t.spec.domains ~poison:t.spec.poison @@ fun rt ->
  let primary =
    match cand with
    | Rung r ->
      if r.Govern.ropts.Options.pool then
        Option.iter
          (fun b ->
            Mempool.set_budget rt.Exec.pool
              (Some (max 1 (b - r.Govern.scratch_bytes))))
          r.Govern.ropts.Options.mem_budget;
      Solver.plan_stepper r.Govern.plan ~rt
    | Plain p -> Solver.plan_stepper p ~rt
    | Hand -> (
      match baseline with
      | Some mk -> mk rt
      | None -> invalid_arg ("Request.run: no ~baseline for " ^ t.spec.variant))
  in
  let primary = chaos t primary in
  if t.guard then begin
    let fallback_fits = Option.fold ~none:true ~some:Govern.fallback_fits report in
    let opts =
      Guard.fallback_opts
        (match t.engine with Polymg o -> o | Baseline -> Options.naive)
    in
    let fallback =
      if t.spec.fallback && fallback_fits then
        Some (fun () -> Solver.polymg_stepper t.cfg ~n:t.n ~opts ~rt)
      else None
    in
    let policy =
      { Guard.default_policy with
        Guard.tol = t.spec.tol;
        max_cycles = t.cycles;
        primary_retries = t.spec.primary_retries }
    in
    let checkpoint =
      Option.map
        (fun s ->
          { Guard.ck_accept = s.Checkpoint.on_accept;
            ck_restore = s.Checkpoint.restore })
        sink
    in
    let g =
      Guard.run ~policy ?checkpoint ~start_cycle ~primary ?fallback ~problem ()
    in
    (g.Guard.stats, g.Guard.v, g.Guard.residual, g.Guard.total_seconds, Some g)
  end
  else
    let r =
      Solver.iterate primary ~problem ~cycles:(t.cycles - start_cycle + 1)
        ~start_cycle
        ?on_accept:(Option.map (fun s -> s.Checkpoint.on_accept) sink)
        ()
    in
    let last = List.nth r.Solver.stats (List.length r.Solver.stats - 1) in
    ( r.Solver.stats, r.Solver.v, last.Solver.residual,
      r.Solver.total_seconds, None )

let c_rt_demote = Telemetry.counter "govern.runtime_demotions"

(* Walk the candidates in order: a rung whose actual footprint overruns
   the model (the pool raises Budget_exceeded, guarded or not) is
   demoted at run time and the next one gets a fresh attempt.
   Exhausting them is infeasible. *)
let rec walk t ~report ~resumed ~problem ~start_cycle ~sink ~baseline
    demotions = function
  | [] ->
    Over_budget
      (Govern.exhausted (Option.get report) ~runtime_demotions:demotions)
  | cand :: rest -> (
    match attempt t ~report ~problem ~start_cycle ~sink ~baseline cand with
    | stats, v, residual, total_seconds, guarded ->
      Solved
        { stats; v; residual; total_seconds; guarded; report;
          plan = candidate_plan cand;
          rung = (match cand with Rung r -> Some r | Plain _ | Hand -> None);
          runtime_demotions = demotions; resumed; flushed = None; problem }
    | exception Mempool.Budget_exceeded _ ->
      Telemetry.add c_rt_demote 1;
      (match cand with
       | Rung r when Flightrec.on () ->
         Flightrec.emit (Flightrec.Runtime_demotion { rung = r.Govern.rname })
       | _ -> ());
      walk t ~report ~resumed ~problem ~start_cycle ~sink ~baseline
        (demotions + 1) rest
    | exception (Watchdog.Deadline_exceeded _ as e) ->
      let msg = Printexc.to_string e in
      ignore
        (Flightrec.incident ~kind:"deadline"
           ~detail:[ ("exception", Json.Str msg) ] ());
      Stopped msg)

(* The digest a checkpoint carries and a resume is checked against: the
   requested variant's plan, rung 0 of a budgeted ladder. *)
let requested_digest = function
  | Stdlib.Ok { candidates = Plain p :: _; _ } -> Plan.digest p
  | Stdlib.Ok { report = Some r; _ } ->
    Plan.digest r.Govern.ladder.(0).Govern.plan
  | Error inf -> Plan.digest inf.Govern.inf_ladder.(0).Govern.plan
  | Stdlib.Ok _ -> "handopt"

let run ?(plans = fun _key build -> build ()) ?on_start ?baseline (t : t) =
  let decision = lazy (plans (plan_key t) (fun () -> decide t t.engine)) in
  (* A budgeted resume builds the requested plan alone for its digest,
     so no ladder is walked (and no demotion or infeasibility filed)
     before the checkpoint is known usable and short of the budget. *)
  let digest =
    match t.engine with
    | Polymg ({ Options.mem_budget = Some _; _ } as opts)
      when t.spec.resume_dir <> None ->
      Plan.digest (Solver.polymg_plan t.cfg ~n:t.n ~opts)
    | Polymg _ | Baseline -> requested_digest (Lazy.force decision)
  in
  (* noted before any resume incident can fire, so a checkpoint-rejected
     or resume-replan report carries the digest *)
  Flightrec.note_plan ~digest ~variant:t.spec.variant;
  match load_resume t with
  | Error msg -> No_resume msg
  | Stdlib.Ok resumed ->
    let problem = Problem.poisson ~dims:t.cfg.Cycle.dims ~n:t.n in
    let problem, start_cycle =
      match resumed with
      | Some { Checkpoint.state = st; _ } ->
        note_drift t ~digest st;
        ({ problem with Problem.v = st.Checkpoint.v }, st.Checkpoint.cycle + 1)
      | None -> (problem, 1)
    in
    let sink =
      Option.map
        (fun ccfg ->
          Checkpoint.sink ccfg ~dims:t.cfg.Cycle.dims ~n:t.n
            ~variant:t.spec.variant ~plan_digest:digest
            ?history_prefix:
              (Option.map
                 (fun r -> r.Checkpoint.state.Checkpoint.history)
                 resumed)
            ())
        t.checkpoint
    in
    Option.iter (fun f -> f ~resumed sink) on_start;
    let outcome =
      match resumed with
      | Some { Checkpoint.state = st; _ } when start_cycle > t.cycles ->
        (* the checkpoint already covers the cycle budget: nothing runs *)
        Solved
          { stats = st.Checkpoint.history; v = st.Checkpoint.v;
            residual = st.Checkpoint.residual; total_seconds = 0.0;
            guarded = None; report = None; plan = None; rung = None;
            runtime_demotions = 0; resumed; flushed = None; problem }
      | Some _ | None -> (
        match Lazy.force decision with
        | Error inf -> Over_budget inf
        | Stdlib.Ok { report; candidates } ->
          walk t ~report ~resumed ~problem ~start_cycle ~sink ~baseline 0
            candidates)
    in
    (* final checkpoint: the last accepted cycle is durable even when
       the cadence did not land on it *)
    match (outcome, sink) with
    | Solved s, Some k -> Solved { s with flushed = k.Checkpoint.flush () }
    | _ -> outcome
