module Options = Repro_core.Options
module Govern = Repro_core.Govern
module Plan = Repro_core.Plan
module Grid = Repro_grid.Grid
module Telemetry = Repro_runtime.Telemetry
module Metrics = Repro_runtime.Metrics
module Flightrec = Repro_runtime.Flightrec
module Watchdog = Repro_runtime.Watchdog
module Json = Repro_runtime.Json

(* ------------------------------------------------------------------ *)
(* Requests and responses *)

type request = {
  rq_tenant : string;
  rq_dims : int;
  rq_n : int;
  rq_shape : Cycle.cycle_shape;
  rq_smoothing : int * int * int;
  rq_variant : string;
  rq_cycles : int;
  rq_tol : float option;
  rq_deadline_s : float option;
  rq_mem_budget : int option;
  rq_resume_dir : string option;
  rq_fault : string option;
}

let default_request =
  { rq_tenant = "anon";
    rq_dims = 2;
    rq_n = 64;
    rq_shape = Cycle.V;
    rq_smoothing = (4, 4, 4);
    rq_variant = "opt+";
    rq_cycles = 10;
    rq_tol = None;
    rq_deadline_s = None;
    rq_mem_budget = None;
    rq_resume_dir = None;
    rq_fault = None }

type status = Request.status =
  | Ok | Invalid | Quarantined | Deadline | Faulted | Infeasible | Unresumable
  | Shed

let status_name = Request.status_name
let status_of_name = Request.status_of_name
let code_of_status = Request.code_of_status

type response = {
  rs_status : status;
  rs_code : int;
  rs_tenant : string;
  rs_cycles : int;
  rs_residual : float;
  rs_queue_s : float;
  rs_solve_s : float;
  rs_retry_after_s : float option;
  rs_plan_digest : string;
  rs_plan_cached : bool;
  rs_incidents : int;
  rs_detail : string;
}

(* ------------------------------------------------------------------ *)
(* Wire codec *)

let max_frame_bytes = 1 lsl 20

let opt_num = function Some v -> Json.Num v | None -> Json.Null
let opt_int = function Some v -> Json.num v | None -> Json.Null
let opt_str = function Some s -> Json.Str s | None -> Json.Null

let request_to_json rq =
  let n1, n2, n3 = rq.rq_smoothing in
  Json.Obj
    [ ("tenant", Json.Str rq.rq_tenant);
      ("dims", Json.num rq.rq_dims);
      ("n", Json.num rq.rq_n);
      ("shape", Json.Str (Cycle.shape_name rq.rq_shape));
      ("smoothing", Json.Arr [ Json.num n1; Json.num n2; Json.num n3 ]);
      ("variant", Json.Str rq.rq_variant);
      ("cycles", Json.num rq.rq_cycles);
      ("tol", opt_num rq.rq_tol);
      ("deadline_s", opt_num rq.rq_deadline_s);
      ("mem_budget", opt_int rq.rq_mem_budget);
      ("resume_dir", opt_str rq.rq_resume_dir);
      ("fault", opt_str rq.rq_fault) ]

let mem name j = Json.member name j
let mem_str name j = Option.bind (mem name j) Json.to_str
let mem_int name j = Option.bind (mem name j) Json.to_int
let mem_float name j = Option.bind (mem name j) Json.to_float

let request_of_json j =
  match j with
  | Json.Obj _ ->
    let d = default_request in
    let smoothing =
      match mem "smoothing" j with
      | Some (Json.Arr [ a; b; c ]) -> (
        match (Json.to_int a, Json.to_int b, Json.to_int c) with
        | Some a, Some b, Some c -> Stdlib.Ok (a, b, c)
        | _ -> Error "smoothing must be three integers")
      | Some _ -> Error "smoothing must be three integers"
      | None -> Stdlib.Ok d.rq_smoothing
    in
    let shape =
      match mem_str "shape" j with
      | None -> Stdlib.Ok d.rq_shape
      | Some s -> (
        match Cycle.shape_of_string s with
        | Some sh -> Stdlib.Ok sh
        | None -> Error (Printf.sprintf "unknown cycle shape %S" s))
    in
    (match (smoothing, shape) with
     | Error e, _ | _, Error e -> Error e
     | Stdlib.Ok smoothing, Stdlib.Ok shape ->
       Stdlib.Ok
         { rq_tenant = Option.value (mem_str "tenant" j) ~default:d.rq_tenant;
           rq_dims = Option.value (mem_int "dims" j) ~default:d.rq_dims;
           rq_n = Option.value (mem_int "n" j) ~default:d.rq_n;
           rq_shape = shape;
           rq_smoothing = smoothing;
           rq_variant =
             Option.value (mem_str "variant" j) ~default:d.rq_variant;
           rq_cycles = Option.value (mem_int "cycles" j) ~default:d.rq_cycles;
           rq_tol = mem_float "tol" j;
           rq_deadline_s = mem_float "deadline_s" j;
           rq_mem_budget = mem_int "mem_budget" j;
           rq_resume_dir = mem_str "resume_dir" j;
           rq_fault = mem_str "fault" j })
  | _ -> Error "request must be a JSON object"

let response_to_json rs =
  Json.Obj
    [ ("status", Json.Str (status_name rs.rs_status));
      ("code", Json.num rs.rs_code);
      ("tenant", Json.Str rs.rs_tenant);
      ("cycles", Json.num rs.rs_cycles);
      ("residual", Json.Num rs.rs_residual);
      ("queue_s", Json.Num rs.rs_queue_s);
      ("solve_s", Json.Num rs.rs_solve_s);
      ("retry_after_s", opt_num rs.rs_retry_after_s);
      ("plan_digest", Json.Str rs.rs_plan_digest);
      ("plan_cached", Json.Bool rs.rs_plan_cached);
      ("incidents", Json.num rs.rs_incidents);
      ("detail", Json.Str rs.rs_detail) ]

let response_of_json j =
  match j with
  | Json.Obj _ -> (
    match Option.bind (mem_str "status" j) status_of_name with
    | None -> Error "response missing a valid status"
    | Some st ->
      Stdlib.Ok
        { rs_status = st;
          rs_code = Option.value (mem_int "code" j) ~default:(code_of_status st);
          rs_tenant = Option.value (mem_str "tenant" j) ~default:"";
          rs_cycles = Option.value (mem_int "cycles" j) ~default:0;
          rs_residual = Option.value (mem_float "residual" j) ~default:Float.nan;
          rs_queue_s = Option.value (mem_float "queue_s" j) ~default:0.0;
          rs_solve_s = Option.value (mem_float "solve_s" j) ~default:0.0;
          rs_retry_after_s = mem_float "retry_after_s" j;
          rs_plan_digest = Option.value (mem_str "plan_digest" j) ~default:"";
          rs_plan_cached =
            (match mem "plan_cached" j with
             | Some (Json.Bool b) -> b
             | _ -> false);
          rs_incidents = Option.value (mem_int "incidents" j) ~default:0;
          rs_detail = Option.value (mem_str "detail" j) ~default:"" })
  | _ -> Error "response must be a JSON object"

let write_frame oc j =
  let s = Json.to_string j in
  let len = String.length s in
  if len > max_frame_bytes then invalid_arg "Serve.write_frame: frame too large";
  let hdr = Bytes.create 4 in
  Bytes.set hdr 0 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set hdr 1 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set hdr 2 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set hdr 3 (Char.chr (len land 0xff));
  output_bytes oc hdr;
  output_string oc s;
  flush oc

let read_frame ic =
  match really_input_string ic 4 with
  | exception End_of_file -> None
  | hdr ->
    let b i = Char.code hdr.[i] in
    let len = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
    if len > max_frame_bytes then
      (* refuse before buffering: framing is part of admission control *)
      Some
        (Error
           (Printf.sprintf "frame length %d exceeds the %d-byte limit" len
              max_frame_bytes))
    else (
      match really_input_string ic len with
      | exception End_of_file -> Some (Error "truncated frame")
      | body -> (
        match Json.parse body with
        | Stdlib.Ok j -> Some (Stdlib.Ok j)
        | Error e -> Some (Error e)))

(* ------------------------------------------------------------------ *)
(* Configuration *)

type tenant_config = {
  tc_rate : float;
  tc_burst : float;
  tc_queue_cap : int;
  tc_mem_budget : int option;
}

let default_tenant =
  { tc_rate = infinity; tc_burst = 64.0; tc_queue_cap = 64;
    tc_mem_budget = None }

type config = {
  sv_queue_cap : int;
  sv_workers : int;
  sv_domains : int;
  sv_default_tenant : tenant_config;
  sv_tenants : (string * tenant_config) list;
  sv_max_cycles : int;
  sv_max_n : int;
  sv_allow_faults : bool;
  sv_backend : Options.backend;
  sv_clock : unit -> float;
}

let default_config =
  { sv_queue_cap = 256;
    sv_workers = 1;
    sv_domains = 1;
    sv_default_tenant = default_tenant;
    sv_tenants = [];
    sv_max_cycles = 64;
    sv_max_n = 1024;
    sv_allow_faults = false;
    sv_backend = Options.Interp;
    sv_clock = Unix.gettimeofday }

(* The retry-after hint of a shed that no token rate can time. *)
let retry_after_s = 0.05

(* Primary-plan retries each request's guard makes before the fallback,
   without backoff. *)
let primary_retries = 1

(* ------------------------------------------------------------------ *)
(* Telemetry *)

let c_submitted = Telemetry.counter "serve.submitted"
let c_accepted = Telemetry.counter "serve.accepted"
let c_shed = Telemetry.counter "serve.shed"
let c_evicted = Telemetry.counter "serve.evicted"
let c_completed = Telemetry.counter "serve.completed"
let c_ok = Telemetry.counter "serve.ok"
let c_invalid = Telemetry.counter "serve.invalid"
let c_quarantined = Telemetry.counter "serve.quarantined"
let c_deadline = Telemetry.counter "serve.deadline"
let c_faulted = Telemetry.counter "serve.faulted"
let c_infeasible = Telemetry.counter "serve.infeasible"
let c_unresumable = Telemetry.counter "serve.unresumable"
let c_cache_hits = Telemetry.counter "serve.plan_cache_hits"
let c_cache_misses = Telemetry.counter "serve.plan_cache_misses"

let status_counter = function
  | Ok -> c_ok
  | Invalid -> c_invalid
  | Quarantined -> c_quarantined
  | Deadline -> c_deadline
  | Faulted -> c_faulted
  | Infeasible -> c_infeasible
  | Unresumable -> c_unresumable
  | Shed -> c_shed

(* ------------------------------------------------------------------ *)
(* Server state *)

type ticket = {
  tk_mu : Mutex.t;
  tk_cond : Condition.t;
  mutable tk_resp : response option;
}

type pending_req = { p_req : request; p_submit : float; p_ticket : ticket }

type tenant_stats = {
  ts_accepted : int;
  ts_shed : int;
  ts_evicted : int;
  ts_completed : int;
}

type tenant = {
  tn_id : string;
  tn_cfg : tenant_config;
  mutable tn_tokens : float;
  mutable tn_refill_at : float;
  mutable tn_q : pending_req list;  (* oldest first *)
  mutable tn_in_ring : bool;
  mutable tn_accepted : int;
  mutable tn_shed : int;
  mutable tn_evicted : int;
  mutable tn_completed : int;
}

type t = {
  cfg : config;
  mu : Mutex.t;
  work_cond : Condition.t;  (* queued work available / stopping *)
  idle_cond : Condition.t;  (* a request finished executing *)
  tenants : (string, tenant) Hashtbl.t;
  ring : string Queue.t;  (* round-robin order of tenants with work *)
  mutable n_pending : int;
  mutable n_busy : int;
  mutable stopped : bool;
  mutable workers : Thread.t list;
  cache_mu : Mutex.t;
  plan_cache :
    (string, (Request.decision, Govern.infeasible) result) Hashtbl.t;
  mutable cache_hits : int;
  mutable cache_misses : int;
}

let new_ticket () =
  { tk_mu = Mutex.create (); tk_cond = Condition.create (); tk_resp = None }

let complete tk resp =
  Mutex.lock tk.tk_mu;
  tk.tk_resp <- Some resp;
  Condition.broadcast tk.tk_cond;
  Mutex.unlock tk.tk_mu

let await tk =
  Mutex.lock tk.tk_mu;
  while tk.tk_resp = None do
    Condition.wait tk.tk_cond tk.tk_mu
  done;
  let r = Option.get tk.tk_resp in
  Mutex.unlock tk.tk_mu;
  r

let peek tk =
  Mutex.lock tk.tk_mu;
  let r = tk.tk_resp in
  Mutex.unlock tk.tk_mu;
  r

let tenant_config t id =
  Option.value
    (List.assoc_opt id t.cfg.sv_tenants)
    ~default:t.cfg.sv_default_tenant

let tenant_of t id =
  match Hashtbl.find_opt t.tenants id with
  | Some tn -> tn
  | None ->
    let cfg = tenant_config t id in
    let tn =
      { tn_id = id;
        tn_cfg = cfg;
        tn_tokens = cfg.tc_burst;
        tn_refill_at = t.cfg.sv_clock ();
        tn_q = [];
        tn_in_ring = false;
        tn_accepted = 0;
        tn_shed = 0;
        tn_evicted = 0;
        tn_completed = 0 }
    in
    Hashtbl.replace t.tenants id tn;
    tn

let refill t tn =
  if tn.tn_cfg.tc_rate = infinity then tn.tn_tokens <- tn.tn_cfg.tc_burst
  else begin
    let now = t.cfg.sv_clock () in
    let dt = max 0.0 (now -. tn.tn_refill_at) in
    tn.tn_refill_at <- now;
    tn.tn_tokens <-
      min tn.tn_cfg.tc_burst (tn.tn_tokens +. (dt *. tn.tn_cfg.tc_rate))
  end

let h_latency tenant =
  Metrics.histogram ~labels:[ ("tenant", tenant) ] "serve_latency_ns"

let h_queue_wait tenant =
  Metrics.histogram ~labels:[ ("tenant", tenant) ] "serve_queue_wait_ns"

let mk_response ?(cycles = 0) ?(residual = Float.nan) ?(queue_s = 0.0)
    ?(solve_s = 0.0) ?retry_after ?(digest = "") ?(cached = false)
    ?(incidents = 0) ~detail status tenant =
  { rs_status = status;
    rs_code = code_of_status status;
    rs_tenant = tenant;
    rs_cycles = cycles;
    rs_residual = residual;
    rs_queue_s = queue_s;
    rs_solve_s = solve_s;
    rs_retry_after_s = retry_after;
    rs_plan_digest = digest;
    rs_plan_cached = cached;
    rs_incidents = incidents;
    rs_detail = detail }

(* ------------------------------------------------------------------ *)
(* Admission *)

let heaviest_tenant t =
  Hashtbl.fold
    (fun _ tn best ->
      match best with
      | Some b when List.length b.tn_q >= List.length tn.tn_q -> best
      | _ -> if tn.tn_q = [] then best else Some tn)
    t.tenants None

(* Global queue full: drop the *newest* request of the heaviest tenant —
   the flooding tenant loses its own most recent work first, and older
   (fairer) requests keep their place. *)
let evict_one t =
  match heaviest_tenant t with
  | None -> ()
  | Some tn ->
    let rec split_last acc = function
      | [] -> (List.rev acc, None)
      | [ x ] -> (List.rev acc, Some x)
      | x :: rest -> split_last (x :: acc) rest
    in
    let keep, victim = split_last [] tn.tn_q in
    (match victim with
     | None -> ()
     | Some p ->
       tn.tn_q <- keep;
       t.n_pending <- t.n_pending - 1;
       tn.tn_evicted <- tn.tn_evicted + 1;
       Telemetry.add c_evicted 1;
       Telemetry.add c_shed 1;
       complete p.p_ticket
         (mk_response Shed tn.tn_id
            ~retry_after:retry_after_s
            ~detail:"evicted: global queue full (heaviest tenant)"))

let submit t rq =
  Telemetry.add c_submitted 1;
  let tk = new_ticket () in
  Mutex.lock t.mu;
  if t.stopped then begin
    Mutex.unlock t.mu;
    complete tk (mk_response Shed rq.rq_tenant ~detail:"server shutting down");
    tk
  end
  else begin
    let tn = tenant_of t rq.rq_tenant in
    refill t tn;
    if tn.tn_tokens < 1.0 then begin
      tn.tn_shed <- tn.tn_shed + 1;
      Mutex.unlock t.mu;
      Telemetry.add c_shed 1;
      let retry_after =
        if tn.tn_cfg.tc_rate > 0.0 && tn.tn_cfg.tc_rate < infinity then
          (1.0 -. tn.tn_tokens) /. tn.tn_cfg.tc_rate
        else retry_after_s
      in
      complete tk
        (mk_response Shed rq.rq_tenant ~retry_after
           ~detail:"shed: tenant token budget exhausted");
      tk
    end
    else if List.length tn.tn_q >= tn.tn_cfg.tc_queue_cap then begin
      tn.tn_shed <- tn.tn_shed + 1;
      Mutex.unlock t.mu;
      Telemetry.add c_shed 1;
      complete tk
        (mk_response Shed rq.rq_tenant ~retry_after:retry_after_s
           ~detail:"shed: tenant queue full");
      tk
    end
    else begin
      if t.n_pending >= t.cfg.sv_queue_cap then evict_one t;
      tn.tn_tokens <- tn.tn_tokens -. 1.0;
      tn.tn_accepted <- tn.tn_accepted + 1;
      let p = { p_req = rq; p_submit = t.cfg.sv_clock (); p_ticket = tk } in
      tn.tn_q <- tn.tn_q @ [ p ];
      t.n_pending <- t.n_pending + 1;
      if not tn.tn_in_ring then begin
        Queue.push tn.tn_id t.ring;
        tn.tn_in_ring <- true
      end;
      Telemetry.add c_accepted 1;
      Condition.signal t.work_cond;
      Mutex.unlock t.mu;
      tk
    end
  end

(* Round-robin dequeue: one request from the next tenant with work, the
   tenant re-queued at the back while it still has more. *)
let rec take_locked t =
  match Queue.take_opt t.ring with
  | None -> None
  | Some id -> (
    let tn = tenant_of t id in
    match tn.tn_q with
    | [] ->
      tn.tn_in_ring <- false;
      take_locked t
    | p :: rest ->
      tn.tn_q <- rest;
      t.n_pending <- t.n_pending - 1;
      if rest = [] then tn.tn_in_ring <- false else Queue.push id t.ring;
      Some (tn, p))

(* ------------------------------------------------------------------ *)
(* Request execution *)

(* The shared plan cache: repeat shapes skip pipeline construction,
   planning, and the governance ladder walk.  Keyed by the digest
   Request.run passes (everything the plans are built from), so a cached
   decision is exact for every request that hits it — including cached
   infeasibility. *)
let plan_decision t ~cached key build =
  Mutex.lock t.cache_mu;
  match Hashtbl.find_opt t.plan_cache key with
  | Some d ->
    t.cache_hits <- t.cache_hits + 1;
    Mutex.unlock t.cache_mu;
    Telemetry.add c_cache_hits 1;
    cached := true;
    d
  | None ->
    let d =
      Fun.protect ~finally:(fun () -> Mutex.unlock t.cache_mu) (fun () ->
          let d = build () in
          Hashtbl.replace t.plan_cache key d;
          t.cache_misses <- t.cache_misses + 1;
          d)
    in
    Telemetry.add c_cache_misses 1;
    d

(* The request as the one validator sees it: the wire fields, the
   tenant's budget intersected with the request's, and the server's
   deployment settings.  CLI-only knobs keep their defaults. *)
let spec_of t rq =
  let tenant_budget = (tenant_config t rq.rq_tenant).tc_mem_budget in
  let budget =
    match (rq.rq_mem_budget, tenant_budget) with
    | Some a, Some b -> Some (min a b)
    | (Some _ as b), None | None, b -> b
  in
  { Request.default_spec with
    dims = rq.rq_dims;
    n = Some rq.rq_n;
    shape = rq.rq_shape;
    smoothing = rq.rq_smoothing;
    variant = rq.rq_variant;
    backend = t.cfg.sv_backend;
    cycles = rq.rq_cycles;
    tol = rq.rq_tol;
    guard = true;
    domains = t.cfg.sv_domains;
    mem_budget = budget;
    resume_dir = rq.rq_resume_dir;
    fault = rq.rq_fault;
    primary_retries }

let run_request t (p : pending_req) =
  let rq = p.p_req in
  let clock = t.cfg.sv_clock in
  let t_dequeue = clock () in
  let queue_s = max 0.0 (t_dequeue -. p.p_submit) in
  Metrics.observe (h_queue_wait rq.rq_tenant) (queue_s *. 1e9);
  let deadline_left =
    match rq.rq_deadline_s with None -> infinity | Some d -> d -. queue_s
  in
  let answer = mk_response ~queue_s in
  if deadline_left <= 0.0 then
    answer Deadline rq.rq_tenant ~detail:"deadline expired while queued"
  else
    match
      Request.validate ~max_n:t.cfg.sv_max_n ~min_steps:1 ~max_steps:32
        ~max_cycles:t.cfg.sv_max_cycles ~allow_faults:t.cfg.sv_allow_faults
        ~allow_handopt:false (spec_of t rq)
    with
    | Error msg -> answer Invalid rq.rq_tenant ~detail:msg
    | Stdlib.Ok req ->
      let cached = ref false in
      let incidents_before = Flightrec.incident_count () in
      let run () = Request.run ~plans:(plan_decision t ~cached) req in
      (* One in-flight solve owns the Watchdog's single armed slot, so a
         hung stage trips at a tile boundary instead of wedging the
         worker.  With concurrent workers the slot would be contended,
         so deadlines fall back to the wall-clock check below. *)
      let outcome =
        match rq.rq_deadline_s with
        | Some _ when t.cfg.sv_workers <= 1 ->
          Watchdog.with_deadline
            ~stage:(Printf.sprintf "request:%s" rq.rq_tenant)
            ~budget_ns:(max 1 (int_of_float (min deadline_left 9e9 *. 1e9)))
            run
        | _ -> run ()
      in
      let solve_s = max 0.0 (clock () -. t_dequeue) in
      let deadline_blown =
        match rq.rq_deadline_s with
        | Some d -> queue_s +. solve_s > d
        | None -> false
      in
      let status =
        if deadline_blown then Deadline else Request.status outcome
      in
      let cached = !cached and tenant = rq.rq_tenant in
      match outcome with
      | Request.No_resume msg ->
        answer status tenant ~cached ~detail:("resume: " ^ msg)
      | Request.Over_budget inf ->
        answer status tenant ~cached
          ~detail:(Format.asprintf "%a" Govern.pp_infeasible inf)
      | Request.Stopped msg -> answer status tenant ~cached ~solve_s ~detail:msg
      | Request.Solved s ->
        let resp =
          answer status tenant ~cached ~solve_s
            ~digest:(Option.fold ~none:"" ~some:Plan.digest s.Request.plan)
            ~cycles:(List.length s.Request.stats)
            ~residual:s.Request.residual
            ~incidents:(Flightrec.incident_count () - incidents_before)
            ~detail:
              (match s.Request.guarded with
               | Some g ->
                 Printf.sprintf "%s; %d fault event(s), %d fallback cycle(s)"
                   (Guard.outcome_name g.Guard.outcome)
                   (List.length g.Guard.events)
                   g.Guard.fallback_cycles
               | None -> "checkpoint already meets the cycle budget")
        in
        (* the response holds no grid: the request's grids are dead.  A
           resumed iterate that already met the cycle budget is both
           [s.v] and [problem.v]; release each grid once, since a second
           release could hand it out again while another request uses it. *)
        let p = s.Request.problem in
        List.iter Grid.release
          (List.fold_left
             (fun seen g -> if List.memq g seen then seen else g :: seen)
             [] [ p.Problem.v; p.Problem.f; s.Request.v ]);
        resp

let execute t tn p =
  let resp =
    try run_request t p
    with e ->
      (* isolation: an unexpected exception in one request must never
         take the worker (and with it the server) down *)
      mk_response Faulted p.p_req.rq_tenant
        ~detail:("internal error: " ^ Printexc.to_string e)
  in
  Telemetry.add c_completed 1;
  Telemetry.add (status_counter resp.rs_status) 1;
  Metrics.observe
    (h_latency p.p_req.rq_tenant)
    ((resp.rs_queue_s +. resp.rs_solve_s) *. 1e9);
  Mutex.lock t.mu;
  tn.tn_completed <- tn.tn_completed + 1;
  Mutex.unlock t.mu;
  complete p.p_ticket resp

(* Runs a dequeued request; called with [t.mu] held, returns without. *)
let run_taken t (tn, p) =
  t.n_busy <- t.n_busy + 1;
  Mutex.unlock t.mu;
  execute t tn p;
  Mutex.lock t.mu;
  t.n_busy <- t.n_busy - 1;
  Condition.broadcast t.idle_cond;
  Mutex.unlock t.mu

let step t =
  Mutex.lock t.mu;
  match take_locked t with
  | None ->
    Mutex.unlock t.mu;
    false
  | Some got ->
    run_taken t got;
    true

let worker t () =
  let rec loop () =
    Mutex.lock t.mu;
    let rec next () =
      match take_locked t with
      | Some got -> Some got
      | None ->
        if t.stopped then None
        else begin
          Condition.wait t.work_cond t.mu;
          next ()
        end
    in
    match next () with
    | None -> Mutex.unlock t.mu
    | Some got ->
      run_taken t got;
      loop ()
  in
  loop ()

let create ?(config = default_config) () =
  let refuse what = invalid_arg ("Serve.create: " ^ what) in
  if config.sv_queue_cap < 1 then refuse "queue cap must be at least 1";
  if config.sv_domains < 1 then refuse "domains must be at least 1";
  if config.sv_max_cycles < 1 then refuse "max cycles must be at least 1";
  List.iter
    (fun (name, tc) ->
      if not (tc.tc_burst >= 1.0) then
        refuse (Printf.sprintf "tenant %s: burst must be at least 1" name))
    (("default", config.sv_default_tenant) :: config.sv_tenants);
  let t =
    { cfg = config;
      mu = Mutex.create ();
      work_cond = Condition.create ();
      idle_cond = Condition.create ();
      tenants = Hashtbl.create 16;
      ring = Queue.create ();
      n_pending = 0;
      n_busy = 0;
      stopped = false;
      workers = [];
      cache_mu = Mutex.create ();
      plan_cache = Hashtbl.create 16;
      cache_hits = 0;
      cache_misses = 0 }
  in
  t.workers <- List.init config.sv_workers (fun _ -> Thread.create (worker t) ());
  t

let solve t rq = await (submit t rq)

let pending t =
  Mutex.lock t.mu;
  let n = t.n_pending in
  Mutex.unlock t.mu;
  n

let drain t =
  if t.cfg.sv_workers = 0 then while step t do () done
  else begin
    Mutex.lock t.mu;
    while t.n_pending > 0 || t.n_busy > 0 do
      Condition.wait t.idle_cond t.mu
    done;
    Mutex.unlock t.mu
  end

let shutdown t =
  drain t;
  Mutex.lock t.mu;
  t.stopped <- true;
  Condition.broadcast t.work_cond;
  Mutex.unlock t.mu;
  List.iter Thread.join t.workers;
  t.workers <- []

let tenant_stats t id =
  Mutex.lock t.mu;
  let s =
    match Hashtbl.find_opt t.tenants id with
    | Some tn ->
      { ts_accepted = tn.tn_accepted;
        ts_shed = tn.tn_shed;
        ts_evicted = tn.tn_evicted;
        ts_completed = tn.tn_completed }
    | None ->
      { ts_accepted = 0; ts_shed = 0; ts_evicted = 0; ts_completed = 0 }
  in
  Mutex.unlock t.mu;
  s

let plan_cache_stats t =
  Mutex.lock t.cache_mu;
  let s = (t.cache_hits, t.cache_misses) in
  Mutex.unlock t.cache_mu;
  s
