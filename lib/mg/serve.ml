module Options = Repro_core.Options
module Govern = Repro_core.Govern
module Exec = Repro_core.Exec
module Plan = Repro_core.Plan
module Telemetry = Repro_runtime.Telemetry
module Metrics = Repro_runtime.Metrics
module Flightrec = Repro_runtime.Flightrec
module Watchdog = Repro_runtime.Watchdog
module Mempool = Repro_runtime.Mempool
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

type status =
  | Ok
  | Invalid
  | Quarantined
  | Deadline
  | Faulted
  | Infeasible
  | Unresumable
  | Shed

let status_name = function
  | Ok -> "ok"
  | Invalid -> "invalid"
  | Quarantined -> "quarantined"
  | Deadline -> "deadline"
  | Faulted -> "faulted"
  | Infeasible -> "infeasible"
  | Unresumable -> "unresumable"
  | Shed -> "shed"

let status_of_name = function
  | "ok" -> Some Ok
  | "invalid" -> Some Invalid
  | "quarantined" -> Some Quarantined
  | "deadline" -> Some Deadline
  | "faulted" -> Some Faulted
  | "infeasible" -> Some Infeasible
  | "unresumable" -> Some Unresumable
  | "shed" -> Some Shed
  | _ -> None

(* The mg_solve exit-code table, plus 7 for the service-only shed. *)
let code_of_status = function
  | Ok -> 0
  | Invalid -> 2
  | Quarantined -> 3
  | Deadline -> 4
  | Faulted -> 4
  | Infeasible -> 5
  | Unresumable -> 6
  | Shed -> 7

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
  sv_retry_after_s : float;
  sv_primary_retries : int;
  sv_retry_backoff : float;
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
    sv_retry_after_s = 0.05;
    sv_primary_retries = 1;
    sv_retry_backoff = 0.0;
    sv_allow_faults = false;
    sv_backend = Options.Interp;
    sv_clock = Unix.gettimeofday }

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
  plan_cache : (string, (Govern.report, Govern.infeasible) result) Hashtbl.t;
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

let tenant_of t id =
  match Hashtbl.find_opt t.tenants id with
  | Some tn -> tn
  | None ->
    let cfg =
      Option.value
        (List.assoc_opt id t.cfg.sv_tenants)
        ~default:t.cfg.sv_default_tenant
    in
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
            ~retry_after:t.cfg.sv_retry_after_s
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
        else t.cfg.sv_retry_after_s
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
        (mk_response Shed rq.rq_tenant ~retry_after:t.cfg.sv_retry_after_s
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

(* Cycle.check's shared shape rules first, then the service's own
   limits. *)
let validate t rq =
  let n1, n2, n3 = rq.rq_smoothing in
  let ccfg =
    Cycle.default ~dims:rq.rq_dims ~shape:rq.rq_shape
      ~smoothing:rq.rq_smoothing
  in
  match Cycle.check ccfg ~n:rq.rq_n ~cycles:rq.rq_cycles with
  | Error _ as e -> e
  | Stdlib.Ok () -> (
    if n1 + n2 + n3 = 0 then Error "smoothing steps must not all be zero"
    else if n1 > 32 || n2 > 32 || n3 > 32 then
      Error "smoothing steps must be at most 32"
    else if rq.rq_n > t.cfg.sv_max_n then
      Error
        (Printf.sprintf "n %d exceeds the server maximum %d" rq.rq_n
           t.cfg.sv_max_n)
    else if rq.rq_fault <> None && not t.cfg.sv_allow_faults then
      Error "fault injection is disabled on this server"
    else
      match rq.rq_fault with
      | Some f when f <> "nan" && f <> "crash" ->
        Error (Printf.sprintf "unknown fault kind %S" f)
      | _ -> (
        match Options.variant_of_string rq.rq_variant with
        | None -> Error (Printf.sprintf "unknown variant %S" rq.rq_variant)
        | Some opts ->
          (* the backend is a daemon deployment property, not a request
             field: apply it here so every plan (and every governance
             ladder rung derived from these opts) inherits it *)
          Stdlib.Ok (ccfg, { opts with Options.backend = t.cfg.sv_backend })))

let cache_key t rq budget =
  let n1, n2, n3 = rq.rq_smoothing in
  Printf.sprintf "%dD|n%d|%s|%d-%d-%d|%s|%s|d%d" rq.rq_dims rq.rq_n
    (Cycle.shape_name rq.rq_shape) n1 n2 n3 rq.rq_variant
    (match budget with None -> "-" | Some b -> string_of_int b)
    t.cfg.sv_domains

(* The shared plan cache: repeat shapes skip pipeline construction,
   planning, and the governance ladder walk.  Keyed by the full
   shape/variant/budget/domain signature, so a cached decision is exact
   for every request that hits it — including cached infeasibility. *)
let plan_decision t key build =
  Mutex.lock t.cache_mu;
  match Hashtbl.find_opt t.plan_cache key with
  | Some d ->
    t.cache_hits <- t.cache_hits + 1;
    Mutex.unlock t.cache_mu;
    Telemetry.add c_cache_hits 1;
    (true, d)
  | None ->
    let d =
      Fun.protect ~finally:(fun () -> Mutex.unlock t.cache_mu) (fun () ->
          let d = build () in
          Hashtbl.replace t.plan_cache key d;
          t.cache_misses <- t.cache_misses + 1;
          d)
    in
    Telemetry.add c_cache_misses 1;
    (false, d)

let chaos t rq primary =
  if not t.cfg.sv_allow_faults then primary
  else
    match rq.rq_fault with
    | Some "crash" ->
      fun ~v:_ ~f:_ ~out:_ -> failwith "injected crash (serve chaos hook)"
    | Some "nan" ->
      fun ~v ~f ~out ->
        primary ~v ~f ~out;
        let buf = out.Repro_grid.Grid.buf in
        Repro_grid.Buf.set buf (Repro_grid.Buf.len buf / 2) Float.nan
    | _ -> primary

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
    match validate t rq with
    | Error msg -> answer Invalid rq.rq_tenant ~detail:msg
    | Stdlib.Ok (ccfg, opts0) -> (
      let resume =
        match rq.rq_resume_dir with
        | None -> Stdlib.Ok None
        | Some dir -> (
          match Checkpoint.load_latest ~dir with
          | Error msg -> Error msg
          | Stdlib.Ok r ->
            let st = r.Checkpoint.state in
            if st.Checkpoint.dims <> rq.rq_dims || st.Checkpoint.n <> rq.rq_n
            then
              Error
                (Printf.sprintf
                   "checkpoint is %dD n=%d, request is %dD n=%d"
                   st.Checkpoint.dims st.Checkpoint.n rq.rq_dims rq.rq_n)
            else Stdlib.Ok (Some st))
      in
      match resume with
      | Error msg ->
        answer Unresumable rq.rq_tenant ~detail:("resume: " ^ msg)
      | Stdlib.Ok resume ->
        let tn_cfg =
          Option.value
            (List.assoc_opt rq.rq_tenant t.cfg.sv_tenants)
            ~default:t.cfg.sv_default_tenant
        in
        let budget =
          match (rq.rq_mem_budget, tn_cfg.tc_mem_budget) with
          | Some a, Some b -> Some (min a b)
          | (Some _ as b), None | None, b -> b
        in
        let opts = { opts0 with Options.mem_budget = budget } in
        let n = rq.rq_n in
        let cached, decision =
          plan_decision t (cache_key t rq budget) (fun () ->
              Govern.decide ~domains:t.cfg.sv_domains (Cycle.build ccfg)
                ~opts ~n ~params:(Cycle.params ccfg ~n))
        in
        (match decision with
         | Error inf ->
           answer Infeasible rq.rq_tenant ~cached
             ~detail:
               (Printf.sprintf
                  "budget %d B below the ladder floor (%d B at rung %s)"
                  inf.Govern.inf_budget inf.Govern.floor_bytes
                  inf.Govern.floor_rung)
         | Stdlib.Ok report ->
           let rung = Govern.chosen report in
           let digest = Plan.digest rung.Govern.plan in
           let incidents_before = Flightrec.incident_count () in
           let problem = Problem.poisson ~dims:rq.rq_dims ~n in
           let problem, start_cycle =
             match resume with
             | Some st ->
               ({ problem with Problem.v = st.Checkpoint.v },
                st.Checkpoint.cycle + 1)
             | None -> (problem, 1)
           in
           let r =
             Exec.with_runtime ~domains:t.cfg.sv_domains @@ fun rt ->
             (match budget with
              | Some b when rung.Govern.ropts.Options.pool ->
                Mempool.set_budget rt.Exec.pool
                  (Some (max 1 (b - rung.Govern.scratch_bytes)))
              | _ -> ());
             Flightrec.note_plan ~digest
               ~variant:(Options.name rung.Govern.ropts);
             let primary =
               chaos t rq (Solver.plan_stepper rung.Govern.plan ~rt)
             in
             let fallback () =
               Solver.polymg_stepper ccfg ~n
                 ~opts:(Guard.fallback_opts rung.Govern.ropts)
                 ~rt
             in
             let policy =
               { Guard.default_policy with
                 Guard.tol = rq.rq_tol;
                 max_cycles =
                   min rq.rq_cycles t.cfg.sv_max_cycles + start_cycle - 1;
                 primary_retries = t.cfg.sv_primary_retries;
                 retry_backoff = t.cfg.sv_retry_backoff }
             in
             let run () =
               Guard.run ~policy ~start_cycle ~primary ~fallback ~problem ()
             in
             (* One in-flight solve owns the Watchdog's single armed
                slot, so a hung stage trips at a tile boundary instead
                of wedging the worker.  With concurrent workers the slot
                would be contended, so deadlines fall back to the
                wall-clock check below. *)
             match rq.rq_deadline_s with
             | Some _ when t.cfg.sv_workers <= 1 ->
               Watchdog.with_deadline
                 ~stage:(Printf.sprintf "request:%s" rq.rq_tenant)
                 ~budget_ns:
                   (max 1
                      (int_of_float (min deadline_left 9e9 *. 1e9)))
                 run
             | _ -> run ()
           in
           let solve_s = max 0.0 (clock () -. t_dequeue) in
           let deadline_blown =
             match rq.rq_deadline_s with
             | Some d -> queue_s +. solve_s > d
             | None -> false
           in
           let quarantined =
             List.exists
               (fun (e : Guard.event) ->
                 e.Guard.action = Guard.Quarantined_primary)
               r.Guard.events
           in
           let status =
             if deadline_blown then Deadline
             else
               match r.Guard.outcome with
               | Guard.Faulted _ -> Faulted
               | Guard.Converged | Guard.Exhausted | Guard.Stagnated ->
                 if quarantined then Quarantined else Ok
           in
           let detail =
             Printf.sprintf "%s; %d fault event(s), %d fallback cycle(s)"
               (Guard.outcome_name r.Guard.outcome)
               (List.length r.Guard.events)
               r.Guard.fallback_cycles
           in
           answer status rq.rq_tenant ~solve_s ~digest ~cached
             ~cycles:(List.length r.Guard.stats)
             ~residual:r.Guard.residual
             ~incidents:(Flightrec.incident_count () - incidents_before)
             ~detail))

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

let step t =
  Mutex.lock t.mu;
  match take_locked t with
  | None ->
    Mutex.unlock t.mu;
    false
  | Some (tn, p) ->
    t.n_busy <- t.n_busy + 1;
    Mutex.unlock t.mu;
    execute t tn p;
    Mutex.lock t.mu;
    t.n_busy <- t.n_busy - 1;
    Condition.broadcast t.idle_cond;
    Mutex.unlock t.mu;
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
    | None ->
      Mutex.unlock t.mu;
      ()
    | Some (tn, p) ->
      t.n_busy <- t.n_busy + 1;
      Mutex.unlock t.mu;
      execute t tn p;
      Mutex.lock t.mu;
      t.n_busy <- t.n_busy - 1;
      Condition.broadcast t.idle_cond;
      Mutex.unlock t.mu;
      loop ()
  in
  loop ()

let create ?(config = default_config) () =
  if config.sv_queue_cap < 1 then
    invalid_arg "Serve.create: queue cap must be at least 1";
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
