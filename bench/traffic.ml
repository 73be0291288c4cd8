(* Traffic campaign: the executable proof that multigrid-as-a-service
   stays up, fair, and leak-free under concurrent, adversarial load.
   The service analogue of pressure.ml (resource exhaustion) and
   faultinject.ml (fault recovery).

   Phase 1 — per-class probes: one request per response class (ok,
   quarantined via injected NaN and crash, deadline, budget-infeasible,
   unresumable, invalid, shed-by-eviction), each asserting its typed
   status and exit-code mapping — and, for the faulted classes, that a
   schema-valid incident report was filed AND the very next request on
   the same server still succeeds (request isolation).

   Phase 2 — load: a heavy-tail mix of shapes across three tenants.
   Alice and bob are well-behaved (bounded submission window); mallory
   floods far past its token rate and small queue cap, and every few
   requests sends a poisoned one (NaN fault, hopeless deadline,
   infeasible budget, bad resume dir, unknown variant).  Asserts:
     - every response arrives (no lost tickets), throughput > 0,
     - alice and bob are never shed and answer only "ok",
     - mallory is shed heavily (rate + queue) — the abuser degrades
       itself first — and every poisoned class shows up in its typed
       response statuses,
     - alice/bob p99 latency (read back from the serve_latency_ns
       Metrics histograms) stays within a generous budget, i.e. the
       abuser cannot starve the well-behaved tenants,
     - the shared plan cache reports hits (serve.plan_cache_hits > 0),
     - after drain + shutdown the memory pools are quiescent:
       Mempool.assert_quiescent sees zero outstanding buffers across
       every request including the faulted ones.

   Writes a polymg.traffic/1 JSON report with --out and the OpenMetrics
   dump with --metrics; --quick trims the request counts for CI smoke.
   Incident reports land under --incident-dir for incident_check.exe. *)

open Repro_mg
module Telemetry = Repro_runtime.Telemetry
module Metrics = Repro_runtime.Metrics
module Flightrec = Repro_runtime.Flightrec
module Snapshot = Repro_runtime.Snapshot
module Json = Repro_runtime.Json

(* -- phase 1: one probe per response class ------------------------------- *)

let probe_request =
  { Serve.default_request with
    Serve.rq_tenant = "probe";
    rq_n = 32;
    rq_cycles = 3;
    rq_variant = "opt+" }

let phase_probes ~incident_dir =
  Printf.printf "phase 1: response-class probes\n%!";
  let config =
    { Serve.default_config with
      Serve.sv_allow_faults = true;
      sv_tenants = [ ("probe", Serve.default_tenant) ] }
  in
  let sv = Serve.create ~config () in
  let case name rq ~status ~code ?(min_incidents = 0) () =
    let r = Serve.solve sv rq in
    (* isolation: the server must answer a clean request right after
       every probe, whatever the probe did to its own solve *)
    let after = Serve.solve sv probe_request in
    let pass =
      r.Serve.rs_status = status
      && r.Serve.rs_code = code
      && r.Serve.rs_incidents >= min_incidents
      && after.Serve.rs_status = Serve.Ok
    in
    Campaign.check ~name ~pass
      ~detail:
        [ ("status", Json.Str (Serve.status_name r.Serve.rs_status));
          ("code", Json.num r.Serve.rs_code);
          ("incidents", Json.num r.Serve.rs_incidents);
          ("detail", Json.Str r.Serve.rs_detail);
          ( "next_request_status",
            Json.Str (Serve.status_name after.Serve.rs_status) ) ]
  in
  case "probe-ok" probe_request ~status:Serve.Ok ~code:0 ();
  case "probe-nan-quarantined"
    { probe_request with Serve.rq_fault = Some "nan"; rq_cycles = 4 }
    ~status:Serve.Quarantined ~code:3 ~min_incidents:1 ();
  case "probe-crash-quarantined"
    { probe_request with Serve.rq_fault = Some "crash"; rq_cycles = 4 }
    ~status:Serve.Quarantined ~code:3 ~min_incidents:1 ();
  case "probe-deadline"
    { probe_request with
      Serve.rq_n = 128;
      rq_cycles = 5;
      rq_deadline_s = Some 1e-4 }
    ~status:Serve.Deadline ~code:4 ();
  case "probe-infeasible"
    { probe_request with Serve.rq_mem_budget = Some 4096 }
    ~status:Serve.Infeasible ~code:5 ();
  case "probe-unresumable"
    { probe_request with Serve.rq_resume_dir = Some "traffic-empty-ckpt" }
    ~status:Serve.Unresumable ~code:6 ();
  case "probe-invalid"
    { probe_request with Serve.rq_variant = "bogus" }
    ~status:Serve.Invalid ~code:2 ();
  Serve.shutdown sv;
  (* shed + eviction on a caller-driven server: queue bounds are exact
     with no worker racing the admissions *)
  let config =
    { Serve.default_config with
      Serve.sv_workers = 0;
      sv_queue_cap = 6;
      sv_allow_faults = false;
      sv_tenants =
        [ ("greedy", { Serve.default_tenant with Serve.tc_queue_cap = 8 });
          ("meek", Serve.default_tenant) ] }
  in
  let sv = Serve.create ~config () in
  let tiny tenant =
    { Serve.default_request with
      Serve.rq_tenant = tenant;
      rq_n = 32;
      rq_cycles = 1;
      rq_variant = "naive" }
  in
  let meek_tk = Serve.submit sv (tiny "meek") in
  let greedy_tks = List.init 8 (fun _ -> Serve.submit sv (tiny "greedy")) in
  let greedy = Serve.tenant_stats sv "greedy" in
  let meek = Serve.tenant_stats sv "meek" in
  let shed_resp =
    List.filter_map Serve.peek greedy_tks
    |> List.find_opt (fun r -> r.Serve.rs_status = Serve.Shed)
  in
  Serve.drain sv;
  let meek_resp = Serve.await meek_tk in
  Serve.shutdown sv;
  Campaign.check ~name:"probe-eviction-sheds-heaviest"
    ~pass:
      (greedy.Serve.ts_evicted >= 1 && meek.Serve.ts_evicted = 0
      && meek_resp.Serve.rs_status = Serve.Ok
      && (match shed_resp with
          | Some r ->
            r.Serve.rs_code = 7 && r.Serve.rs_retry_after_s <> None
          | None -> false))
    ~detail:
      [ ("greedy_evicted", Json.num greedy.Serve.ts_evicted);
        ("meek_evicted", Json.num meek.Serve.ts_evicted);
        ("meek_status", Json.Str (Serve.status_name meek_resp.Serve.rs_status)) ];
  if incident_dir <> None then begin
    let expect kind =
      Campaign.expect_incident ~dir:incident_dir ~kinds:[ kind ] ()
    in
    let problems = expect "nan" @ expect "crash" in
    Campaign.check ~name:"probe-incident-trail" ~pass:(problems = [])
      ~detail:[ ("problems", Campaign.strings problems) ]
  end

(* -- phase 2: mixed-tenant load ------------------------------------------ *)

(* Deterministic splitmix-style PRNG so the heavy-tail mix replays
   identically run to run. *)
let rng = ref 0x2545F491
let rand_int bound =
  (* 48-bit LCG (POSIX drand48 constants) *)
  rng := ((!rng * 25214903917) + 11) land 0xFFFFFFFFFFFF;
  (!rng lsr 16) mod bound

(* Heavy-tail shape mix: mostly tiny solves, a thin tail of big ones
   (32 is the smallest valid n for the default 4-level cycle). *)
let tail_n () =
  let r = rand_int 100 in
  if r < 70 then 32 else if r < 98 then 64 else 128

let mk_request tenant =
  let variant = if rand_int 10 < 8 then "opt+" else "opt" in
  { Serve.default_request with
    Serve.rq_tenant = tenant;
    rq_n = tail_n ();
    rq_cycles = 1 + rand_int 2;
    rq_variant = variant }

(* Every poisoned flavour mallory sends, cycled through in order so each
   class appears even in --quick runs. *)
let poison rq = function
  | 0 -> { rq with Serve.rq_fault = Some "nan"; rq_cycles = 4 }
  | 1 -> { rq with Serve.rq_n = 128; rq_cycles = 5; rq_deadline_s = Some 1e-4 }
  | 2 -> { rq with Serve.rq_mem_budget = Some 4096 }
  | 3 -> { rq with Serve.rq_resume_dir = Some "traffic-empty-ckpt" }
  | _ -> { rq with Serve.rq_variant = "bogus" }

let phase_load ~quick =
  Printf.printf "phase 2: mixed-tenant load%s\n%!" (if quick then " (quick)" else "");
  (* full mode: 10k+ requests end to end; --quick trims for CI smoke *)
  let per_good = if quick then 300 else 6000 in
  let flood = if quick then 400 else 4000 in
  let config =
    { Serve.default_config with
      Serve.sv_allow_faults = true;
      sv_queue_cap = 64;
      sv_tenants =
        [ ("alice", Serve.default_tenant);
          ("bob", Serve.default_tenant);
          ( "mallory",
            { Serve.tc_rate = 20.0;
              tc_burst = 8.0;
              tc_queue_cap = 8;
              tc_mem_budget = Some (32 * 1024 * 1024) } ) ] }
  in
  let sv = Serve.create ~config () in
  let t0 = Unix.gettimeofday () in
  let all_tickets : (string * Serve.ticket) list ref = ref [] in
  let submit tenant rq =
    let tk = Serve.submit sv rq in
    all_tickets := (tenant, tk) :: !all_tickets;
    tk
  in
  (* well-behaved tenants: at most [window] requests in flight each *)
  let window = 4 in
  let good_outstanding = Queue.create () in
  let pump_good tenant =
    if Queue.length good_outstanding >= 2 * window then
      ignore (Serve.await (Queue.pop good_outstanding));
    Queue.push (submit tenant (mk_request tenant)) good_outstanding
  in
  let mallory_sent = ref 0 in
  let pump_mallory () =
    (* floods: a burst per turn, poisoned every 7th request *)
    for _ = 1 to 3 do
      let rq = mk_request "mallory" in
      let rq =
        if !mallory_sent mod 7 = 6 then poison rq (!mallory_sent / 7 mod 5)
        else rq
      in
      incr mallory_sent;
      ignore (submit "mallory" rq)
    done
  in
  (* mallory leads with one request of every poisoned class — all five
     admitted within its initial token burst, so every typed failure
     status is observed deterministically *)
  for k = 0 to 4 do
    incr mallory_sent;
    ignore (submit "mallory" (poison (mk_request "mallory") k))
  done;
  (* the rest of the burst drains within a few turns, and the steady
     20/s refill cannot keep up with 3 floods per turn *)
  for i = 0 to per_good - 1 do
    pump_good (if i land 1 = 0 then "alice" else "bob");
    if !mallory_sent < flood then pump_mallory ()
  done;
  while !mallory_sent < flood do
    pump_mallory ()
  done;
  (* collect every response: no ticket may be lost *)
  let responses =
    List.rev_map (fun (tenant, tk) -> (tenant, Serve.await tk)) !all_tickets
  in
  Serve.drain sv;
  let elapsed = Unix.gettimeofday () -. t0 in
  let total = List.length responses in
  let count pred = List.length (List.filter pred responses) in
  let by tenant status =
    count (fun (t, r) -> t = tenant && r.Serve.rs_status = status)
  in
  let good_total = count (fun (t, _) -> t = "alice" || t = "bob") in
  let good_ok = by "alice" Serve.Ok + by "bob" Serve.Ok in
  let alice = Serve.tenant_stats sv "alice" in
  let bob = Serve.tenant_stats sv "bob" in
  let mallory = Serve.tenant_stats sv "mallory" in
  let executed = Telemetry.value (Telemetry.counter "serve.completed") in
  let sent = per_good + !mallory_sent in
  Campaign.check ~name:"load-all-responses-arrive"
    ~pass:(total = sent && executed > 0)
    ~detail:
      [ ("total", Json.num total);
        ("expected", Json.num sent);
        ("elapsed_s", Json.Num elapsed);
        ("throughput_rps", Json.Num (float_of_int total /. elapsed)) ];
  Campaign.check ~name:"load-good-tenants-never-degraded"
    ~pass:
      (alice.Serve.ts_shed = 0 && bob.Serve.ts_shed = 0
      && alice.Serve.ts_evicted = 0 && bob.Serve.ts_evicted = 0
      && good_ok = good_total)
    ~detail:
      [ ("alice_shed", Json.num alice.Serve.ts_shed);
        ("bob_shed", Json.num bob.Serve.ts_shed);
        ("good_ok", Json.num good_ok);
        ("good_total", Json.num good_total) ];
  Campaign.check ~name:"load-abuser-shed-first"
    ~pass:
      (mallory.Serve.ts_shed > !mallory_sent / 2
      && mallory.Serve.ts_accepted > 0)
    ~detail:
      [ ("mallory_sent", Json.num !mallory_sent);
        ("mallory_shed", Json.num mallory.Serve.ts_shed);
        ("mallory_accepted", Json.num mallory.Serve.ts_accepted) ];
  let m_quarantined = by "mallory" Serve.Quarantined in
  let m_deadline = by "mallory" Serve.Deadline in
  let m_infeasible = by "mallory" Serve.Infeasible in
  let m_unresumable = by "mallory" Serve.Unresumable in
  let m_invalid = by "mallory" Serve.Invalid in
  let m_shed = by "mallory" Serve.Shed in
  Campaign.check ~name:"load-poison-classes-all-typed"
    ~pass:
      (m_quarantined >= 1 && m_deadline >= 1 && m_infeasible >= 1
      && m_unresumable >= 1 && m_invalid >= 1 && m_shed >= 1)
    ~detail:
      [ ("quarantined", Json.num m_quarantined);
        ("deadline", Json.num m_deadline);
        ("infeasible", Json.num m_infeasible);
        ("unresumable", Json.num m_unresumable);
        ("invalid", Json.num m_invalid);
        ("shed", Json.num m_shed) ];
  (* fairness: the abuser must not starve the good tenants.  The budget
     is generous (CI machines are noisy) but far below what an unfair
     scheduler would produce with mallory's queue always full. *)
  let p99_budget_s = 2.0 in
  let p tenant q =
    Metrics.percentile
      (Metrics.histogram ~labels:[ ("tenant", tenant) ] "serve_latency_ns")
      q
    /. 1e9
  in
  let alice_p99 = p "alice" 0.99 and bob_p99 = p "bob" 0.99 in
  Campaign.check ~name:"load-good-tenant-p99-within-budget"
    ~pass:
      ((not (Float.is_nan alice_p99)) && alice_p99 <= p99_budget_s
      && (not (Float.is_nan bob_p99)) && bob_p99 <= p99_budget_s)
    ~detail:
      [ ("alice_p50_s", Json.Num (p "alice" 0.5));
        ("alice_p99_s", Json.Num alice_p99);
        ("bob_p99_s", Json.Num bob_p99);
        ("budget_s", Json.Num p99_budget_s) ];
  let hits, misses = Serve.plan_cache_stats sv in
  Campaign.check ~name:"load-plan-cache-hits"
    ~pass:
      (hits > 0
      (* the counters are process-global: phase 1's server contributes *)
      && Telemetry.value (Telemetry.counter "serve.plan_cache_hits") >= hits
      && Telemetry.value (Telemetry.counter "serve.plan_cache_misses") >= misses)
    ~detail:[ ("hits", Json.num hits); ("misses", Json.num misses) ];
  Serve.shutdown sv

(* -- driver -------------------------------------------------------------- *)

let () =
  let metrics_out = ref None in
  Campaign.parse
    ~usage:
      "usage: traffic.exe [--quick] [--out FILE] [--metrics FILE] \
       [--incident-dir DIR]"
    [ Campaign.quick_flag;
      Campaign.out_flag;
      ( "--metrics",
        Arg.String (fun p -> metrics_out := Some p),
        "FILE Write the OpenMetrics dump to FILE" );
      Campaign.incident_dir_flag ];
  let quick = !Campaign.quick and incident_dir = !Campaign.incident_dir in
  Printf.printf "traffic campaign%s: multigrid-as-a-service under load\n%!"
    (if quick then " (quick)" else "");
  Telemetry.reset ();
  Metrics.reset ();
  Telemetry.set_enabled true;
  Flightrec.set_enabled true;
  Flightrec.set_max_incidents 16;
  if incident_dir <> None then Flightrec.set_incident_dir incident_dir;
  phase_probes ~incident_dir;
  phase_load ~quick;
  Telemetry.set_enabled false;
  Flightrec.set_enabled false;
  (* the headline leak check: across every request, including the
     faulted, quarantined, deadline-stopped and budget-refused ones *)
  Campaign.teardown ~name:"pools-quiescent";
  Option.iter
    (fun path ->
      Snapshot.atomic_write_string ~path (Metrics.to_openmetrics ());
      Printf.printf "traffic: wrote %s\n" path)
    !metrics_out;
  Campaign.finish ~schema:"polymg.traffic/1" "traffic campaign"
