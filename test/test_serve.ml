(* Multigrid-as-a-service unit tests: the admission, fairness, and
   plan-cache machinery of Repro_mg.Serve, driven deterministically with
   a frozen injectable clock and caller-driven execution
   ([sv_workers = 0] + [step]).  The concurrent end-to-end behavior is
   exercised by bench/traffic.exe; here every queue bound, token-bucket
   decision, eviction choice, and status/exit-code mapping is pinned
   exactly. *)

open Repro_mg

(* -- harness ------------------------------------------------------------ *)

(* A frozen clock the test advances by hand: token refill, queue waits,
   and deadline checks all become exact arithmetic. *)
let clock_now = ref 0.0

let server ?(queue_cap = 64) ?(workers = 0) ?(tenants = []) ?(allow_faults = false)
    () =
  clock_now := 0.0;
  let config =
    { Serve.default_config with
      Serve.sv_workers = workers;
      sv_queue_cap = queue_cap;
      sv_tenants = tenants;
      sv_allow_faults = allow_faults;
      sv_clock = (fun () -> !clock_now) }
  in
  Serve.create ~config ()

(* The cheapest possible valid request: one naive V-cycle on the
   smallest grid the default 4-level cycle accepts. *)
let tiny tenant =
  { Serve.default_request with
    Serve.rq_tenant = tenant;
    rq_n = 32;
    rq_cycles = 1;
    rq_variant = "naive" }

(* Admission-only tests don't care about the solve: an unknown variant
   is admitted normally and answered instantly at execution. *)
let inert tenant = { (tiny tenant) with Serve.rq_variant = "bogus" }

let status_t : Serve.status Alcotest.testable =
  Alcotest.testable
    (fun ppf s -> Format.pp_print_string ppf (Serve.status_name s))
    ( = )

let check_status = Alcotest.check status_t

(* -- status and code mapping -------------------------------------------- *)

let all_statuses =
  [ Serve.Ok; Serve.Invalid; Serve.Quarantined; Serve.Deadline; Serve.Faulted;
    Serve.Infeasible; Serve.Unresumable; Serve.Shed ]

let test_status_codes () =
  let expect =
    [ (Serve.Ok, 0); (Serve.Invalid, 2); (Serve.Quarantined, 3);
      (Serve.Deadline, 4); (Serve.Faulted, 4); (Serve.Infeasible, 5);
      (Serve.Unresumable, 6); (Serve.Shed, 7) ]
  in
  List.iter
    (fun (s, code) ->
      Alcotest.(check int) (Serve.status_name s) code (Serve.code_of_status s))
    expect

let test_status_names_roundtrip () =
  List.iter
    (fun s ->
      match Serve.status_of_name (Serve.status_name s) with
      | Some s' -> check_status (Serve.status_name s) s s'
      | None -> Alcotest.fail ("unnamed status " ^ Serve.status_name s))
    all_statuses;
  Alcotest.(check bool) "unknown name" true (Serve.status_of_name "nope" = None)

(* -- wire codec ---------------------------------------------------------- *)

let test_request_codec_roundtrip () =
  let rq =
    { Serve.rq_tenant = "alice";
      rq_dims = 3;
      rq_n = 128;
      rq_shape = Cycle.W;
      rq_smoothing = (2, 5, 3);
      rq_variant = "dtile-opt+";
      rq_cycles = 7;
      rq_tol = Some 1e-9;
      rq_deadline_s = Some 2.5;
      rq_mem_budget = Some 123456;
      rq_resume_dir = Some "ckpt";
      rq_fault = Some "nan" }
  in
  match Serve.request_of_json (Serve.request_to_json rq) with
  | Ok rq' -> Alcotest.(check bool) "request round-trips" true (rq = rq')
  | Error m -> Alcotest.fail m

let test_request_defaults () =
  (* an empty object parses to the defaults *)
  match Serve.request_of_json (Repro_runtime.Json.Obj []) with
  | Ok rq ->
    Alcotest.(check bool) "defaults" true (rq = Serve.default_request)
  | Error m -> Alcotest.fail m

let test_response_codec_roundtrip () =
  let rs =
    { Serve.rs_status = Serve.Quarantined;
      rs_code = 3;
      rs_tenant = "bob";
      rs_cycles = 4;
      rs_residual = 0.125;
      rs_queue_s = 0.5;
      rs_solve_s = 1.25;
      rs_retry_after_s = Some 0.75;
      rs_plan_digest = "abcd";
      rs_plan_cached = true;
      rs_incidents = 2;
      rs_detail = "quarantined after 2 faults" }
  in
  match Serve.response_of_json (Serve.response_to_json rs) with
  | Ok rs' -> Alcotest.(check bool) "response round-trips" true (rs = rs')
  | Error m -> Alcotest.fail m

let with_temp_file f =
  let path = Filename.temp_file "serve_frame" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with _ -> ()) (fun () ->
      f path)

let test_frame_roundtrip () =
  with_temp_file (fun path ->
      let j = Serve.request_to_json (tiny "alice") in
      let oc = open_out_bin path in
      Serve.write_frame oc j;
      Serve.write_frame oc j;
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
          (match Serve.read_frame ic with
           | Some (Ok j') ->
             Alcotest.(check bool) "first frame" true (j = j')
           | Some (Error m) -> Alcotest.fail m
           | None -> Alcotest.fail "unexpected EOF");
          (match Serve.read_frame ic with
           | Some (Ok _) -> ()
           | _ -> Alcotest.fail "second frame lost");
          Alcotest.(check bool) "clean EOF" true (Serve.read_frame ic = None)))

let test_frame_oversized_refused () =
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      (* header claiming a payload one past the cap, no payload bytes *)
      let len = Serve.max_frame_bytes + 1 in
      output_byte oc ((len lsr 24) land 0xff);
      output_byte oc ((len lsr 16) land 0xff);
      output_byte oc ((len lsr 8) land 0xff);
      output_byte oc (len land 0xff);
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
          match Serve.read_frame ic with
          | Some (Error _) -> ()
          | Some (Ok _) -> Alcotest.fail "oversized frame accepted"
          | None -> Alcotest.fail "oversized frame read as EOF"))

let test_frame_truncated () =
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      output_byte oc 0;
      output_byte oc 0;
      output_byte oc 0;
      output_byte oc 10;
      output_string oc "abc";
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
          match Serve.read_frame ic with
          | Some (Error _) -> ()
          | _ -> Alcotest.fail "truncated frame not reported"))

(* -- admission ------------------------------------------------------------ *)

let test_tenant_queue_cap () =
  let sv =
    server
      ~tenants:[ ("m", { Serve.default_tenant with Serve.tc_queue_cap = 3 }) ]
      ()
  in
  let tks = List.init 5 (fun _ -> Serve.submit sv (inert "m")) in
  let shed =
    List.filter_map Serve.peek tks
    |> List.filter (fun r -> r.Serve.rs_status = Serve.Shed)
  in
  Alcotest.(check int) "two shed at submit" 2 (List.length shed);
  Alcotest.(check int) "three queued" 3 (Serve.pending sv);
  List.iter
    (fun r ->
      Alcotest.(check int) "shed code" 7 r.Serve.rs_code;
      Alcotest.(check bool) "retry hint" true (r.Serve.rs_retry_after_s <> None))
    shed;
  let st = Serve.tenant_stats sv "m" in
  Alcotest.(check int) "accepted" 3 st.Serve.ts_accepted;
  Alcotest.(check int) "shed" 2 st.Serve.ts_shed;
  Serve.shutdown sv

let test_token_bucket_math () =
  let sv =
    server
      ~tenants:
        [ ( "m",
            { Serve.default_tenant with Serve.tc_rate = 2.0; tc_burst = 2.0 } )
        ]
      ()
  in
  let ok1 = Serve.submit sv (inert "m") in
  let ok2 = Serve.submit sv (inert "m") in
  Alcotest.(check bool) "burst admitted" true
    (Serve.peek ok1 = None && Serve.peek ok2 = None);
  (* bucket empty: the shed reply must say exactly when a token is back *)
  (match Serve.peek (Serve.submit sv (inert "m")) with
   | Some r ->
     check_status "rate shed" Serve.Shed r.Serve.rs_status;
     (match r.Serve.rs_retry_after_s with
      | Some ra ->
        Alcotest.(check (float 1e-9)) "retry_after = (1 - tokens)/rate" 0.5 ra
      | None -> Alcotest.fail "no retry_after on rate shed")
   | None -> Alcotest.fail "rate shed not answered at submit");
  (* half a second later one token has refilled *)
  clock_now := 0.5;
  Alcotest.(check bool) "refilled token admits" true
    (Serve.peek (Serve.submit sv (inert "m")) = None);
  (* and it was spent: the next submission sheds again *)
  (match Serve.peek (Serve.submit sv (inert "m")) with
   | Some r -> check_status "spent again" Serve.Shed r.Serve.rs_status
   | None -> Alcotest.fail "expected rate shed");
  Serve.shutdown sv

let test_eviction_heaviest_newest () =
  let sv = server ~queue_cap:2 () in
  let g1 = Serve.submit sv (inert "greedy") in
  let g2 = Serve.submit sv (inert "greedy") in
  Alcotest.(check int) "global queue full" 2 (Serve.pending sv);
  let m1 = Serve.submit sv (inert "meek") in
  (* the newest request of the heaviest tenant made room *)
  Alcotest.(check bool) "oldest greedy kept" true (Serve.peek g1 = None);
  (match Serve.peek g2 with
   | Some r ->
     check_status "newest greedy evicted" Serve.Shed r.Serve.rs_status;
     Alcotest.(check int) "eviction code" 7 r.Serve.rs_code
   | None -> Alcotest.fail "eviction not answered");
  Alcotest.(check bool) "meek admitted" true (Serve.peek m1 = None);
  Alcotest.(check int) "still at cap" 2 (Serve.pending sv);
  let g = Serve.tenant_stats sv "greedy" and m = Serve.tenant_stats sv "meek" in
  Alcotest.(check int) "greedy evicted" 1 g.Serve.ts_evicted;
  Alcotest.(check int) "meek untouched" 0 (m.Serve.ts_evicted + m.Serve.ts_shed);
  Serve.shutdown sv

(* -- fairness -------------------------------------------------------------- *)

let test_round_robin_order () =
  let sv = server () in
  (* alice floods three, bob and carol one each — service order must
     interleave: alice, bob, carol, alice, alice *)
  let tks =
    (* List.map so the submissions are sequenced left to right (a list
       literal would evaluate them right to left) *)
    List.map
      (fun name -> (name, Serve.submit sv (inert name)))
      [ "alice"; "alice"; "alice"; "bob"; "carol" ]
  in
  let served = ref [] in
  while Serve.step sv do
    let newly =
      List.find_opt
        (fun (name, tk) ->
          Serve.peek tk <> None
          && not (List.exists (fun (n, t) -> n == name && t == tk) !served))
        tks
    in
    match newly with
    | Some pair -> served := pair :: !served
    | None -> Alcotest.fail "step answered no ticket"
  done;
  Alcotest.(check (list string)) "round-robin order"
    [ "alice"; "bob"; "carol"; "alice"; "alice" ]
    (List.rev_map fst !served);
  Serve.shutdown sv

(* -- deadlines ------------------------------------------------------------ *)

let test_deadline_expired_in_queue () =
  let sv = server () in
  let tk =
    Serve.submit sv { (tiny "t") with Serve.rq_deadline_s = Some 1.0 }
  in
  clock_now := 2.0;
  Alcotest.(check bool) "one step" true (Serve.step sv);
  (match Serve.peek tk with
   | Some r ->
     check_status "queued past deadline" Serve.Deadline r.Serve.rs_status;
     Alcotest.(check int) "deadline code" 4 r.Serve.rs_code;
     Alcotest.(check int) "no cycle ran" 0 r.Serve.rs_cycles
   | None -> Alcotest.fail "not answered");
  Serve.shutdown sv

(* -- plan cache ----------------------------------------------------------- *)

let test_plan_cache_hits () =
  let sv = server () in
  let solve rq =
    let tk = Serve.submit sv rq in
    Serve.drain sv;
    Serve.await tk
  in
  let r1 = solve (tiny "t") in
  check_status "first ok" Serve.Ok r1.Serve.rs_status;
  Alcotest.(check bool) "first is a miss" false r1.Serve.rs_plan_cached;
  let r2 = solve (tiny "t") in
  check_status "second ok" Serve.Ok r2.Serve.rs_status;
  Alcotest.(check bool) "repeat shape hits" true r2.Serve.rs_plan_cached;
  Alcotest.(check bool) "same plan digest" true
    (r1.Serve.rs_plan_digest = r2.Serve.rs_plan_digest
    && r1.Serve.rs_plan_digest <> "");
  Alcotest.(check (pair int int)) "stats" (1, 1) (Serve.plan_cache_stats sv);
  (* a different budget is a different governance question: fresh entry *)
  let r3 =
    solve { (tiny "t") with Serve.rq_mem_budget = Some (64 * 1024 * 1024) }
  in
  Alcotest.(check bool) "budget splits the key" false r3.Serve.rs_plan_cached;
  Alcotest.(check (pair int int)) "stats after budget" (1, 2)
    (Serve.plan_cache_stats sv);
  Serve.shutdown sv

(* -- end-to-end statuses (caller-driven) ---------------------------------- *)

let test_solve_statuses () =
  let sv = server ~workers:1 ~allow_faults:true () in
  let r = Serve.solve sv (tiny "t") in
  check_status "ok" Serve.Ok r.Serve.rs_status;
  Alcotest.(check bool) "residual finite" true (Float.is_finite r.Serve.rs_residual);
  Alcotest.(check bool) "cycles ran" true (r.Serve.rs_cycles >= 1);
  let r = Serve.solve sv (inert "t") in
  check_status "invalid" Serve.Invalid r.Serve.rs_status;
  let r = Serve.solve sv { (tiny "t") with Serve.rq_tol = Some (-1.0) } in
  check_status "tol -1 invalid" Serve.Invalid r.Serve.rs_status;
  Alcotest.(check int) "tol -1 code" 2 r.Serve.rs_code;
  let r = Serve.solve sv { (tiny "t") with Serve.rq_mem_budget = Some 4096 } in
  check_status "infeasible" Serve.Infeasible r.Serve.rs_status;
  let r =
    Serve.solve sv
      { (tiny "t") with Serve.rq_resume_dir = Some "serve-no-such-ckpt" }
  in
  check_status "unresumable" Serve.Unresumable r.Serve.rs_status;
  let r =
    Serve.solve sv
      { (tiny "t") with Serve.rq_fault = Some "nan"; rq_cycles = 4 }
  in
  check_status "nan quarantined" Serve.Quarantined r.Serve.rs_status;
  (* isolation: the same server answers cleanly right after *)
  let r = Serve.solve sv (tiny "t") in
  check_status "isolated" Serve.Ok r.Serve.rs_status;
  Serve.shutdown sv

let test_faults_refused_by_default () =
  let sv = server ~workers:1 () in
  let r = Serve.solve sv { (tiny "t") with Serve.rq_fault = Some "nan" } in
  check_status "chaos gated" Serve.Invalid r.Serve.rs_status;
  Serve.shutdown sv

(* -- randomized admission invariants -------------------------------------- *)

(* Any interleaving of submissions across three tenants keeps the exact
   bookkeeping identities: accepted + shed = submitted per tenant,
   the global queue never exceeds its cap, and after a drain every
   ticket is answered with sheds carrying code 7. *)
let prop_admission_invariants =
  QCheck.Test.make ~count:100 ~name:"admission bookkeeping is exact"
    QCheck.(list_of_size (Gen.int_range 0 60) (int_range 0 2))
    (fun tenant_idxs ->
      let names = [| "a"; "b"; "c" |] in
      let sv =
        server ~queue_cap:5
          ~tenants:
            (Array.to_list names
            |> List.map (fun n ->
                   (n, { Serve.default_tenant with Serve.tc_queue_cap = 3 })))
          ()
      in
      let submitted = Array.make 3 0 in
      let ok = ref true in
      let tks =
        List.map
          (fun i ->
            submitted.(i) <- submitted.(i) + 1;
            let tk = Serve.submit sv (inert names.(i)) in
            if Serve.pending sv > 5 then ok := false;
            tk)
          tenant_idxs
      in
      Serve.drain sv;
      let responses = List.map Serve.await tks in
      let sheds =
        List.length
          (List.filter (fun r -> r.Serve.rs_status = Serve.Shed) responses)
      in
      let tot_shed = ref 0 in
      Array.iteri
        (fun i name ->
          let st = Serve.tenant_stats sv name in
          if st.Serve.ts_accepted + st.Serve.ts_shed <> submitted.(i) then
            ok := false;
          if st.Serve.ts_evicted > st.Serve.ts_accepted then ok := false;
          tot_shed := !tot_shed + st.Serve.ts_shed + st.Serve.ts_evicted)
        names;
      if sheds <> !tot_shed then ok := false;
      if Serve.pending sv <> 0 then ok := false;
      List.iter
        (fun r ->
          if r.Serve.rs_status = Serve.Shed && r.Serve.rs_code <> 7 then
            ok := false)
        responses;
      Serve.shutdown sv;
      !ok)

(* -- one solve path: the CLI's description and Serve agree ---------------- *)

module Flightrec = Repro_runtime.Flightrec
module Telemetry = Repro_runtime.Telemetry

let temp_dir tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "polymg-serve-test-%d-%s" (Unix.getpid ()) tag)

let rm_dir d =
  if Sys.file_exists d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Unix.rmdir d
  end

(* What mg_solve builds from its flags, run the way mg_solve runs it. *)
let cli (spec : Request.spec) =
  match Request.validate spec with
  | Error e -> Alcotest.failf "invalid CLI spec: %s" e
  | Ok rq -> Request.run rq

(* Checkpoint under opt+, resume the same problem under dtile-opt+: the
   service must notice the plan changed, as the CLI does. *)
let test_resume_drift () =
  let dir = temp_dir "ckpt" and incidents = temp_dir "incidents" in
  Flightrec.set_enabled true;
  Flightrec.set_incident_dir (Some incidents);
  Fun.protect
    ~finally:(fun () ->
      Flightrec.set_incident_dir None;
      Flightrec.set_enabled false;
      rm_dir dir;
      rm_dir incidents)
    (fun () ->
      (match
         cli
           { Request.default_spec with
             n = Some 32; cycles = 2; checkpoint_dir = Some dir }
       with
       | Request.Solved _ -> ()
       | o ->
         Alcotest.failf "checkpoint run: %s"
           (Request.status_name (Request.status o)));
      let sv = server ~workers:1 () in
      let rq =
        { Serve.default_request with
          Serve.rq_n = 32; rq_cycles = 4; rq_resume_dir = Some dir }
      in
      let same = Serve.solve sv rq in
      check_status "same-plan resume" Serve.Ok same.Serve.rs_status;
      Alcotest.(check int) "same plan: no incident" 0 same.Serve.rs_incidents;
      Alcotest.(check int) "continues to the budget" 2 same.Serve.rs_cycles;
      let drift = Serve.solve sv { rq with Serve.rq_variant = "dtile-opt+" } in
      check_status "replanned resume" Serve.Ok drift.Serve.rs_status;
      Alcotest.(check int) "drift: one incident" 1 drift.Serve.rs_incidents;
      Alcotest.(check bool) "resume-replan report filed" true
        (Array.exists
           (fun f -> Filename.check_suffix f "-resume-replan.json")
           (Sys.readdir incidents));
      Serve.shutdown sv)

(* A checkpoint that already covers the cycle budget answers at once:
   nothing runs and no plan is decided, so neither an unusable budget
   nor the missing guard result can turn it into a failure.  An
   unusable resume is refused before the budget is looked at. *)
let test_resume_covered () =
  let dir = temp_dir "covered" in
  Fun.protect
    ~finally:(fun () -> rm_dir dir)
    (fun () ->
      (match
         cli
           { Request.default_spec with
             n = Some 32; cycles = 3; checkpoint_dir = Some dir }
       with
       | Request.Solved _ -> ()
       | o ->
         Alcotest.failf "checkpoint run: %s"
           (Request.status_name (Request.status o)));
      let sv = server ~workers:1 () in
      let rq =
        { Serve.default_request with
          Serve.rq_n = 32; rq_cycles = 3; rq_resume_dir = Some dir }
      in
      List.iter
        (fun (what, rq) ->
          let rs = Serve.solve sv rq in
          check_status what Serve.Ok rs.Serve.rs_status;
          Alcotest.(check int) (what ^ ": checkpoint's cycles") 3
            rs.Serve.rs_cycles;
          Alcotest.(check string) (what ^ ": detail")
            "checkpoint already meets the cycle budget" rs.Serve.rs_detail)
        [ ("equal budget", rq);
          ("smaller budget", { rq with Serve.rq_cycles = 2 });
          ("infeasible budget", { rq with Serve.rq_mem_budget = Some 1024 }) ];
      Serve.shutdown sv;
      let guarded =
        { Request.default_spec with
          n = Some 32; cycles = 3; guard = true; mem_budget = Some 1024;
          checkpoint_dir = Some dir; resume_dir = Some dir }
      in
      check_status "mg_solve --guard, infeasible budget" Serve.Ok
        (Request.status (cli guarded));
      check_status "unusable resume beats an infeasible budget"
        Serve.Unresumable
        (Request.status
           (cli { guarded with cycles = 6; resume_dir = Some (dir ^ "-none") })))

let high_water = Telemetry.counter "govern.pool_high_water_bytes"

(* The unbudgeted ladder the model gives [variant] on a V-4-4-4 or
   W-4-4-4 cycle at Request's default depth. *)
let ladder ~dims ~n shape variant =
  let cfg =
    { (Cycle.default ~dims ~shape ~smoothing:(4, 4, 4)) with
      Cycle.levels = Request.default_spec.Request.levels }
  in
  let opts = Option.get (Repro_core.Options.variant_of_string variant) in
  match
    Repro_core.Govern.decide (Cycle.build cfg) ~opts ~n
      ~params:(Cycle.params cfg ~n)
  with
  | Ok r -> r.Repro_core.Govern.ladder
  | Error _ -> Alcotest.fail "no budget is never infeasible"

(* 2-D n=64 V-4-4-4, 4 cycles.  dtile-opt+ at 100 and 90 KiB demotes at
   plan time to a rung whose pool fits (exit 0, no runtime demotion).
   Poison mode adds guard words the model does not count, so a poisoned
   pool overruns a rung admitted at exactly its footprint: opt+ at its
   own footprint demotes once at run time and ends 0, and dtile-opt+ at
   its ladder's floor overruns the one rung that fits and ends 5.
   mg_solve with and without --guard and Serve (which has no poison
   mode) must give one answer, and the pool must stay within the
   budget. *)
let test_budget_agreement () =
  let sv = server ~workers:1 () in
  let peaks variant =
    Array.map
      (fun g -> g.Repro_core.Govern.peak_bytes)
      (ladder ~dims:2 ~n:64 Cycle.V variant)
  in
  let opt_plus = (peaks "opt+").(0)
  and dtile_floor = Array.fold_left min max_int (peaks "dtile-opt+") in
  List.iter
    (fun (variant, budget, poison, expected, demotions) ->
      let spec =
        { Request.default_spec with
          n = Some 64; variant; cycles = 4; mem_budget = Some budget; poison }
      in
      let what w =
        Printf.sprintf "%s %s at %d B%s" w variant budget
          (if poison then " --poison" else "")
      in
      let within w f =
        Telemetry.set_enabled true;
        Telemetry.reset ();
        let c = f () in
        let hw = Telemetry.value high_water in
        Telemetry.set_enabled false;
        Alcotest.(check bool)
          (Printf.sprintf "%s: pool high-water %d B within budget" (what w) hw)
          true (hw <= budget);
        Alcotest.(check int) (what w) expected c
      in
      let solve w spec =
        within w (fun () ->
            let o = cli spec in
            (match o with
             | Request.Solved s ->
               Alcotest.(check int) (what w ^ ": runtime demotions") demotions
                 s.Request.runtime_demotions
             | _ -> ());
            Request.code_of_status (Request.status o))
      in
      solve "mg_solve --guard" { spec with guard = true };
      solve "mg_solve" spec;
      if not poison then
        within "Serve.solve" (fun () ->
            (Serve.solve sv
               { Serve.default_request with
                 Serve.rq_n = 64; rq_variant = variant; rq_cycles = 4;
                 rq_mem_budget = Some budget })
              .Serve.rs_code))
    [ ("dtile-opt+", 100 * 1024, false, 0, 0);
      ("dtile-opt+", 90 * 1024, false, 0, 0);
      ("opt+", opt_plus, true, 0, 1);
      ("dtile-opt+", dtile_floor, true, 5, 0) ];
  Serve.shutdown sv

(* The model admits a rung only where the interpreter's pool holds it:
   at a budget of exactly the requested rung's modelled footprint, every
   preset on the 2-D (n=64) and 3-D (n=32) V and W cycles plans that
   rung and runs it with no runtime demotion (the pool trims its free
   buffers to make room).  For a pooled rung the model is exactly the
   pool's live peak in an unbudgeted solve (the presets' request
   lengths are at least twice apart, so each request holds a buffer of
   its own length), so it does not overcount either. *)
let test_model_admits_what_runs () =
  List.iter
    (fun (dims, n, shape, variant) ->
      let top = (ladder ~dims ~n shape variant).(0) in
      let what =
        Printf.sprintf "%d-D %s %s at %d B" dims
          (match shape with Cycle.V -> "V" | Cycle.W -> "W" | Cycle.F -> "F")
          variant top.Repro_core.Govern.peak_bytes
      in
      match
        cli
          { Request.default_spec with
            dims; n = Some n; shape; variant; cycles = 3;
            mem_budget = Some top.Repro_core.Govern.peak_bytes }
      with
      | Request.Solved s ->
        Alcotest.(check (option string))
          (what ^ ": planned rung") (Some top.Repro_core.Govern.rname)
          (Option.map (fun r -> r.Repro_core.Govern.rname) s.Request.rung);
        Alcotest.(check int)
          (what ^ ": runtime demotions") 0 s.Request.runtime_demotions;
        let plan = top.Repro_core.Govern.plan in
        if plan.Repro_core.Plan.opts.Repro_core.Options.pool then
          Alcotest.(check int)
            (what ^ ": the model is the pool's live peak")
            top.Repro_core.Govern.pool_peak_bytes
            (Repro_core.Exec.with_runtime (fun rt ->
                 ignore
                   (Solver.iterate (Solver.plan_stepper plan ~rt)
                      ~problem:(Problem.poisson ~dims ~n) ~cycles:3 ());
                 (Repro_runtime.Mempool.stats rt.Repro_core.Exec.pool)
                   .Repro_runtime.Mempool.peak_live_bytes))
      | o -> Alcotest.failf "%s: %s" what (Request.status_name (Request.status o)))
    (List.concat_map
       (fun (dims, n) ->
         List.concat_map
           (fun shape ->
             List.map
               (fun v -> (dims, n, shape, v))
               [ "naive"; "opt"; "opt+"; "dtile-opt+" ])
           [ Cycle.V; Cycle.W ])
       [ (2, 64); (3, 32) ])

(* A faulting budgeted request may fall back only to a plan that fits:
   the naive fallback (462 KiB modelled at n=64) is refused under a
   200 KiB budget, so the fault ends the solve instead of breaking the
   budget; under 1 MiB it fits and the primary is quarantined. *)
let test_fallback_within_budget () =
  let sv = server ~workers:1 ~allow_faults:true () in
  List.iter
    (fun (budget, expected) ->
      let r =
        Serve.solve sv
          { Serve.default_request with
            Serve.rq_n = 64; rq_cycles = 4; rq_fault = Some "nan";
            rq_mem_budget = Some budget }
      in
      check_status (Printf.sprintf "NaN fault under %d B" budget) expected
        r.Serve.rs_status)
    [ (200 * 1024, Serve.Faulted); (1024 * 1024, Serve.Quarantined) ];
  Serve.shutdown sv

(* Small random valid requests, budgets included: the request mg_solve
   --guard describes and the one Serve receives end with the same status,
   the same number of cycles and the same residual, bit for bit. *)
let request_gen =
  QCheck.Gen.(
    map
      (fun ((dims, shape, (n1, n2, n3)), (variant, tol, budget_kind)) ->
        let n1 = if n1 + n2 + n3 = 0 then 1 else n1 in
        { Serve.default_request with
          Serve.rq_dims = dims;
          rq_n = 32;
          rq_shape = shape;
          rq_smoothing = (n1, n2, n3);
          rq_variant = variant;
          rq_cycles = 3;
          rq_tol = tol;
          rq_mem_budget = budget_kind })
      (pair
         (triple (int_range 2 3) (oneofl [ Cycle.V; Cycle.W; Cycle.F ])
            (triple (int_range 0 3) (int_range 0 3) (int_range 0 3)))
         (triple
            (oneofl [ "naive"; "opt"; "opt+"; "dtile-opt+" ])
            (oneofl [ None; Some 1e-3 ])
            (oneofl [ None; Some 0; Some 1; Some (64 * 1024 * 1024) ]))))

(* [rq_mem_budget = Some 0 | Some 1] stand for "just under the requested
   rung" and "just under the floor"; they are resolved against the
   modelled ladder before solving. *)
let resolve_budget (rq : Serve.request) =
  match rq.Serve.rq_mem_budget with
  | Some ((0 | 1) as which) ->
    let cfg =
      { (Cycle.default ~dims:rq.Serve.rq_dims ~shape:rq.Serve.rq_shape
           ~smoothing:rq.Serve.rq_smoothing) with
        Cycle.levels = 4 }
    in
    let n = rq.Serve.rq_n in
    let opts = Option.get (Repro_core.Options.variant_of_string rq.Serve.rq_variant) in
    let ladder =
      match
        Repro_core.Govern.decide (Cycle.build cfg) ~opts ~n
          ~params:(Cycle.params cfg ~n)
      with
      | Ok r -> r.Repro_core.Govern.ladder
      | Error i -> i.Repro_core.Govern.inf_ladder
    in
    let peak (r : Repro_core.Govern.rung) = r.Repro_core.Govern.peak_bytes in
    let b =
      if which = 0 then peak ladder.(0) - 1
      else Array.fold_left (fun m r -> min m (peak r)) max_int ladder - 1
    in
    { rq with Serve.rq_mem_budget = Some b }
  | _ -> rq

let request_arb =
  QCheck.make request_gen ~print:(fun rq ->
      Repro_runtime.Json.to_string (Serve.request_to_json rq))

let prop_cli_serve_agree =
  let sv = lazy (server ~workers:1 ()) in
  QCheck.Test.make ~name:"mg_solve --guard and Serve agree" ~count:12
    request_arb (fun rq ->
      let rq = resolve_budget rq in
      let outcome =
        cli
          { Request.default_spec with
            dims = rq.Serve.rq_dims;
            n = Some rq.Serve.rq_n;
            shape = rq.Serve.rq_shape;
            smoothing = rq.Serve.rq_smoothing;
            variant = rq.Serve.rq_variant;
            cycles = rq.Serve.rq_cycles;
            tol = rq.Serve.rq_tol;
            guard = true;
            mem_budget = rq.Serve.rq_mem_budget }
      in
      let rs = Serve.solve (Lazy.force sv) rq in
      let cycles, residual =
        match outcome with
        | Request.Solved s -> (List.length s.Request.stats, s.Request.residual)
        | _ -> (0, Float.nan)
      in
      let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      rs.Serve.rs_status = Request.status outcome
      && rs.Serve.rs_cycles = cycles
      && same_bits rs.Serve.rs_residual residual)

(* Every small spec the validator accepts runs to an outcome: no
   Invalid_argument escapes Request.run.  The cycle budget, tolerance,
   deadline and checkpoint cadence are drawn from boundary values. *)
let spec_gen =
  QCheck.Gen.(
    map
      (fun ( ((dims, levels, n), variant, cycles, guard),
             (max_cycles, tol, deadline, (checkpoint_every, checkpoint)) ) ->
        { Request.default_spec with
          dims; levels; n = Some n; variant; cycles; max_cycles; tol; guard;
          deadline; checkpoint_every;
          checkpoint_dir = (if checkpoint then Some (temp_dir "prop") else None) })
      (pair
         (quad
            (oneofl [ (2, 3, 16); (2, 4, 32); (3, 3, 16) ])
            (oneofl [ "naive"; "opt"; "opt+"; "dtile-opt+"; "handopt" ])
            (int_range 1 3) bool)
         (quad
            (oneofl [ None; Some 0; Some 1; Some (-3); Some 3 ])
            (oneofl [ None; Some 0.0; Some 1.0; Some (-1.0); Some Float.nan ])
            (oneofl [ None; Some 0.0; Some 1.0; Some (-1.0); Some Float.nan ])
            (pair (oneofl [ 0; 1; -2; 2 ]) bool))))

let print_spec (s : Request.spec) =
  let opt f = function None -> "-" | Some x -> f x in
  Printf.sprintf
    "dims %d levels %d n %s %s cycles %d guard %b max_cycles %s tol %s \
     deadline %s checkpoint %s every %d"
    s.dims s.levels (opt string_of_int s.n) s.variant s.cycles s.guard
    (opt string_of_int s.max_cycles)
    (opt string_of_float s.tol)
    (opt string_of_float s.deadline)
    (opt Fun.id s.checkpoint_dir)
    s.checkpoint_every

let prop_validated_specs_run =
  QCheck.Test.make ~name:"validated specs run without Invalid_argument"
    ~count:60 (QCheck.make spec_gen ~print:print_spec) (fun spec ->
      Fun.protect
        ~finally:(fun () -> Option.iter rm_dir spec.Request.checkpoint_dir)
        (fun () ->
          match Request.validate spec with
          | Error _ -> true
          | Ok rq -> (
            (* the command line's hand-optimized baseline stepper *)
            let baseline rt =
              Handopt.stepper
                (Handopt.create (Request.cfg rq) ~n:(Request.n rq)
                   ~par:rt.Repro_core.Exec.par ~smoothing:Handopt.Plain ())
            in
            match Request.run ~baseline rq with
            | _ -> true
            | exception Invalid_argument msg ->
              QCheck.Test.fail_reportf "Invalid_argument %S" msg)))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [ ( "mapping",
        [ Alcotest.test_case "status exit codes" `Quick test_status_codes;
          Alcotest.test_case "status names round-trip" `Quick
            test_status_names_roundtrip ] );
      ( "codec",
        [ Alcotest.test_case "request round-trip" `Quick
            test_request_codec_roundtrip;
          Alcotest.test_case "request defaults" `Quick test_request_defaults;
          Alcotest.test_case "response round-trip" `Quick
            test_response_codec_roundtrip;
          Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "oversized frame refused" `Quick
            test_frame_oversized_refused;
          Alcotest.test_case "truncated frame reported" `Quick
            test_frame_truncated ] );
      ( "admission",
        [ Alcotest.test_case "tenant queue cap sheds" `Quick
            test_tenant_queue_cap;
          Alcotest.test_case "token bucket math" `Quick test_token_bucket_math;
          Alcotest.test_case "eviction picks heaviest tenant's newest" `Quick
            test_eviction_heaviest_newest ] );
      ( "fairness",
        [ Alcotest.test_case "round-robin across tenants" `Quick
            test_round_robin_order ] );
      ( "deadlines",
        [ Alcotest.test_case "expired while queued" `Quick
            test_deadline_expired_in_queue ] );
      ( "plan-cache",
        [ Alcotest.test_case "hit, miss, and budget split" `Quick
            test_plan_cache_hits ] );
      ( "solve",
        [ Alcotest.test_case "status per request class" `Quick
            test_solve_statuses;
          Alcotest.test_case "chaos hook gated by config" `Quick
            test_faults_refused_by_default;
          Alcotest.test_case "resume records plan drift" `Quick
            test_resume_drift;
          Alcotest.test_case "resume already covered" `Quick
            test_resume_covered;
          Alcotest.test_case "budgets agree with mg_solve" `Quick
            test_budget_agreement;
          Alcotest.test_case "the model admits only what runs" `Quick
            test_model_admits_what_runs;
          Alcotest.test_case "fallback only within the budget" `Quick
            test_fallback_within_budget ] );
      ( "properties",
        [ Qc_replay.to_alcotest prop_admission_invariants;
          Qc_replay.to_alcotest prop_cli_serve_agree;
          Qc_replay.to_alcotest prop_validated_specs_run ] ) ]
