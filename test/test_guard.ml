(* Guarded execution: injected NaNs, divergence, and crashes must be
   detected within one cycle, rolled back, and recovered through the
   naive-plan fallback; inherent faults and stagnation must stop the
   solve with the last good iterate intact. *)

open Repro_mg
open Repro_core
module Grid = Repro_grid.Grid
module Buf = Repro_grid.Buf
module Telemetry = Repro_runtime.Telemetry

let cfg2 = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4)
let cfg3 = Cycle.default ~dims:3 ~shape:Cycle.V ~smoothing:(4, 4, 4)

(* -- fault-injecting stepper wrappers ----------------------------------- *)

(* Every [k]-th attempt's output gets [x] at the flat index [at out]. *)
let plant_every k ~at x stepper =
  let attempts = ref 0 in
  fun ~v ~f ~out ->
    stepper ~v ~f ~out;
    incr attempts;
    if !attempts mod k = 0 then Buf.set out.Grid.buf (at out) x

let nan_every k =
  plant_every k ~at:(fun out -> Buf.len out.Grid.buf / 2) Float.nan

let diverge_every k stepper =
  let attempts = ref 0 in
  fun ~v ~f ~out ->
    stepper ~v ~f ~out;
    incr attempts;
    if !attempts mod k = 0 then Buf.map_inplace (fun x -> x *. 1e8) out.Grid.buf

let crash_every k stepper =
  let attempts = ref 0 in
  fun ~v ~f ~out ->
    incr attempts;
    if !attempts mod k = 0 then failwith "injected crash";
    stepper ~v ~f ~out

let identity_stepper ~v ~f:_ ~out = Grid.blit ~src:v ~dst:out

let is_nan_fault = function Guard.Fault_nan -> true | _ -> false
let is_div_fault = function Guard.Fault_diverged -> true | _ -> false
let is_crash_fault = function Guard.Fault_crash _ -> true | _ -> false

let counter name = Telemetry.value (Telemetry.counter name)

(* Runs a guarded solve with the primary wrapped by [wrap], a naive-plan
   fallback, and telemetry on; returns (result, counters snapshot). *)
let guarded_solve ?(dims = 2) ?(wrap = fun s -> s) ?(fallback = true)
    ?(policy =
        { Guard.default_policy with
          Guard.tol = Some 1e-8;
          Guard.max_cycles = 60 }) () =
  let cfg = if dims = 2 then cfg2 else cfg3 in
  let n = if dims = 2 then 64 else 32 in
  let problem = Problem.poisson ~dims ~n in
  Exec.with_runtime @@ fun rt ->
  (* check_plan on: every plan the guard suite executes is validated *)
  let opts = { Options.opt_plus with Options.check_plan = true } in
  let primary = wrap (Solver.polymg_stepper cfg ~n ~opts ~rt) in
  let fb =
    if fallback then
      Some (fun () -> Solver.polymg_stepper cfg ~n ~opts:Options.naive ~rt)
    else None
  in
  Telemetry.reset ();
  Telemetry.set_enabled true;
  let r = Guard.run ~policy ~primary ?fallback:fb ~problem () in
  Telemetry.set_enabled false;
  r

let check_converged ?(tol = 1e-8) name (r : Guard.result) =
  (match r.Guard.outcome with
  | Guard.Converged -> ()
  | o -> Alcotest.failf "%s: outcome %s, not converged" name (Guard.outcome_name o));
  Alcotest.(check bool) (name ^ ": residual at tol") true (r.Guard.residual <= tol);
  Alcotest.(check bool)
    (name ^ ": final iterate finite") true
    (Buf.find_nonfinite r.Guard.v.Grid.buf = None)

let test_clean_early_stop () =
  let r = guarded_solve () in
  check_converged "clean" r;
  Alcotest.(check int) "no faults" 0 (List.length r.Guard.events);
  Alcotest.(check int) "no fallback cycles" 0 r.Guard.fallback_cycles;
  Alcotest.(check bool) "early stop counted" true (counter "guard.early_stops" >= 1);
  Alcotest.(check bool)
    "stopped before the cycle budget" true
    (List.length r.Guard.stats < 60)

let test_nan_detected_and_recovered () =
  let r = guarded_solve ~wrap:(nan_every 3) () in
  check_converged "nan" r;
  Alcotest.(check bool) "nan faults recorded" true
    (List.exists (fun e -> is_nan_fault e.Guard.fault) r.Guard.events);
  (* detection within one cycle: every faulted attempt appears in stats
     with status Nan, and the very next accepted entry for that cycle is
     clean — i.e. no accepted cycle ever carries a non-finite residual *)
  List.iter
    (fun (s : Solver.cycle_stats) ->
      if s.Solver.status <> Solver.Nan then
        Alcotest.(check bool) "accepted residual finite" true
          (Float.is_finite s.Solver.residual))
    r.Guard.stats;
  Alcotest.(check bool) "fallback used" true (r.Guard.fallback_cycles >= 1);
  Alcotest.(check bool) "telemetry: nan detected" true (counter "guard.nan_detected" >= 1);
  Alcotest.(check bool) "telemetry: rollbacks" true (counter "guard.rollbacks" >= 1);
  Alcotest.(check bool) "telemetry: switches" true
    (counter "guard.fallback_switches" >= 1)

let test_divergence_detected () =
  let r = guarded_solve ~wrap:(diverge_every 2) () in
  check_converged "divergence" r;
  Alcotest.(check bool) "divergence faults recorded" true
    (List.exists (fun e -> is_div_fault e.Guard.fault) r.Guard.events);
  Alcotest.(check bool) "telemetry: divergence detected" true
    (counter "guard.divergence_detected" >= 1)

let test_crash_recovered () =
  let r = guarded_solve ~wrap:(crash_every 3) () in
  check_converged "crash" r;
  Alcotest.(check bool) "crash faults recorded" true
    (List.exists (fun e -> is_crash_fault e.Guard.fault) r.Guard.events);
  Alcotest.(check bool) "telemetry: crash detected" true
    (counter "guard.crash_detected" >= 1)

let test_quarantine_after_repeated_faults () =
  let r = guarded_solve ~wrap:(nan_every 2) () in
  check_converged "quarantine" r;
  Alcotest.(check bool) "primary quarantined" true
    (List.exists
       (fun e -> e.Guard.action = Guard.Quarantined_primary)
       r.Guard.events);
  Alcotest.(check bool) "rest of solve on fallback" true
    (r.Guard.fallback_cycles > 2)

let test_no_fallback_gives_up () =
  let r = guarded_solve ~wrap:(nan_every 1) ~fallback:false () in
  (match r.Guard.outcome with
  | Guard.Faulted f -> Alcotest.(check bool) "nan fault" true (is_nan_fault f)
  | o -> Alcotest.failf "outcome %s, expected faulted" (Guard.outcome_name o));
  Alcotest.(check bool) "iterate rolled back to finite state" true
    (Buf.find_nonfinite r.Guard.v.Grid.buf = None);
  List.iter
    (fun e -> Alcotest.(check bool) "gave up" true (e.Guard.action = Guard.Gave_up))
    r.Guard.events

let test_fault_on_fallback_gives_up () =
  let problem = Problem.poisson ~dims:2 ~n:64 in
  Exec.with_runtime @@ fun rt ->
  let primary = nan_every 1 (Solver.polymg_stepper cfg2 ~n:64 ~opts:Options.opt_plus ~rt) in
  let fb () = nan_every 1 (Solver.polymg_stepper cfg2 ~n:64 ~opts:Options.naive ~rt) in
  let r = Guard.run ~primary ~fallback:fb ~problem () in
  (match r.Guard.outcome with
  | Guard.Faulted _ -> ()
  | o -> Alcotest.failf "outcome %s, expected faulted" (Guard.outcome_name o));
  Alcotest.(check int) "two events: retry then give up" 2
    (List.length r.Guard.events);
  (match r.Guard.events with
  | [ first; second ] ->
    Alcotest.(check bool) "first retried" true
      (first.Guard.action <> Guard.Gave_up);
    Alcotest.(check bool) "second gave up" true
      (second.Guard.action = Guard.Gave_up)
  | _ -> assert false)

let test_stagnation_stops () =
  let problem = Problem.poisson ~dims:2 ~n:64 in
  let r = Guard.run ~primary:identity_stepper ~problem () in
  (match r.Guard.outcome with
  | Guard.Stagnated -> ()
  | o -> Alcotest.failf "outcome %s, expected stagnated" (Guard.outcome_name o));
  (* the guard's stagnation window is 3 cycles *)
  Alcotest.(check int) "stopped after the stagnation window" 3
    (List.length r.Guard.stats)

(* The ISSUE regression: Poisson in 2D and 3D with a fault injected every
   k-th cycle must still reach tolerance on the fallback path. *)
let test_poisson_2d_faults_every_k () =
  let r = guarded_solve ~dims:2 ~wrap:(nan_every 4) () in
  check_converged "2d every-4th" r;
  Alcotest.(check bool) "faults seen" true (r.Guard.events <> [])

let test_poisson_3d_faults_every_k () =
  let r =
    guarded_solve ~dims:3 ~wrap:(nan_every 4)
      ~policy:{ Guard.default_policy with Guard.tol = Some 1e-6 } ()
  in
  (match r.Guard.outcome with
  | Guard.Converged -> ()
  | o -> Alcotest.failf "3d: outcome %s" (Guard.outcome_name o));
  Alcotest.(check bool) "3d residual at tol" true (r.Guard.residual <= 1e-6);
  Alcotest.(check bool) "3d faults seen" true (r.Guard.events <> [])

(* Stage-level injection through the Exec hook: corrupt an intermediate
   buffer *between* stages, inside the optimized plan's execution. *)
let test_stage_level_injection () =
  let problem = Problem.poisson ~dims:2 ~n:64 in
  Exec.with_runtime @@ fun rt ->
  let primary = Solver.polymg_stepper cfg2 ~n:64 ~opts:Options.opt_plus ~rt in
  let cycles = ref 0 in
  let wrapped ~v ~f ~out =
    incr cycles;
    if !cycles mod 3 = 0 then
      Exec.set_fault_injector
        (Some
           (fun ~gid ~stage:_ (dst : Compile.source) ->
             if gid = 1 then
               let d = dst.Compile.data in
               Bigarray.Array1.set d (Bigarray.Array1.dim d / 2) Float.nan))
    else Exec.set_fault_injector None;
    Fun.protect
      ~finally:(fun () -> Exec.set_fault_injector None)
      (fun () -> primary ~v ~f ~out)
  in
  let fb () = Solver.polymg_stepper cfg2 ~n:64 ~opts:Options.naive ~rt in
  let r =
    Guard.run
      ~policy:
        { Guard.default_policy with
          Guard.tol = Some 1e-8;
          Guard.max_cycles = 60 }
      ~primary:wrapped ~fallback:fb ~problem ()
  in
  (match r.Guard.outcome with
  | Guard.Converged -> ()
  | o -> Alcotest.failf "stage injection: outcome %s" (Guard.outcome_name o));
  Alcotest.(check bool) "stage-level faults detected" true
    (List.exists (fun e -> is_nan_fault e.Guard.fault) r.Guard.events)

(* -- the residual as finiteness witness ------------------------------- *)

(* The guard proves an accepted iterate finite from its residual plus a
   scan of the rim no stencil reads (the 2-D corners, the 3-D edges).
   A value planted only there, or an iterate that is finite but whose
   squared residual overflows, must still fault as NaN, roll back and
   recover. *)
let check_nan_recovered ?tol name (r : Guard.result) =
  check_converged ?tol name r;
  Alcotest.(check bool) (name ^ ": nan fault recorded") true
    (List.exists (fun e -> is_nan_fault e.Guard.fault) r.Guard.events);
  Alcotest.(check bool) (name ^ ": rolled back") true
    (counter "guard.rollbacks" >= 1)

let test_nan_in_2d_ghost_corner () =
  (* flat index 0 is the corner (0, 0) *)
  let r = guarded_solve ~wrap:(plant_every 3 ~at:(fun _ -> 0) Float.nan) () in
  check_nan_recovered "2-D corner" r

let test_inf_on_3d_ghost_edge () =
  (* (0, 0, k) for an interior k: on an edge, not a corner *)
  let mid out = (Grid.extents out).(2) / 2 in
  let r =
    guarded_solve ~dims:3
      ~wrap:(plant_every 3 ~at:mid Float.infinity)
      ~policy:{ Guard.default_policy with Guard.tol = Some 1e-6 } ()
  in
  check_nan_recovered ~tol:1e-6 "3-D edge" r

let test_residual_overflow_is_nan () =
  (* 1e200 at an interior point: 4·1e200·n² squared overflows *)
  let r =
    guarded_solve
      ~wrap:(plant_every 3 ~at:(fun out -> Buf.len out.Grid.buf / 2) 1e200)
      ()
  in
  check_nan_recovered "overflow" r;
  Alcotest.(check bool) "overflow: recorded residual is +inf" true
    (List.exists
       (fun (s : Solver.cycle_stats) ->
         s.Solver.status = Solver.Nan && s.Solver.residual = Float.infinity)
       r.Guard.stats)

(* -- primary-retry policy: bounded same-plan retries with backoff ------- *)

(* Transient faults (every other attempt) are absorbed by a single
   primary retry: the solve never touches the fallback, and the retry
   budget demonstrably resets across accepted cycles. *)
let test_primary_retry_recovers () =
  let r =
    guarded_solve ~wrap:(nan_every 2)
      ~policy:
        { Guard.default_policy with
          Guard.tol = Some 1e-8;
          Guard.max_cycles = 60;
          Guard.primary_retries = 1 }
      ()
  in
  check_converged "primary retry" r;
  Alcotest.(check bool) "several faults seen" true
    (List.length r.Guard.events >= 2);
  List.iter
    (fun e ->
      Alcotest.(check string) "every fault retried on primary"
        (Guard.action_name Guard.Primary_retry)
        (Guard.action_name e.Guard.action))
    r.Guard.events;
  Alcotest.(check int) "no fallback cycles" 0 r.Guard.fallback_cycles;
  Alcotest.(check int) "fallback never switched in" 0
    (counter "guard.fallback_switches");
  Alcotest.(check int) "retries counted"
    (List.length r.Guard.events)
    (counter "govern.primary_retries")

(* A persistently faulting primary exhausts its retry budget, falls back,
   and is quarantined at its second non-retried fault — in exactly
   that order. *)
let test_retry_exhaustion_then_quarantine () =
  let r =
    guarded_solve ~wrap:(nan_every 1)
      ~policy:
        { Guard.default_policy with
          Guard.tol = Some 1e-8;
          Guard.max_cycles = 60;
          Guard.primary_retries = 2 }
      ()
  in
  check_converged "retry exhaustion" r;
  (match r.Guard.events with
  | e1 :: e2 :: e3 :: _ ->
    Alcotest.(check bool) "two primary retries first" true
      (e1.Guard.action = Guard.Primary_retry
      && e2.Guard.action = Guard.Primary_retry);
    Alcotest.(check bool) "then a fallback retry" true
      (e3.Guard.action = Guard.Fallback_retry)
  | _ -> Alcotest.fail "expected at least three fault events");
  Alcotest.(check bool) "eventually quarantined" true
    (List.exists
       (fun e -> e.Guard.action = Guard.Quarantined_primary)
       r.Guard.events);
  Alcotest.(check bool) "retry counter moved" true
    (counter "govern.primary_retries" >= 4)

(* retry_backoff = 0.05 with two retries in one cycle must sleep at
   least 0.05 + 0.10 seconds before giving up. *)
let test_retry_backoff_waits () =
  let problem = Problem.poisson ~dims:2 ~n:16 in
  let primary = nan_every 1 identity_stepper in
  let t0 = Telemetry.now_ns () in
  let r =
    Guard.run
      ~policy:
        { Guard.default_policy with
          Guard.primary_retries = 2;
          Guard.retry_backoff = 0.05 }
      ~primary ~problem ()
  in
  let elapsed_s = float_of_int (Telemetry.now_ns () - t0) /. 1e9 in
  (match r.Guard.outcome with
  | Guard.Faulted f -> Alcotest.(check bool) "nan fault" true (is_nan_fault f)
  | o -> Alcotest.failf "outcome %s, expected faulted" (Guard.outcome_name o));
  Alcotest.(check (list string)) "retry, retry, give up"
    [ Guard.action_name Guard.Primary_retry;
      Guard.action_name Guard.Primary_retry;
      Guard.action_name Guard.Gave_up ]
    (List.map (fun e -> Guard.action_name e.Guard.action) r.Guard.events);
  Alcotest.(check bool)
    (Printf.sprintf "backoff slept (elapsed %.3fs >= 0.14s)" elapsed_s)
    true (elapsed_s >= 0.14)

(* The guarded request path: poisoned pool + plan check + fallback. *)
let test_guard_solve_entry () =
  let r =
    match
      Request.validate
        { Request.default_spec with
          n = Some 64;
          poison = true;
          check_plan = true;
          tol = Some 1e-8;
          max_cycles = Some 60 }
    with
    | Error e -> Alcotest.fail e
    | Ok rq -> (
      match Request.run rq with
      | Request.Solved { Request.guarded = Some r; _ } -> r
      | o -> Alcotest.failf "status %s" (Request.status_name (Request.status o)))
  in
  (match r.Guard.outcome with
  | Guard.Converged -> ()
  | o -> Alcotest.failf "solve: outcome %s" (Guard.outcome_name o));
  Alcotest.(check bool) "solve residual at tol" true (r.Guard.residual <= 1e-8)

(* The guard's own per-cycle work (non-finite scan, residual,
   classification, checkpoint copy, bookkeeping) must not allocate per
   grid point.  The interpreter stepper's allocations are metered
   around each call and subtracted, leaving the guard's; at n=64 a
   single word per interior point would already be 4096 words. *)
let test_guard_cycle_allocation () =
  let n = 64 in
  let problem = Problem.poisson ~dims:2 ~n in
  Exec.with_runtime @@ fun rt ->
  let stepper = Solver.polymg_stepper cfg2 ~n ~opts:Options.opt_plus ~rt in
  let in_stepper = ref 0.0 in
  let primary ~v ~f ~out =
    let w0 = Gc.minor_words () in
    stepper ~v ~f ~out;
    in_stepper := !in_stepper +. (Gc.minor_words () -. w0)
  in
  let policy =
    { Guard.default_policy with Guard.tol = Some 1e-8; Guard.max_cycles = 60 }
  in
  let w0 = Gc.minor_words () in
  let r = Guard.run ~policy ~primary ~problem () in
  let guard_words = Gc.minor_words () -. w0 -. !in_stepper in
  (match r.Guard.outcome with
  | Guard.Converged -> ()
  | o -> Alcotest.failf "outcome %s, not converged" (Guard.outcome_name o));
  let cycles = List.length r.Guard.stats in
  let per_cycle = guard_words /. float_of_int cycles in
  Alcotest.(check bool)
    (Printf.sprintf "guard: %.0f minor words per accepted cycle (%d cycles) < 500"
       per_cycle cycles)
    true (per_cycle < 500.0)

let () =
  Alcotest.run "guard"
    [ ( "detection",
        [ Alcotest.test_case "nan detected, rolled back, recovered" `Quick
            test_nan_detected_and_recovered;
          Alcotest.test_case "divergence detected" `Quick
            test_divergence_detected;
          Alcotest.test_case "crash recovered" `Quick test_crash_recovered;
          Alcotest.test_case "stage-level injection" `Quick
            test_stage_level_injection;
          Alcotest.test_case "nan only in a 2-D ghost corner" `Quick
            test_nan_in_2d_ghost_corner;
          Alcotest.test_case "inf only on a 3-D ghost edge" `Quick
            test_inf_on_3d_ghost_edge;
          Alcotest.test_case "finite iterate, overflowing residual" `Quick
            test_residual_overflow_is_nan ] );
      ( "policy",
        [ Alcotest.test_case "clean run stops early at tol" `Quick
            test_clean_early_stop;
          Alcotest.test_case "repeated faults quarantine primary" `Quick
            test_quarantine_after_repeated_faults;
          Alcotest.test_case "no fallback gives up cleanly" `Quick
            test_no_fallback_gives_up;
          Alcotest.test_case "fault on fallback gives up" `Quick
            test_fault_on_fallback_gives_up;
          Alcotest.test_case "stagnation stops the solve" `Quick
            test_stagnation_stops;
          Alcotest.test_case "no per-point allocation per cycle" `Quick
            test_guard_cycle_allocation ] );
      ( "retry",
        [ Alcotest.test_case "transient faults absorbed by primary retry"
            `Quick test_primary_retry_recovers;
          Alcotest.test_case "retry exhaustion falls back, then quarantines"
            `Quick test_retry_exhaustion_then_quarantine;
          Alcotest.test_case "exponential backoff sleeps between retries"
            `Quick test_retry_backoff_waits ] );
      ( "regression",
        [ Alcotest.test_case "2D Poisson, fault every 4th cycle" `Quick
            test_poisson_2d_faults_every_k;
          Alcotest.test_case "3D Poisson, fault every 4th cycle" `Quick
            test_poisson_3d_faults_every_k;
          Alcotest.test_case "Request.run with poison + plan check" `Quick
            test_guard_solve_entry ] ) ]
