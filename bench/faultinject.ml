(* Fault-injection campaign: the executable proof that guarded execution
   detects and recovers every fault class.  Each campaign runs a guarded
   2D Poisson solve with the optimized (opt+) plan as primary and the
   naive plan as fallback, injecting one class of fault into the primary:

     nan-out      a NaN written into the iterate after a cycle
     bitflip      one flipped exponent bit in an iterate value
     crash        an exception raised mid-cycle, before any output
     stage-nan    a NaN written into an intermediate buffer *between*
                  stages of the optimized plan (Exec fault-injector hook)
     stage-kill   an exception raised between stages, mid-plan

   A campaign passes when the guard (a) detects the expected fault class,
   (b) rolls back, and (c) still converges to tolerance through the
   fallback.

   With --incident-dir DIR the flight recorder runs during every
   campaign and each campaign additionally asserts its incident trail
   under DIR/<campaign>/ (Campaign.expect_incident): every report is
   valid and names its triggering cycle and fault, and at least one is
   of the expected kind.  Exits nonzero if any campaign fails.

   Run directly or via `dune runtest` (wired in test/dune). *)

open Repro_mg
open Repro_core
module Grid = Repro_grid.Grid
module Buf = Repro_grid.Buf
module Telemetry = Repro_runtime.Telemetry
module Flightrec = Repro_runtime.Flightrec

let tol = 1e-8

(* -- injection wrappers -------------------------------------------------- *)

let every k inject stepper =
  let attempts = ref 0 in
  fun ~v ~f ~out ->
    incr attempts;
    Fun.protect
      ~finally:(fun () -> Exec.set_fault_injector None)
      (fun () -> inject ~fire:(!attempts mod k = 0) stepper ~v ~f ~out)

let nan_out ~fire stepper ~v ~f ~out =
  stepper ~v ~f ~out;
  if fire then Buf.set out.Grid.buf (Buf.len out.Grid.buf / 2) Float.nan

let bitflip ~fire stepper ~v ~f ~out =
  stepper ~v ~f ~out;
  if fire then begin
    (* flip the top exponent bit of the first non-negligible value: a
       single-event upset that turns it into a huge number, Inf or NaN *)
    let buf = out.Grid.buf in
    let rec find i =
      if i >= Buf.len buf then None
      else if Float.abs (Buf.get buf i) > 1e-12 then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> Buf.set buf 0 Float.nan
    | Some i ->
      let flipped =
        Int64.float_of_bits
          (Int64.logxor
             (Int64.bits_of_float (Buf.get buf i))
             (Int64.shift_left 1L 62))
      in
      Buf.set buf i flipped
  end

let crash ~fire stepper ~v ~f ~out =
  if fire then failwith "faultinject: killed mid-cycle";
  stepper ~v ~f ~out

let stage_nan ~fire stepper ~v ~f ~out =
  if fire then
    Exec.set_fault_injector
      (Some
         (fun ~gid ~stage:_ (dst : Compile.source) ->
           if gid = 1 then
             let d = dst.Compile.data in
             Bigarray.Array1.set d (Bigarray.Array1.dim d / 2) Float.nan));
  stepper ~v ~f ~out

let stage_kill ~fire stepper ~v ~f ~out =
  if fire then
    Exec.set_fault_injector
      (Some
         (fun ~gid ~stage ->
           if gid = 2 then
             failwith ("faultinject: killed mid-plan at stage " ^ stage)
           else fun _ -> ()));
  stepper ~v ~f ~out

let is_nan = function Guard.Fault_nan -> true | _ -> false
let is_numeric = function
  | Guard.Fault_nan | Guard.Fault_diverged -> true
  | Guard.Fault_crash _ -> false
let is_crash = function Guard.Fault_crash _ -> true | _ -> false

(* expected incident-report kinds per campaign: bitflips surface as NaN
   or divergence depending on where the flipped bit lands *)
let campaigns =
  [ ("nan-out", every 3 nan_out, is_nan, [ "nan" ]);
    ("bitflip", every 3 bitflip, is_numeric, [ "nan"; "divergence" ]);
    ("crash", every 3 crash, is_crash, [ "crash" ]);
    ("stage-nan", every 4 stage_nan, is_nan, [ "nan" ]);
    ("stage-kill", every 4 stage_kill, is_crash, [ "crash" ]) ]

let () =
  Campaign.parse ~usage:"usage: faultinject.exe [--incident-dir DIR]"
    [ Campaign.incident_dir_flag ];
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
  let n = 64 in
  let problem = Problem.poisson ~dims:2 ~n in
  Printf.printf
    "fault-injection campaign: %s N=%d primary=opt+ fallback=naive tol=%g\n"
    (Cycle.bench_name cfg) n tol;
  Exec.with_runtime (fun rt ->
      let fallback () = Solver.polymg_stepper cfg ~n ~opts:Options.naive ~rt in
      List.iter
        (fun (name, wrap, expected, kinds) ->
          Telemetry.reset ();
          Telemetry.set_enabled true;
          (* armed before the stepper below notes the plan digest the
             incident reports must carry *)
          let incident_dir = Campaign.arm_incidents name in
          let primary =
            wrap
              (Solver.polymg_stepper cfg ~n
                 ~opts:{ Options.opt_plus with Options.check_plan = true }
                 ~rt)
          in
          let r =
            Guard.run
              ~policy:
                { Guard.default_policy with
                  Guard.tol = Some tol;
                  Guard.max_cycles = 60 }
              ~primary ~fallback ~problem ()
          in
          Flightrec.set_enabled false;
          Telemetry.set_enabled false;
          let detected =
            List.exists (fun e -> expected e.Guard.fault) r.Guard.events
          in
          let recovered =
            r.Guard.outcome = Guard.Converged
            && r.Guard.residual <= tol
            && Buf.find_nonfinite r.Guard.v.Grid.buf = None
          in
          let rollbacks =
            Telemetry.value (Telemetry.counter "guard.rollbacks")
          in
          let incident_problems =
            Campaign.expect_incident ~dir:incident_dir ~kinds ~mid_solve:true ()
          in
          Campaign.check ~name
            ~pass:(detected && recovered && incident_problems = [])
            ~detail:[];
          Printf.printf
            "      detected=%b recovered=%b outcome=%s faults=%d rollbacks=%d \
             fallback-cycles=%d residual=%.3e\n"
            detected recovered
            (Guard.outcome_name r.Guard.outcome)
            (List.length r.Guard.events)
            rollbacks r.Guard.fallback_cycles r.Guard.residual;
          List.iter
            (fun m -> Printf.printf "      incident-trail: %s\n" m)
            incident_problems)
        campaigns);
  Campaign.finish "fault-injection campaign"
