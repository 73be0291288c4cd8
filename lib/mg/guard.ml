module Grid = Repro_grid.Grid
module Buf = Repro_grid.Buf
module Telemetry = Repro_runtime.Telemetry
module Flightrec = Repro_runtime.Flightrec
module Watchdog = Repro_runtime.Watchdog
module Mempool = Repro_runtime.Mempool
module Json = Repro_runtime.Json
open Repro_core

type policy = {
  tol : float option;
  max_cycles : int;
  primary_retries : int;
  retry_backoff : float;
}

let default_policy =
  { tol = None;
    max_cycles = 50;
    primary_retries = 0;
    retry_backoff = 0.0 }

(* Fault a residual above this factor times the best so far. *)
let divergence_factor = 1e3

(* A cycle improving the residual by less than this fraction is stagnant;
   this many stagnant cycles in a row stop the solve. *)
let stagnation_eps = 1e-3
let stagnation_window = 3

(* Faults the primary stepper may cost before it is quarantined. *)
let max_primary_faults = 2

type fault = Fault_nan | Fault_diverged | Fault_crash of string

let fault_name = function
  | Fault_nan -> "nan"
  | Fault_diverged -> "divergence"
  | Fault_crash _ -> "crash"

type action =
  | Primary_retry
  | Fallback_retry
  | Quarantined_primary
  | Gave_up

let action_name = function
  | Primary_retry -> "retried on primary plan after backoff"
  | Fallback_retry -> "retried on fallback plan"
  | Quarantined_primary -> "primary plan quarantined, staying on fallback"
  | Gave_up -> "gave up"

type event = { cycle : int; fault : fault; action : action }

type outcome =
  | Converged
  | Exhausted
  | Stagnated
  | Faulted of fault

let outcome_name = function
  | Converged -> "converged"
  | Exhausted -> "max-cycles"
  | Stagnated -> "stagnated"
  | Faulted f -> "faulted:" ^ fault_name f

type result = {
  stats : Solver.cycle_stats list;
  v : Grid.t;
  residual : float;
  outcome : outcome;
  events : event list;
  fallback_cycles : int;
  total_seconds : float;
}

let c_cycles = Telemetry.counter "guard.cycles"
let c_nan = Telemetry.counter "guard.nan_detected"
let c_div = Telemetry.counter "guard.divergence_detected"
let c_crash = Telemetry.counter "guard.crash_detected"
let c_rollbacks = Telemetry.counter "guard.rollbacks"
let c_switch = Telemetry.counter "guard.fallback_switches"
let c_fb_cycles = Telemetry.counter "guard.fallback_cycles"
let c_early = Telemetry.counter "guard.early_stops"
let c_stag_stop = Telemetry.counter "guard.stagnation_stops"
let c_retries = Telemetry.counter "govern.primary_retries"
let c_disk_restore = Telemetry.counter "guard.checkpoint_disk_restores"

type checkpoint_sink = {
  ck_accept :
    cycle:int -> residual:float -> v:Grid.t ->
    stats:Solver.cycle_stats list -> unit;
  ck_restore : unit -> (int * float * Grid.t) option;
}

let s_cycle = Telemetry.site "guard.cycle"

let count_fault = function
  | Fault_nan -> Telemetry.add c_nan 1
  | Fault_diverged -> Telemetry.add c_div 1
  | Fault_crash _ -> Telemetry.add c_crash 1

let run ?(policy = default_policy) ?checkpoint ?(start_cycle = 1) ~primary
    ?fallback ~(problem : Problem.t) () =
  if policy.max_cycles < 1 then
    invalid_arg "Guard.run: max_cycles must be >= 1";
  if start_cycle < 1 then invalid_arg "Guard.run: start_cycle must be >= 1";
  if policy.primary_retries < 0 then
    invalid_arg "Guard.run: primary_retries must be >= 0";
  if policy.retry_backoff < 0.0 then
    invalid_arg "Guard.run: retry_backoff must be >= 0";
  (* [cur] is the last accepted iterate and the rollback state: it only
     moves on an accepted cycle, and a stepper reads its [v] and writes
     only [out] (the {!Solver.stepper} contract). *)
  let cur = ref (Grid.copy problem.Problem.v) in
  let next = ref (Grid.create (Grid.extents problem.Problem.v)) in
  let r0 =
    Verify.residual_l2 ~n:problem.Problem.n ~v:!cur ~f:problem.Problem.f
  in
  let best = ref r0 and prev = ref r0 and good_res = ref r0 in
  let stats = ref [] and events = ref [] in
  let total = ref 0.0 in
  let fb_stepper = ref None in
  let get_fallback () =
    match !fb_stepper with
    | Some s -> Some s
    | None -> (
      match fallback with
      | None -> None
      | Some mk ->
        let s = mk () in
        fb_stepper := Some s;
        Some s)
  in
  let quarantined = ref false in
  let retry_on_fallback = ref false in
  let primary_faults = ref 0 in
  let retries_this_cycle = ref 0 in
  let fallback_cycles = ref 0 in
  let stagnant = ref 0 in
  let cycle = ref start_cycle in
  let outcome = ref None in
  let converged r = match policy.tol with Some t -> r <= t | None -> false in
  if converged r0 then begin
    Telemetry.add c_early 1;
    outcome := Some Converged
  end;
  while !outcome = None do
    let on_fallback = !quarantined || !retry_on_fallback in
    let stepper =
      if on_fallback then Option.get (get_fallback ()) else primary
    in
    (* one monotonic read at each end of the cycle, shared by the
       reported seconds, the probe's range and the recorder's events *)
    let t0 = Telemetry.now_ns () in
    if Flightrec.on () then
      Flightrec.emit_at t0
        (Flightrec.Cycle_begin { cycle = !cycle; fallback = on_fallback });
    let crash =
      match stepper ~v:!cur ~f:problem.Problem.f ~out:!next with
      | () -> None
      | exception (Mempool.Budget_exceeded _ as e) ->
        (* not a fault of the plan: the caller demotes to a rung that
           fits instead of leaving the budget on the unpooled fallback *)
        raise e
      | exception e -> Some e
    in
    let t1 = Telemetry.now_ns () in
    if Telemetry.probing () then
      Telemetry.stop_at ~cat:"solver"
        ~args:
          [ ("cycle", Telemetry.Int !cycle);
            ("fallback", Telemetry.Int (Bool.to_int on_fallback)) ]
        t0 t1 s_cycle;
    let dt = float_of_int (t1 - t0) /. 1e9 in
    total := !total +. dt;
    Telemetry.add c_cycles 1;
    let record residual status =
      stats :=
        { Solver.cycle = !cycle; residual; seconds = dt; status } :: !stats
    in
    let fault =
      match crash with
      | Some e -> Some (Fault_crash (Printexc.to_string e))
      | None ->
        (* A finite residual and a finite rim prove the iterate finite
           (see [Verify.rim_finite]).  Otherwise the full scan tells a
           non-finite iterate from a finite one whose squared residual
           overflowed, which [classify] faults as NaN with r = +∞. *)
        let r =
          Verify.residual_l2 ~n:problem.Problem.n ~v:!next
            ~f:problem.Problem.f
        in
        if
          not (Float.is_finite r && Verify.rim_finite !next)
          && Buf.find_nonfinite !next.Grid.buf <> None
        then begin
          record Float.nan Solver.Nan;
          Some Fault_nan
        end
        else begin
          match
            Solver.classify ~divergence_factor ~stagnation_eps ~best:!best
              ~prev:!prev r
          with
          | Solver.Nan ->
            record r Solver.Nan;
            Some Fault_nan
          | Solver.Diverged ->
            record r Solver.Diverged;
            Some Fault_diverged
          | (Solver.Ok | Solver.Stagnated) as status ->
            (* accept the cycle: swap iterates and move the checkpoint *)
            record r status;
            let tmp = !cur in
            cur := !next;
            next := tmp;
            good_res := r;
            (match checkpoint with
             | Some ck ->
               (* durable checkpoint of the live accepted iterate: it
                  holds until the next accept swaps it into [next] *)
               ck.ck_accept ~cycle:!cycle ~residual:r ~v:!cur
                 ~stats:(List.rev !stats)
             | None -> ());
            if Flightrec.on () then begin
              Flightrec.emit_at t1
                (Flightrec.Cycle_end
                   { cycle = !cycle;
                     residual = r;
                     status = Solver.status_name status });
              Flightrec.emit
                (Flightrec.Checkpoint { cycle = !cycle; residual = r })
            end;
            if r < !best then best := r;
            prev := r;
            if status = Solver.Stagnated then incr stagnant
            else stagnant := 0;
            if on_fallback then begin
              incr fallback_cycles;
              Telemetry.add c_fb_cycles 1
            end;
            retry_on_fallback := false;
            retries_this_cycle := 0;
            if converged r then begin
              Telemetry.add c_early 1;
              outcome := Some Converged
            end
            else if !stagnant >= stagnation_window then begin
              Telemetry.add c_stag_stop 1;
              outcome := Some Stagnated
            end
            else if !cycle >= policy.max_cycles then
              outcome := Some Exhausted
            else incr cycle;
            None
        end
    in
    match fault with
    | None -> ()
    | Some f ->
      count_fault f;
      if Flightrec.on () then begin
        Flightrec.emit
          (Flightrec.Fault
             { cycle = !cycle;
               fault =
                 (match f with
                 | Fault_crash msg -> "crash: " ^ msg
                 | f -> fault_name f) })
      end;
      (* roll back to the last accepted iterate: the faulted attempt only
         wrote [next], so [cur] is it, unless [cur] is itself unusable
         (non-finite values, e.g. memory corruption in a long-running
         process); then restore the newest durable generation from disk *)
      (match checkpoint with
       | Some ck when Buf.find_nonfinite !cur.Grid.buf <> None -> (
         match ck.ck_restore () with
         | Some (ck_cycle, ck_res, g)
           when Grid.extents g = Grid.extents !cur ->
           Grid.blit ~src:g ~dst:!cur;
           good_res := ck_res;
           Telemetry.add c_disk_restore 1;
           if Flightrec.on () then
             Flightrec.emit
               (Flightrec.Checkpoint_restore
                  { gen = ck_cycle; cycle = !cycle })
         | Some _ | None -> ())
       | Some _ | None -> ());
      Telemetry.add c_rollbacks 1;
      if Flightrec.on () then
        Flightrec.emit (Flightrec.Rollback { cycle = !cycle });
      let action =
        if (not on_fallback) && !retries_this_cycle < policy.primary_retries
        then begin
          (* bounded same-plan retry with exponential backoff: transient
             faults (a tripped deadline under momentary load, an injected
             glitch) get another shot at the primary before it costs a
             fallback switch.  Retried faults do not count toward the
             quarantine threshold. *)
          incr retries_this_cycle;
          Telemetry.add c_retries 1;
          if policy.retry_backoff > 0.0 then
            Unix.sleepf
              (policy.retry_backoff
              *. (2.0 ** float_of_int (!retries_this_cycle - 1)));
          Primary_retry
        end
        else if on_fallback || get_fallback () = None then begin
          (* fault on the fallback plan (or nothing to fall back to):
             the fault is inherent to the problem, not the optimizer *)
          outcome := Some (Faulted f);
          Gave_up
        end
        else begin
          incr primary_faults;
          retry_on_fallback := true;
          Telemetry.add c_switch 1;
          if !primary_faults >= max_primary_faults then begin
            quarantined := true;
            Quarantined_primary
          end
          else Fallback_retry
        end
      in
      events := { cycle = !cycle; fault = f; action } :: !events;
      if Flightrec.on () then begin
        (match action with
        | Primary_retry ->
          Flightrec.emit
            (Flightrec.Retry
               { cycle = !cycle;
                 attempt = !retries_this_cycle;
                 backoff_s =
                   policy.retry_backoff
                   *. (2.0 ** float_of_int (!retries_this_cycle - 1)) })
        | Fallback_retry ->
          Flightrec.emit (Flightrec.Fallback_switch { cycle = !cycle })
        | Quarantined_primary ->
          Flightrec.emit (Flightrec.Fallback_switch { cycle = !cycle });
          Flightrec.emit
            (Flightrec.Quarantine
               { cycle = !cycle; faults = !primary_faults })
        | Gave_up -> ());
        (* One incident report per fault, with the recovery decision
           already taken so the report names both cause and action.
           Deadline trips arrive as a crash carrying the watchdog's
           typed exception; report them under their own kind. *)
        let kind =
          match (crash, f) with
          | Some (Watchdog.Deadline_exceeded _), _ -> "deadline"
          | _, Fault_crash _ -> "crash"
          | _, f -> fault_name f
        in
        let fnum x = if Float.is_finite x then Json.Num x else Json.Null in
        ignore
          (Flightrec.incident ~kind ~cycle:!cycle
             ~detail:
               [ ( "fault",
                   Json.Str
                     (match f with
                     | Fault_crash msg -> "crash: " ^ msg
                     | f -> fault_name f) );
                 ("action", Json.Str (action_name action));
                 ("fallback_active", Json.Bool on_fallback);
                 ("primary_faults", Json.num !primary_faults);
                 ("checkpoint_residual", fnum !good_res);
                 ( "residual_history",
                   Json.Arr
                     (List.rev_map
                        (fun (s : Solver.cycle_stats) ->
                          fnum s.Solver.residual)
                        !stats) );
                 ( "policy",
                   Json.Obj
                     [ ( "tol",
                         match policy.tol with
                         | Some t -> Json.Num t
                         | None -> Json.Null );
                       ("max_cycles", Json.num policy.max_cycles);
                       ("divergence_factor", Json.Num divergence_factor);
                       ("stagnation_eps", Json.Num stagnation_eps);
                       ("stagnation_window", Json.num stagnation_window);
                       ("max_primary_faults", Json.num max_primary_faults);
                       ("primary_retries", Json.num policy.primary_retries);
                       ("retry_backoff", Json.Num policy.retry_backoff) ] )
               ]
             ())
      end
  done;
  (* the spare iterate is dead; a sink may keep [!cur], the result *)
  Grid.release !next;
  { stats = List.rev !stats;
    v = !cur;
    residual = !good_res;
    outcome = Option.get !outcome;
    events = List.rev !events;
    fallback_cycles = !fallback_cycles;
    total_seconds = !total }

let fallback_opts (opts : Options.t) =
  { Options.naive with Options.check_plan = opts.Options.check_plan }
