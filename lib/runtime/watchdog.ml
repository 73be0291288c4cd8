exception
  Deadline_exceeded of { stage : string; elapsed_ns : int; budget_ns : int }

(* Pretty-print the payload in backtraces and Guard crash messages. *)
let () =
  Printexc.register_printer (function
    | Deadline_exceeded { stage; elapsed_ns; budget_ns } ->
      Some
        (Printf.sprintf
           "Watchdog.Deadline_exceeded(stage %s: %.3f ms elapsed, budget \
            %.3f ms)"
           stage
           (float_of_int elapsed_ns /. 1e6)
           (float_of_int budget_ns /. 1e6))
    | _ -> None)

type armed_state = {
  stage : string;
  start_ns : int;
  deadline_ns : int;
  tripped : bool Atomic.t;  (* count the trip once across domains *)
}

(* One deadline at a time: groups execute sequentially and the executor
   arms/disarms around each.  Workers only read. *)
let state : armed_state option Atomic.t = Atomic.make None

let c_trips = Telemetry.counter "govern.deadline_trips"

let arm ~stage ~budget_ns =
  if budget_ns <= 0 then invalid_arg "Watchdog.arm: budget must be positive";
  let start_ns = Telemetry.now_ns () in
  Atomic.set state
    (Some
       { stage;
         start_ns;
         deadline_ns = start_ns + budget_ns;
         tripped = Atomic.make false });
  if Flightrec.on () then
    Flightrec.emit (Flightrec.Watchdog_armed { stage; budget_ns })

let disarm () = Atomic.set state None

let armed () = Atomic.get state <> None

(* The watchdog stays armed after a trip: Parallel keeps draining the
   remaining indices of a failed region, so every later tile must keep
   raising at its boundary check (skipping its kernel) for cancellation
   to actually shed the work.  Only the first raise per arming counts as
   a trip. *)
let check () =
  match Atomic.get state with
  | None -> ()
  | Some s ->
    let now = Telemetry.now_ns () in
    if now > s.deadline_ns then begin
      if Atomic.compare_and_set s.tripped false true then begin
        Telemetry.add c_trips 1;
        if Flightrec.on () then
          Flightrec.emit
            (Flightrec.Deadline_trip
               { stage = s.stage;
                 elapsed_ns = now - s.start_ns;
                 budget_ns = s.deadline_ns - s.start_ns })
      end;
      raise
        (Deadline_exceeded
           { stage = s.stage;
             elapsed_ns = now - s.start_ns;
             budget_ns = s.deadline_ns - s.start_ns })
    end

let with_deadline ~stage ~budget_ns f =
  arm ~stage ~budget_ns;
  Fun.protect ~finally:disarm f
