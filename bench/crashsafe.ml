(* SIGKILL-injection campaign: the executable proof that durable
   checkpoint/restart survives being killed at any instant.

   Children are forked (domains=1, so the runtime holds no threads and
   fork is safe) to run a checkpointed 2D Poisson solve (opt+ plan,
   cadence 1, keep 3) and are killed two ways:

     boundary   SIGKILL right after an accepted cycle's checkpoint
                write completed (the on_accept hook kills the process)
     mid-write  Snapshot's crash spec arms the n-th atomic write to
                flush only a byte prefix of its temp file and SIGKILL
                before the rename — a power cut between write and
                rename, deterministically

   After every kill the parent asserts the recovery invariant: if the
   directory holds any generation at all, [Checkpoint.load_latest]
   succeeds (torn temp files are invisible under the final name; a
   mid-write kill during the very first checkpoint legitimately leaves
   no generation, and resuming such a directory must exit 6, mg_solve's
   "resume failed" code).  A resume child then finishes the solve and
   its final iterate must match an uninterrupted reference run within
   the conformance plan budget — same plan, bit-identical in practice.

   Deliberate-corruption legs bit-flip and truncate the newest
   generation (restore must fall back to the previous one) and corrupt
   every generation (load_latest must reject the directory, and a fresh
   solve must still recover it).  A digest-drift leg checkpoints under
   opt+ and resumes under naive: the resume re-plans, records a
   resume-replan incident, and still matches the reference within the
   cross-implementation budget.

   Modes:
     --quick          small campaign (8 kills, 12 cycles): the runtest tier
     (default)        full campaign (50 kills, 24 cycles): the CI job
     --overhead       also time the on_accept hook plumbing (checkpointing
                      disabled) and write ckpt_off.json / ckpt_hook.json,
                      one-record polymg.bench/1 files for
                      `compare.exe ckpt_off.json ckpt_hook.json --threshold 0.02`
     --out FILE       write a polymg.crashsafe/1 JSON summary
     --incident-dir D arm the flight recorder in resume children; the
                      checkpoint-rejected / resume-replan incident trail
                      lands under D for incident_check.exe

   The checks run inside the kill loop, so only failing ones print a
   line (Campaign.list_passes); the summary line carries the counts.
   Exits 0 when every kill recovered and every leg passed. *)

open Repro_mg
open Repro_core
module Grid = Repro_grid.Grid
module Snapshot = Repro_runtime.Snapshot
module Flightrec = Repro_runtime.Flightrec
module Json = Repro_runtime.Json

let dims = 2
let n = 64

let cfg =
  Cycle.default ~dims ~shape:Cycle.V ~smoothing:(4, 4, 4)

(* -- args ---------------------------------------------------------------- *)

let kills_flag = ref None
let seed = ref 42
let overhead = ref false
let workdir = ref "crashsafe-work"

let () =
  Campaign.parse
    ~usage:
      "usage: crashsafe.exe [--quick] [--kills N] [--seed N] [--out FILE]\n\
      \       [--incident-dir DIR] [--overhead] [--workdir DIR]"
    [ Campaign.quick_flag;
      ( "--kills",
        Arg.Int (fun k -> kills_flag := Some k),
        "N Randomized kills (default 50, 8 with --quick)" );
      ("--seed", Arg.Set_int seed, "N Kill-schedule seed (default 42)");
      Campaign.out_flag;
      Campaign.incident_dir_flag;
      ( "--overhead",
        Arg.Set overhead,
        " Also time the checkpoint-hook plumbing (ckpt_off/ckpt_hook.json)" );
      ( "--workdir",
        Arg.Set_string workdir,
        "DIR Scratch directory for the children (default crashsafe-work)" ) ];
  (* the kills are invariant checks inside a loop: list only failures *)
  Campaign.list_passes := false

let quick = !Campaign.quick
let kills = Option.value !kills_flag ~default:(if quick then 8 else 50)
let incident_dir = !Campaign.incident_dir

let total_cycles = if quick then 12 else 24

(* -- fs helpers ---------------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if parent <> d then mkdir_p parent;
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* -- the forked solve child ---------------------------------------------- *)

type kill = No_kill | At_cycle of int | Mid_write of int * int

(* What the child does; runs entirely in the forked process.  Returns
   the exit code (6 = no usable checkpoint generation, like mg_solve). *)
let solve_child ~dir ~resume ~opts ~variant ~kill ~incidents () =
  Flightrec.set_enabled true;
  Flightrec.set_incident_dir incidents;
  let plan = Solver.polymg_plan cfg ~n ~opts in
  let digest = Plan.digest plan in
  Flightrec.note_plan ~digest ~variant;
  let problem = Problem.poisson ~dims ~n in
  let restored =
    if not resume then None
    else
      match Checkpoint.load_latest ~dir with
      | Error msg ->
        Printf.eprintf "child resume: %s\n%!" msg;
        Some (Error ())
      | Ok r ->
        let st = r.Checkpoint.state in
        if st.Checkpoint.plan_digest <> digest then begin
          if Flightrec.on () then
            Flightrec.emit
              (Flightrec.Resume_replan
                 { old_digest = st.Checkpoint.plan_digest;
                   new_digest = digest });
          ignore
            (Flightrec.incident ~kind:"resume-replan"
               ~cycle:st.Checkpoint.cycle
               ~detail:
                 [ ("checkpoint_digest", Json.Str st.Checkpoint.plan_digest);
                   ("current_digest", Json.Str digest) ]
               ())
        end;
        Some (Ok st)
  in
  match restored with
  | Some (Error ()) -> 6
  | _ ->
    let start_cycle, history_prefix, problem =
      match restored with
      | Some (Ok st) ->
        ( st.Checkpoint.cycle + 1,
          st.Checkpoint.history,
          { problem with Problem.v = st.Checkpoint.v } )
      | _ -> (1, [], problem)
    in
    Exec.with_runtime ~domains:1 (fun rt ->
        let stepper = Solver.plan_stepper plan ~rt in
        let sink =
          Checkpoint.sink
            { Checkpoint.dir; every = 1; keep = Checkpoint.default_keep }
            ~dims ~n ~variant ~plan_digest:digest ~history_prefix ()
        in
        let on_accept ~cycle ~residual ~v ~stats =
          sink.Checkpoint.on_accept ~cycle ~residual ~v ~stats;
          match kill with
          | At_cycle k when cycle = k ->
            Unix.kill (Unix.getpid ()) Sys.sigkill
          | _ -> ()
        in
        (match kill with
         | Mid_write (w, bytes) ->
           Snapshot.set_crash_spec
             (Some { Snapshot.after_writes = w; partial_bytes = bytes })
         | _ -> ());
        let cycles_left = total_cycles - start_cycle + 1 in
        if cycles_left >= 1 then
          ignore
            (Solver.iterate stepper ~problem ~cycles:cycles_left ~start_cycle
               ~on_accept ());
        Snapshot.set_crash_spec None;
        ignore (sink.Checkpoint.flush ());
        0)

type child_status = Exited of int | Killed of int

let in_child f =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    let code =
      try f ()
      with e ->
        Printf.eprintf "child: %s\n%!" (Printexc.to_string e);
        1
    in
    Stdlib.exit code
  | pid -> (
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED c -> Exited c
    | _, Unix.WSIGNALED s -> Killed s
    | _, Unix.WSTOPPED s -> Killed s)

let status_name = function
  | Exited c -> Printf.sprintf "exit %d" c
  | Killed s -> Printf.sprintf "signal %d" s

(* One solve child on [dir], opt+ unless [naive]. *)
let run ?(resume = false) ?(naive = false) ?(kill = No_kill) ?incidents dir =
  let opts, variant =
    if naive then (Options.naive, "naive") else (Options.opt_plus, "opt+")
  in
  in_child (solve_child ~dir ~resume ~opts ~variant ~kill ~incidents)

(* -- campaign ------------------------------------------------------------ *)

let check what ok = Campaign.check ~name:what ~pass:ok ~detail:[]

let expect_status what expected st =
  check
    (Printf.sprintf "%s: expected %s, got %s" what (status_name expected)
       (status_name st))
    (st = expected)

let budgets = Conformance.default_budgets

(* counters for the summary document *)
let boundary_kills = ref 0
let midwrite_kills = ref 0
let cold_restarts = ref 0
let resumes_ok = ref 0
let rejected_gens = ref 0
let bit_identical = ref 0
let worst_abs = ref 0.0

let finish_and_compare ~what ~dir ~ref_v ?incidents () =
  let budget = budgets.Conformance.vs_plan in
  (* a resume child completes the solve; its final generation must hold
     the full cycle count and match the uninterrupted reference *)
  let st = run ~resume:true ?incidents dir in
  if st = Exited 0 then incr resumes_ok;
  expect_status (what ^ ": resume child") (Exited 0) st;
  match Checkpoint.load_latest ~dir with
  | Error msg -> check (Printf.sprintf "%s: final load: %s" what msg) false
  | Ok r ->
    let st = r.Checkpoint.state in
    check
      (Printf.sprintf "%s: final cycle %d <> %d" what st.Checkpoint.cycle
         (total_cycles))
      (st.Checkpoint.cycle = total_cycles);
    let d = Conformance.grid_diff st.Checkpoint.v ref_v in
    if d.Conformance.max_abs = 0.0 then incr bit_identical;
    if d.Conformance.max_abs > !worst_abs then worst_abs := d.Conformance.max_abs;
    check
      (Printf.sprintf "%s: resumed answer off by %.3e (budget %.1e)" what
         d.Conformance.max_abs budget)
      (d.Conformance.max_abs <= budget)

let () =
  rm_rf !workdir;
  mkdir_p !workdir;
  let rng = Random.State.make [| !seed |] in
  let total = total_cycles in
  let dir_of leg = Filename.concat !workdir leg in
  let incidents_of leg =
    Option.map (fun d -> Filename.concat d leg) incident_dir
  in

  (* Reference: an uninterrupted checkpointed run in its own child (the
     parent itself never touches the execution runtime, keeping every
     later fork trivially safe); the parent reads its final generation. *)
  let ref_dir = dir_of "reference" in
  if run ref_dir <> Exited 0 then begin
    prerr_endline "crashsafe: reference run failed";
    exit 1
  end;
  let ref_v =
    match Checkpoint.load_latest ~dir:ref_dir with
    | Ok r when r.Checkpoint.state.Checkpoint.cycle = total ->
      r.Checkpoint.state.Checkpoint.v
    | Ok _ | Error _ ->
      prerr_endline "crashsafe: reference run left no full checkpoint";
      exit 1
  in
  Printf.printf "crashsafe: %d randomized kills, %d cycles, seed %d\n%!"
    kills total !seed;

  (* ---- randomized kill loop ---- *)
  for i = 1 to kills do
    let leg = Printf.sprintf "kill-%03d" i in
    let dir = dir_of leg in
    let kill =
      if i mod 2 = 1 then begin
        incr midwrite_kills;
        (* die during the w-th checkpoint write, with only a byte
           prefix of the temp file flushed (0 = nothing at all) *)
        Mid_write
          (1 + Random.State.int rng (total - 1), Random.State.int rng 96)
      end
      else begin
        incr boundary_kills;
        At_cycle (1 + Random.State.int rng (total - 1))
      end
    in
    expect_status (leg ^ ": kill") (Killed Sys.sigkill) (run ~kill dir);
    (* recovery invariant: any surviving generation set is loadable *)
    match Checkpoint.generations ~dir with
    | [] ->
      (* killed during the very first write: resuming must exit 6, and
         a fresh solve must still recover the directory *)
      incr cold_restarts;
      expect_status (leg ^ ": empty-dir resume") (Exited 6)
        (run ~resume:true dir);
      let st = run dir in
      if st = Exited 0 then incr resumes_ok;
      expect_status (leg ^ ": fresh solve after cold kill") (Exited 0) st
    | _ :: _ ->
      (match Checkpoint.load_latest ~dir with
       | Ok r -> rejected_gens := !rejected_gens + List.length r.Checkpoint.rejected
       | Error msg ->
         check (Printf.sprintf "%s: UNRECOVERABLE dir: %s" leg msg) false);
      finish_and_compare ~what:leg ~dir ~ref_v ()
  done;

  (* ---- deliberate corruption: bit-flip the newest generation ---- *)
  let corrupt leg mutate =
    let dir = dir_of leg in
    expect_status (leg ^ ": setup kill") (Killed Sys.sigkill)
      (run ~kill:(At_cycle (total / 2)) dir);
    let gens = Checkpoint.generations ~dir in
    check (Printf.sprintf "%s: setup left generations" leg) (gens <> []);
    (match List.rev gens with
     | newest :: _ :: _ ->
       let path = Checkpoint.gen_path ~dir newest in
       mutate path;
       (match Checkpoint.load_latest ~dir with
        | Ok r ->
          check
            (Printf.sprintf "%s: corrupt newest gen %d not rejected" leg
               newest)
            (List.mem_assoc newest r.Checkpoint.rejected);
          check
            (Printf.sprintf "%s: fell forward to gen %d" leg r.Checkpoint.gen)
            (r.Checkpoint.gen < newest)
        | Error msg ->
          check (Printf.sprintf "%s: no fallback generation: %s" leg msg)
            false)
     | _ -> check (Printf.sprintf "%s: expected >= 2 generations" leg) false);
    finish_and_compare ~what:leg ~dir ~ref_v ?incidents:(incidents_of leg) ()
  in
  corrupt "bitflip" (fun path ->
      let s = Bytes.of_string (read_file path) in
      let i = Bytes.length s / 2 in
      Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 0x10));
      write_file path (Bytes.to_string s));
  corrupt "truncate" (fun path ->
      let s = read_file path in
      write_file path (String.sub s 0 (String.length s / 2)));

  (* ---- every generation corrupted: detected, not deserialized ---- *)
  let dir = dir_of "corrupt-all" in
  expect_status "corrupt-all: setup kill" (Killed Sys.sigkill)
    (run ~kill:(At_cycle (total / 2)) dir);
  List.iter
    (fun g ->
      let path = Checkpoint.gen_path ~dir g in
      let s = read_file path in
      write_file path (String.sub s 0 (String.length s - 7)))
    (Checkpoint.generations ~dir);
  (match Checkpoint.load_latest ~dir with
   | Error _ -> ()
   | Ok r ->
     check
       (Printf.sprintf "corrupt-all: gen %d deserialized despite corruption"
          r.Checkpoint.gen)
       false);
  expect_status "corrupt-all: resume" (Exited 6)
    (run ~resume:true ?incidents:(incidents_of "corrupt-all") dir);
  expect_status "corrupt-all: fresh solve recovers the dir" (Exited 0)
    (run dir);

  (* ---- plan-digest drift: checkpoint under opt+, resume under naive ---- *)
  let dir = dir_of "drift" in
  expect_status "drift: setup kill" (Killed Sys.sigkill)
    (run ~kill:(At_cycle (total / 2)) dir);
  expect_status "drift: naive resume" (Exited 0)
    (run ~resume:true ~naive:true ?incidents:(incidents_of "drift") dir);
  (match Checkpoint.load_latest ~dir with
   | Error msg -> check (Printf.sprintf "drift: final load: %s" msg) false
   | Ok r ->
     let st = r.Checkpoint.state in
     check "drift: resumed plan digest recorded"
       (st.Checkpoint.variant = "naive");
     check
       (Printf.sprintf "drift: final cycle %d" st.Checkpoint.cycle)
       (st.Checkpoint.cycle = total);
     let d = Conformance.grid_diff st.Checkpoint.v ref_v in
     check
       (Printf.sprintf "drift: cross-plan answer off by %.3e (budget %.1e)"
          d.Conformance.max_abs budgets.Conformance.vs_handopt)
       (d.Conformance.max_abs <= budgets.Conformance.vs_handopt));
  if incident_dir <> None then
    check "drift: resume-replan incident written"
      (Campaign.expect_incident ~dir:(incidents_of "drift")
         ~kinds:[ "resume-replan" ] ()
      = []);

  (* ---- overhead of the (disabled) checkpoint hook plumbing ---- *)
  if !overhead then begin
    let cycles = 8 and reps = 3 in
    let problem = Problem.poisson_random ~dims ~n:128 ~seed:7 in
    Exec.with_runtime ~domains:1 (fun rt ->
        let stepper =
          Solver.polymg_stepper cfg ~n:128 ~opts:Options.opt_plus ~rt
        in
        let time ?on_accept () =
          let run () =
            (Solver.iterate stepper ~problem ~cycles ~residuals:false
               ?on_accept ())
              .Solver.total_seconds
          in
          ignore (run ());
          let best = ref infinity in
          for _ = 1 to reps do
            best := Float.min !best (run ())
          done;
          !best /. float_of_int cycles
        in
        let t_off = time () in
        let t_hook =
          time ~on_accept:(fun ~cycle:_ ~residual:_ ~v:_ ~stats:_ -> ()) ()
        in
        Printf.printf
          "overhead: %.4f s/cycle no hook, %.4f s/cycle no-op hook \
           (%+.1f%%)\n%!"
          t_off t_hook
          (100.0 *. ((t_hook /. t_off) -. 1.0));
        let record seconds =
          Json.Obj
            [ ("schema", Json.Str "polymg.bench/1");
              ( "records",
                Json.Arr
                  [ Json.Obj
                      [ ("bench", Json.Str (Cycle.bench_name cfg));
                        ("n", Json.num 128);
                        ("dims", Json.num dims);
                        ("domains", Json.num 1);
                        ("variant", Json.Str "opt+");
                        ("s_per_cycle", Json.Num seconds);
                        ("counters", Json.Obj []) ] ] ) ]
        in
        Snapshot.atomic_write_string ~path:"ckpt_off.json"
          (Json.to_string (record t_off) ^ "\n");
        Snapshot.atomic_write_string ~path:"ckpt_hook.json"
          (Json.to_string (record t_hook) ^ "\n");
        print_endline "wrote ckpt_off.json ckpt_hook.json")
  end;

  (* ---- teardown: across every killed, resumed, and rejected solve ---- *)
  Campaign.teardown ~name:"pools quiescent";

  (* ---- summary ---- *)
  Printf.printf
    "crashsafe: %d kills (%d mid-write, %d boundary, %d cold), %d resumes, \
     %d generation(s) rejected, %d/%d bit-identical, worst |diff| %.3e\n"
    kills !midwrite_kills !boundary_kills !cold_restarts !resumes_ok
    !rejected_gens !bit_identical
    (kills - !cold_restarts + 2)
    !worst_abs;
  Campaign.finish ~schema:"polymg.crashsafe/1"
    ~body:
      [ ("kills", Json.num kills);
        ("cycles", Json.num total);
        ("seed", Json.num !seed);
        ("boundary_kills", Json.num !boundary_kills);
        ("midwrite_kills", Json.num !midwrite_kills);
        ("cold_restarts", Json.num !cold_restarts);
        ("resumes_ok", Json.num !resumes_ok);
        ("rejected_generations", Json.num !rejected_gens);
        ("bit_identical_resumes", Json.num !bit_identical);
        ("worst_max_abs", Json.Num !worst_abs) ]
    "crashsafe"
