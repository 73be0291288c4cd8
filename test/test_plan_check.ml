(* Plan_check: the independent storage-safety pass must accept every
   plan the optimizer actually builds (presets × standard cycle configs,
   plus random pipelines) and reject deliberately corrupted storage
   mappings — aliased live-outs, dropped scratchpad slots, undersized
   arrays and scratch slots. *)

open Repro_mg
open Repro_core
module Grid = Repro_grid.Grid

let smoothing = (4, 4, 4)

let plan_of ~dims ~shape ~opts =
  let cfg = Cycle.default ~dims ~shape ~smoothing in
  let n = Cycle.min_n cfg * 8 in
  Plan.build (Cycle.build cfg) ~opts ~n ~params:(Cycle.params cfg ~n)

let presets =
  [ Options.naive; Options.opt; Options.opt_plus; Options.dtile_opt_plus ]

let test_presets_accepted () =
  List.iter
    (fun (dims, shape, sname) ->
      List.iter
        (fun opts ->
          match Plan_check.check (plan_of ~dims ~shape ~opts) with
          | Ok () -> ()
          | Error issues ->
            Alcotest.failf "%s-%dD %s rejected: %s" sname dims
              (Options.name opts)
              (String.concat "; " issues))
        presets)
    [ (2, Cycle.V, "V"); (2, Cycle.W, "W"); (2, Cycle.F, "F");
      (3, Cycle.V, "V"); (3, Cycle.W, "W") ]

(* -- corruption helpers ------------------------------------------------- *)

let map_groups plan ~f = { plan with Plan.groups = Array.map f plan.Plan.groups }

let map_members plan ~f =
  map_groups plan ~f:(function
    | Plan.G_tiled tg ->
      Plan.G_tiled { tg with Plan.members = Array.map f tg.Plan.members }
    | Plan.G_diamond dg ->
      Plan.G_diamond { dg with Plan.steps = Array.map f dg.Plan.steps })

let members plan =
  let acc = ref [] in
  ignore (map_members plan ~f:(fun m -> acc := m :: !acc; m));
  List.rev !acc

let expect_reject what plan =
  match Plan_check.check plan with
  | Ok () -> Alcotest.failf "corrupted plan (%s) accepted" what
  | Error issues ->
    Alcotest.(check bool) (what ^ ": issues reported") true (issues <> [])

let base_plan () = plan_of ~dims:2 ~shape:Cycle.V ~opts:Options.opt_plus

(* Redirect one live-out into another stage's array: readers of the old
   array now see a stale or foreign value (storage aliasing). *)
let test_reject_aliased_liveout () =
  let plan = base_plan () in
  let ids =
    List.filter_map (fun m -> m.Plan.array_id) (members plan)
    |> List.sort_uniq compare
  in
  match ids with
  | a :: b :: _ ->
    let first = ref true in
    let plan' =
      map_members plan ~f:(fun m ->
          if !first && m.Plan.array_id = Some a then begin
            first := false;
            { m with Plan.array_id = Some b }
          end
          else m)
    in
    expect_reject "live-out redirected into foreign array" plan'
  | _ -> Alcotest.fail "opt+ V-cycle plan has fewer than two arrays"

(* Drop the scratchpad slot of a member that has in-group readers. *)
let test_reject_dropped_scratch_slot () =
  let plan = base_plan () in
  let first = ref true in
  let dropped = ref false in
  let plan' =
    map_members plan ~f:(fun m ->
        if !first && m.Plan.scratch_slot <> None then begin
          first := false;
          dropped := true;
          { m with Plan.scratch_slot = None }
        end
        else m)
  in
  if not !dropped then Alcotest.fail "opt+ plan has no scratchpad members";
  expect_reject "scratch slot dropped from read member" plan'

(* Shrink every pooled array to one element. *)
let test_reject_undersized_arrays () =
  let plan = base_plan () in
  let plan' =
    { plan with
      Plan.arrays =
        Array.map (fun a -> { a with Plan.len = 1 }) plan.Plan.arrays }
  in
  expect_reject "arrays shrunk to 1 element" plan'

(* Shrink the scratchpad slots of the first group that has any. *)
let test_reject_undersized_scratch () =
  let plan = base_plan () in
  let shrunk = ref false in
  let plan' =
    map_groups plan ~f:(function
      | Plan.G_tiled tg
        when (not !shrunk) && Array.length tg.Plan.scratch_slot_len > 0 ->
        shrunk := true;
        Plan.G_tiled
          { tg with
            Plan.scratch_slot_len =
              Array.map (fun _ -> 1) tg.Plan.scratch_slot_len }
      | g -> g)
  in
  if not !shrunk then Alcotest.fail "opt+ plan has no scratch slots";
  expect_reject "scratch slots shrunk to 1 element" plan'

let test_check_exn_and_build () =
  (* check_exn is silent on a good plan, raises on a corrupted one; and
     Plan_check.build honours opts.check_plan *)
  let plan = base_plan () in
  Plan_check.check_exn plan;
  let bad =
    { plan with
      Plan.arrays =
        Array.map (fun a -> { a with Plan.len = 1 }) plan.Plan.arrays }
  in
  (match Plan_check.check_exn bad with
  | () -> Alcotest.fail "check_exn accepted a corrupted plan"
  | exception Invalid_argument _ -> ());
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing in
  let n = Cycle.min_n cfg * 8 in
  ignore
    (Plan_check.build (Cycle.build cfg)
       ~opts:{ Options.opt_plus with Options.check_plan = true }
       ~n ~params:(Cycle.params cfg ~n))

(* -- the native arena layout ------------------------------------------- *)

(* The layout placed as if one array's window ended a group early: that
   array may now share bytes with a buffer first written in the group
   that still reads it.  Every such mutant that moves the layout must be
   rejected, by a check that re-derives liveness rather than reading the
   windows.  Returns, per mutant that moved the layout, its array and
   whether the check accepted it. *)
let short_window_mutants plan =
  let lay = C_emit.layout plan in
  Array.to_list plan.Plan.arrays
  |> List.mapi (fun a (info : Plan.array_info) -> (a, info))
  |> List.filter_map (fun (a, (info : Plan.array_info)) ->
         if info.Plan.output || info.Plan.last_group = info.Plan.first_group
         then None
         else begin
           let arrays = Array.copy plan.Plan.arrays in
           arrays.(a) <- { info with Plan.last_group = info.Plan.last_group - 1 };
           let lay' = C_emit.layout { plan with Plan.arrays } in
           if lay' = lay then None
           else Some (a, Plan_check.check_layout plan lay' = Ok ())
         end)

let test_short_window_rejected () =
  List.iter
    (fun opts ->
      let plan = plan_of ~dims:2 ~shape:Cycle.V ~opts in
      (match Plan_check.check_layout plan (C_emit.layout plan) with
      | Ok () -> ()
      | Error issues ->
        Alcotest.failf "%s: layout rejected: %s" (Options.name opts)
          (String.concat "; " issues));
      let mutants = short_window_mutants plan in
      Alcotest.(check bool)
        (Options.name opts ^ ": some mutant moves the layout")
        true (mutants <> []);
      List.iter
        (fun (a, accepted) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: array#%d one group short rejected"
               (Options.name opts) a)
            false accepted)
        mutants)
    presets

(* Every arena array at offset 0: a later group reads a value an earlier
   group's write has overwritten. *)
let test_one_offset_rejected () =
  let plan = base_plan () in
  let lay = C_emit.layout plan in
  let lay' =
    { lay with
      C_emit.array_off = Array.map (Option.map (fun _ -> 0)) lay.C_emit.array_off }
  in
  match Plan_check.check_layout plan lay' with
  | Ok () -> Alcotest.fail "arena arrays at one offset accepted"
  | Error issues ->
    Alcotest.(check bool) "a read of overwritten bytes is reported" true
      (List.exists
         (fun s ->
           let sub = "(arena aliasing)" in
           let n = String.length s and m = String.length sub in
           n >= m && String.sub s (n - m) m = sub)
         issues)

(* Property: for every preset, the check accepts the layout the emitter
   places, and rejects every short-window mutant that moves it. *)
let prop_random_layouts_safe =
  QCheck.Test.make
    ~name:"random pipelines: native layouts pass, short windows fail"
    ~count:40 ~long_factor:10 Pipeline_gen.pipelines_arb
    (fun stages ->
      let built = Pipeline_gen.gen_pipeline_of stages in
      List.for_all
        (fun opts ->
          let plan = Pipeline_gen.build_plan built ~opts ~n:32 in
          Plan_check.check_layout plan (C_emit.layout plan) = Ok ()
          && List.for_all (fun (_, accepted) -> not accepted)
               (short_window_mutants plan))
        presets)

(* Property: every optimizer preset builds a storage-safe plan for random
   pipelines, and the optimized result still matches the naive one. *)
let prop_random_plans_safe =
  QCheck.Test.make
    ~name:"random pipelines: optimized plans pass Plan_check and match naive"
    ~count:40 ~long_factor:10 Pipeline_gen.pipelines_arb
    (fun stages ->
      let built = Pipeline_gen.gen_pipeline_of stages in
      let n = 32 in
      let reference = Pipeline_gen.run_pipeline built ~opts:Options.naive ~n in
      List.for_all
        (fun opts ->
          match Plan_check.check (Pipeline_gen.build_plan built ~opts ~n) with
          | Error _ -> false
          | Ok () ->
            Grid.max_abs_diff reference
              (Pipeline_gen.run_pipeline built ~opts ~n)
            = 0.0)
        [ Options.opt; Options.opt_plus; Options.dtile_opt_plus ])

let () =
  Alcotest.run "plan-check"
    [ ( "accept",
        [ Alcotest.test_case "presets on standard V/W/F configs" `Quick
            test_presets_accepted;
          Alcotest.test_case "check_exn and build entry" `Quick
            test_check_exn_and_build ] );
      ( "reject",
        [ Alcotest.test_case "aliased live-out" `Quick
            test_reject_aliased_liveout;
          Alcotest.test_case "dropped scratch slot" `Quick
            test_reject_dropped_scratch_slot;
          Alcotest.test_case "undersized arrays" `Quick
            test_reject_undersized_arrays;
          Alcotest.test_case "undersized scratch slots" `Quick
            test_reject_undersized_scratch;
          Alcotest.test_case "arena window one group short" `Quick
            test_short_window_rejected;
          Alcotest.test_case "arena arrays at one offset" `Quick
            test_one_offset_rejected ] );
      ( "properties",
        [ Qc_replay.to_alcotest prop_random_plans_safe;
          Qc_replay.to_alcotest prop_random_layouts_safe ] ) ]
