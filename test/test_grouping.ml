open Repro_ir
open Repro_core
open Repro_mg

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let vcfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4)

let test_naive_singleton_groups () =
  let p = Cycle.build vcfg in
  let groups = Grouping.run p ~opts:Options.naive ~n:32 in
  check_int "one group per stage" (Pipeline.stage_count p)
    (List.length groups);
  List.iter
    (fun (g : Grouping.group) ->
      check_int "singleton" 1 (List.length g.Grouping.members);
      check_bool "liveout" true (g.Grouping.liveouts = g.Grouping.members))
    groups

let test_fused_groups_cover_all_stages () =
  let p = Cycle.build vcfg in
  let groups = Grouping.run p ~opts:Options.opt_plus ~n:32 in
  let members =
    List.concat_map (fun (g : Grouping.group) -> g.Grouping.members) groups
  in
  check_int "all stages exactly once" (Pipeline.stage_count p)
    (List.length (List.sort_uniq Int.compare members));
  check_int "no duplicates" (List.length members)
    (List.length (List.sort_uniq Int.compare members));
  check_bool "fewer groups than stages" true
    (List.length groups < Pipeline.stage_count p)

let test_group_size_limit_respected () =
  let p = Cycle.build vcfg in
  let opts = { Options.opt_plus with Options.group_size_limit = 3 } in
  let groups = Grouping.run p ~opts ~n:32 in
  List.iter
    (fun (g : Grouping.group) ->
      check_bool "limit" true (List.length g.Grouping.members <= 3))
    groups

let test_groups_topologically_ordered () =
  let p = Cycle.build vcfg in
  let groups = Grouping.run p ~opts:Options.opt_plus ~n:32 in
  let position = Hashtbl.create 64 in
  List.iteri
    (fun gi (g : Grouping.group) ->
      List.iter (fun m -> Hashtbl.replace position m gi) g.Grouping.members)
    groups;
  Array.iter
    (fun (f : Func.t) ->
      if not (Func.is_input f) then
        List.iter
          (fun prod ->
            match Hashtbl.find_opt position prod with
            | None -> ()  (* input *)
            | Some gp ->
              check_bool "producer group not later" true
                (gp <= Hashtbl.find position f.Func.id))
          (Func.producers f))
    (Pipeline.funcs p)

let test_liveouts_match_dag () =
  let p = Cycle.build vcfg in
  let groups = Grouping.run p ~opts:Options.opt_plus ~n:32 in
  List.iter
    (fun (g : Grouping.group) ->
      List.iter
        (fun m ->
          let is_liveout = List.mem m g.Grouping.liveouts in
          let expected =
            Pipeline.is_liveout p m
            || Pipeline.consumers p m = []
            || List.exists
                 (fun c -> not (List.mem c g.Grouping.members))
                 (Pipeline.consumers p m)
          in
          check_bool "liveout iff external use" expected is_liveout)
        g.Grouping.members)
    groups

let test_redundancy_blocks_fusion () =
  let p = Cycle.build vcfg in
  let n = 32 in
  let opts =
    Options.with_tiles Options.opt_plus ~t2:[| 2; 2 |] ~t3:[| 2; 2; 2 |]
  in
  let groups = Grouping.run p ~opts ~n in
  (* 2x2 tiles: fusing two smoothing steps would recompute more than the
     grouping tolerates (redundancy 0.6), so the smoother chains stay
     unfused and every group that does fuse stays within that bound *)
  check_bool "some groups are singletons" true
    (List.exists
       (fun (g : Grouping.group) -> List.length g.Grouping.members = 1)
       groups);
  List.iter
    (fun (g : Grouping.group) ->
      let smooths =
        List.filter
          (fun m ->
            match (Pipeline.func p m).Func.kind with
            | Func.Smooth _ -> true
            | _ -> false)
          g.Grouping.members
      in
      check_bool "smoothing steps unfused" true (List.length smooths <= 1);
      if List.length g.Grouping.members > 1 then begin
        match
          Repro_poly.Regions.build p ~n ~members:g.Grouping.members
            ~liveouts:g.Grouping.liveouts
        with
        | Ok geom ->
          let dims =
            (Repro_poly.Regions.reference geom).Repro_poly.Regions.func.Func.dims
          in
          check_bool "redundancy within bound" true
            (Repro_poly.Regions.redundancy geom
               ~tile_sizes:(Grouping.tile_sizes_for opts ~dims)
             <= 0.6)
        | Error e -> Alcotest.fail e
      end)
    groups

let test_diamond_chains_detected () =
  let p = Cycle.build vcfg in
  let groups = Grouping.run p ~opts:Options.dtile_opt_plus ~n:32 in
  let diamonds = List.filter (fun g -> g.Grouping.diamond) groups in
  check_bool "has diamond groups" true (List.length diamonds > 0);
  List.iter
    (fun (g : Grouping.group) ->
      check_int "chain of 4 smoothing steps" 4 (List.length g.Grouping.members);
      List.iter
        (fun m ->
          match (Pipeline.func p m).Func.kind with
          | Func.Smooth _ -> ()
          | _ -> Alcotest.fail "diamond member must be a smoothing step")
        g.Grouping.members)
    diamonds

let test_no_diamond_for_overlapped () =
  let p = Cycle.build vcfg in
  let groups = Grouping.run p ~opts:Options.opt_plus ~n:32 in
  check_bool "none" true
    (List.for_all (fun g -> not g.Grouping.diamond) groups)

let test_tile_sizes_for () =
  Alcotest.(check (array int)) "2d" [| 32; 256 |]
    (Grouping.tile_sizes_for Options.opt_plus ~dims:2);
  Alcotest.(check (array int)) "3d" [| 8; 8; 64 |]
    (Grouping.tile_sizes_for Options.opt_plus ~dims:3)

(* plan-level checks *)

let test_plan_naive_arrays_one_per_stage () =
  let p = Cycle.build vcfg in
  let plan =
    Plan.build p ~opts:Options.naive ~n:32 ~params:(Cycle.params vcfg ~n:32)
  in
  check_int "arrays = stages" (Pipeline.stage_count p) (Plan.array_count plan)

let test_plan_reuse_shrinks_arrays () =
  let p = Cycle.build vcfg in
  let n = 32 in
  let params = Cycle.params vcfg ~n in
  let no_reuse = Plan.build p ~opts:Options.opt ~n ~params in
  let reuse = Plan.build p ~opts:Options.opt_plus ~n ~params in
  check_bool "fewer arrays" true
    (Plan.array_count reuse < Plan.array_count no_reuse);
  check_bool "fewer bytes" true
    (Plan.total_array_bytes reuse < Plan.total_array_bytes no_reuse)

let test_plan_scratch_reuse_shrinks_scratch () =
  let p = Cycle.build vcfg in
  let n = 32 in
  let params = Cycle.params vcfg ~n in
  let no_reuse = Plan.build p ~opts:Options.opt ~n ~params in
  let reuse = Plan.build p ~opts:Options.opt_plus ~n ~params in
  check_bool "smaller scratch" true
    (Plan.scratch_bytes_per_thread reuse
     <= Plan.scratch_bytes_per_thread no_reuse);
  check_bool "nonzero" true (Plan.scratch_bytes_per_thread reuse > 0)

let test_plan_array_lifetimes_consistent () =
  let p = Cycle.build vcfg in
  let n = 32 in
  let plan =
    Plan.build p ~opts:Options.opt_plus ~n ~params:(Cycle.params vcfg ~n)
  in
  Array.iter
    (fun (a : Plan.array_info) ->
      check_bool "first <= last" true (a.Plan.first_group <= a.Plan.last_group);
      check_bool "len positive" true (a.Plan.len > 0))
    plan.Plan.arrays

let test_plan_members_have_storage () =
  let p = Cycle.build vcfg in
  let n = 32 in
  List.iter
    (fun opts ->
      let plan = Plan.build p ~opts ~n ~params:(Cycle.params vcfg ~n) in
      Array.iter
        (fun g ->
          match g with
          | Plan.G_tiled tg ->
            Array.iter
              (fun (m : Plan.member) ->
                check_bool "storage" true
                  (m.Plan.scratch_slot <> None || m.Plan.array_id <> None))
              tg.Plan.members
          | Plan.G_diamond _ -> ())
        plan.Plan.groups)
    [ Options.naive; Options.opt; Options.opt_plus; Options.dtile_opt_plus ]

let test_plan_summary_smoke () =
  let p = Cycle.build vcfg in
  let n = 32 in
  let plan =
    Plan.build p ~opts:Options.opt_plus ~n ~params:(Cycle.params vcfg ~n)
  in
  let s = Format.asprintf "%a" Plan.summary plan in
  check_bool "mentions groups" true (String.length s > 200)

let test_plan_rejects_wide_stencils () =
  let ctx = Repro_ir.Dsl.create "wide" in
  let sizes = [| Repro_ir.Sizeexpr.add_const Repro_ir.Sizeexpr.n (-1);
                 Repro_ir.Sizeexpr.add_const Repro_ir.Sizeexpr.n (-1) |] in
  let v = Repro_ir.Dsl.grid ctx "V" ~dims:2 ~sizes in
  let a =
    Repro_ir.Dsl.func ctx ~name:"wide" ~sizes
      (Repro_ir.Expr.load v.Func.id [| -2; 0 |])
  in
  let p = Repro_ir.Dsl.finish ctx ~outputs:[ a ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Plan.build p ~opts:Options.naive ~n:16
                 ~params:(fun _ -> 0.0));
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "grouping"
    [ ( "grouping",
        [ Alcotest.test_case "naive singletons" `Quick test_naive_singleton_groups;
          Alcotest.test_case "fusion covers all" `Quick
            test_fused_groups_cover_all_stages;
          Alcotest.test_case "size limit" `Quick test_group_size_limit_respected;
          Alcotest.test_case "topological order" `Quick
            test_groups_topologically_ordered;
          Alcotest.test_case "liveouts" `Quick test_liveouts_match_dag;
          Alcotest.test_case "overlap threshold" `Quick
            test_redundancy_blocks_fusion;
          Alcotest.test_case "diamond chains" `Quick test_diamond_chains_detected;
          Alcotest.test_case "no diamond in opt+" `Quick test_no_diamond_for_overlapped;
          Alcotest.test_case "tile sizes" `Quick test_tile_sizes_for ] );
      ( "plan",
        [ Alcotest.test_case "naive one array per stage" `Quick
            test_plan_naive_arrays_one_per_stage;
          Alcotest.test_case "array reuse shrinks" `Quick test_plan_reuse_shrinks_arrays;
          Alcotest.test_case "scratch reuse shrinks" `Quick
            test_plan_scratch_reuse_shrinks_scratch;
          Alcotest.test_case "lifetimes" `Quick test_plan_array_lifetimes_consistent;
          Alcotest.test_case "members have storage" `Quick
            test_plan_members_have_storage;
          Alcotest.test_case "summary" `Quick test_plan_summary_smoke;
          Alcotest.test_case "wide stencil rejected" `Quick
            test_plan_rejects_wide_stencils ] ) ]

