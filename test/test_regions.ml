open Repro_ir
open Repro_poly

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let psize = Sizeexpr.add_const Sizeexpr.n (-1)
let psizes = [| psize; psize |]

let laplace =
  Weights.w2 [| [| 0.; -1.; 0. |]; [| -1.; 4.; -1. |]; [| 0.; -1.; 0. |] |]

(* V -> s1 -> s2 (radius-1 chain) -> restrict -> coarse stage *)
let chain_pipeline () =
  let ctx = Dsl.create "chain" in
  let v = Dsl.grid ctx "V" ~dims:2 ~sizes:psizes in
  let s1 = Dsl.func ctx ~name:"s1" ~sizes:psizes (Dsl.stencil v laplace ()) in
  let s2 =
    Dsl.func ctx ~name:"s2" ~sizes:psizes (Dsl.stencil s1 laplace ())
  in
  let r = Dsl.restrict_fn ctx ~name:"r" ~input:s2 () in
  let c =
    Dsl.func ctx ~name:"c" ~sizes:(Array.map Sizeexpr.coarsen psizes)
      (Dsl.stencil r laplace ())
  in
  (Dsl.finish ctx ~outputs:[ c ], v, s1, s2, r, c)

let build_exn p ~n ~members ~liveouts =
  match Regions.build p ~n ~members ~liveouts with
  | Ok g -> g
  | Error e -> Alcotest.fail e

let test_build_rejects_inputs () =
  let p, v, s1, _, _, _ = chain_pipeline () in
  match
    Regions.build p ~n:16 ~members:[ v.Func.id; s1.Func.id ] ~liveouts:[]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "inputs must be rejected"

let test_rel_levels () =
  let p, _, s1, s2, r, _ = chain_pipeline () in
  let g =
    build_exn p ~n:16 ~members:[ s1.Func.id; s2.Func.id; r.Func.id ]
      ~liveouts:[ r.Func.id ]
  in
  (* reference is r (coarse); the fine stages are one level finer *)
  let rel_of id =
    (List.find
       (fun (m : Regions.member) -> m.Regions.func.Func.id = id)
       (Array.to_list (Regions.members g))).Regions.rel
  in
  Alcotest.(check (array int)) "s1 rel" [| 1; 1 |] (rel_of s1.Func.id);
  Alcotest.(check (array int)) "r rel" [| 0; 0 |] (rel_of r.Func.id)

let test_tiles_partition_reference () =
  let p, _, s1, s2, _, _ = chain_pipeline () in
  let g =
    build_exn p ~n:16 ~members:[ s1.Func.id; s2.Func.id ]
      ~liveouts:[ s2.Func.id ]
  in
  let tiles = Regions.tiles g ~tile_sizes:[| 4; 7 |] in
  (* tiles must partition the 15x15 interior *)
  let covered = Hashtbl.create 64 in
  Array.iter
    (fun t ->
      for i = t.Box.lo.(0) to t.Box.hi.(0) do
        for j = t.Box.lo.(1) to t.Box.hi.(1) do
          check_bool "no overlap" false (Hashtbl.mem covered (i, j));
          Hashtbl.replace covered (i, j) ()
        done
      done)
    tiles;
  check_int "full cover" (15 * 15) (Hashtbl.length covered)

let test_own_slices_partition_members () =
  let p, _, s1, s2, r, _ = chain_pipeline () in
  let g =
    build_exn p ~n:16
      ~members:[ s1.Func.id; s2.Func.id; r.Func.id ]
      ~liveouts:[ s1.Func.id; r.Func.id ]
  in
  let tiles = Regions.tiles g ~tile_sizes:[| 3; 3 |] in
  (* own slices of the fine live-out s1 must partition its 15x15 domain *)
  let covered = Hashtbl.create 64 in
  Array.iter
    (fun t ->
      let s = Regions.own_slice g s1.Func.id ~tile:t in
      if not (Box.is_empty s) then
        for i = s.Box.lo.(0) to s.Box.hi.(0) do
          for j = s.Box.lo.(1) to s.Box.hi.(1) do
            check_bool "no overlap" false (Hashtbl.mem covered (i, j));
            Hashtbl.replace covered (i, j) ()
          done
        done)
    tiles;
  check_int "fine cover" (15 * 15) (Hashtbl.length covered)

let pfunc p id = Pipeline.func p id

let test_demand_covers_consumers () =
  let p, _, s1, s2, _, _ = chain_pipeline () in
  let g =
    build_exn p ~n:16 ~members:[ s1.Func.id; s2.Func.id ]
      ~liveouts:[ s2.Func.id ]
  in
  Array.iter
    (fun tile ->
      let req = Regions.demand g ~tile in
      let find id = snd (Array.to_list req |> List.find (fun (i, _) -> i = id)) in
      let r1 = find s1.Func.id and r2 = find s2.Func.id in
      (* s1 must cover the radius-1 footprint of s2's region, clamped *)
      let need =
        Box.inter
          (Box.map_accesses (Func.accesses_to (pfunc p s2.Func.id) s1.Func.id) r2)
          (Box.with_ghost [| 15; 15 |])
      in
      check_bool "covered" true (Box.contains r1 need))
    (Regions.tiles g ~tile_sizes:[| 4; 4 |])

let test_demand_no_consumer_is_slice () =
  let p, _, s1, _, _, _ = chain_pipeline () in
  let g = build_exn p ~n:16 ~members:[ s1.Func.id ] ~liveouts:[ s1.Func.id ] in
  Array.iter
    (fun tile ->
      let req = Regions.demand g ~tile in
      let _, r = req.(0) in
      check_bool "slice only" true
        (Box.equal r (Regions.own_slice g s1.Func.id ~tile)))
    (Regions.tiles g ~tile_sizes:[| 8; 8 |])

let test_redundancy_zero_single () =
  let p, _, s1, _, _, _ = chain_pipeline () in
  let g = build_exn p ~n:16 ~members:[ s1.Func.id ] ~liveouts:[ s1.Func.id ] in
  Alcotest.(check (float 1e-9)) "no redundancy" 0.0
    (Regions.redundancy g ~tile_sizes:[| 4; 4 |])

let test_redundancy_positive_chain () =
  let p, _, s1, s2, _, _ = chain_pipeline () in
  let g =
    build_exn p ~n:16 ~members:[ s1.Func.id; s2.Func.id ]
      ~liveouts:[ s2.Func.id ]
  in
  check_bool "positive" true (Regions.redundancy g ~tile_sizes:[| 4; 4 |] > 0.0)

let test_scratch_extents_bound_demand () =
  let p, _, s1, s2, r, _ = chain_pipeline () in
  let g =
    build_exn p ~n:16
      ~members:[ s1.Func.id; s2.Func.id; r.Func.id ]
      ~liveouts:[ r.Func.id ]
  in
  let tile_sizes = [| 4; 4 |] in
  let ext = Regions.scratch_extents g ~tile_sizes in
  Array.iter
    (fun tile ->
      Array.iter
        (fun (id, box) ->
          let e = List.assoc id ext in
          Array.iteri
            (fun k w -> check_bool "bounded" true (w <= e.(k)))
            (Box.widths box))
        (Regions.demand g ~tile))
    (Regions.tiles g ~tile_sizes)

let test_cross_rank_rejected () =
  let ctx = Dsl.create "mixed" in
  let v = Dsl.grid ctx "V" ~dims:2 ~sizes:psizes in
  let a = Dsl.func ctx ~name:"a" ~sizes:psizes (Dsl.stencil v laplace ()) in
  let b =
    Dsl.func ctx ~name:"b" ~sizes:[| Sizeexpr.const 7; Sizeexpr.const 9 |]
      (Expr.const 1.0)
  in
  let p = Dsl.finish ctx ~outputs:[ a; b ] in
  match
    Regions.build p ~n:16 ~members:[ a.Func.id; b.Func.id ]
      ~liveouts:[ a.Func.id; b.Func.id ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "incompatible sizes must be rejected"

let prop_own_slice_partition =
  QCheck.Test.make ~name:"own slices partition every member domain" ~count:30
    QCheck.(pair (int_range 1 8) (int_range 1 8))
    (fun (t0, t1) ->
      let p, _, s1, s2, r, c = chain_pipeline () in
      ignore s2;
      let g =
        build_exn p ~n:16
          ~members:[ s1.Func.id; s2.Func.id; r.Func.id; c.Func.id ]
          ~liveouts:[ s1.Func.id; c.Func.id ]
      in
      let tiles = Regions.tiles g ~tile_sizes:[| t0; t1 |] in
      List.for_all
        (fun (id, dom) ->
          let count = ref 0 in
          Array.iter
            (fun t -> count := !count + Box.points (Regions.own_slice g id ~tile:t))
            tiles;
          !count = dom)
        [ (s1.Func.id, 15 * 15); (c.Func.id, 7 * 7) ])

let () =
  Alcotest.run "regions"
    [ ( "unit",
        [ Alcotest.test_case "inputs rejected" `Quick test_build_rejects_inputs;
          Alcotest.test_case "rel levels" `Quick test_rel_levels;
          Alcotest.test_case "tiles partition" `Quick test_tiles_partition_reference;
          Alcotest.test_case "own slices partition" `Quick
            test_own_slices_partition_members;
          Alcotest.test_case "demand covers consumers" `Quick
            test_demand_covers_consumers;
          Alcotest.test_case "demand of isolated liveout" `Quick
            test_demand_no_consumer_is_slice;
          Alcotest.test_case "redundancy single" `Quick test_redundancy_zero_single;
          Alcotest.test_case "redundancy chain" `Quick test_redundancy_positive_chain;
          Alcotest.test_case "scratch extents bound" `Quick
            test_scratch_extents_bound_demand;
          Alcotest.test_case "incompatible sizes" `Quick test_cross_rank_rejected ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_own_slice_partition ] ) ]
