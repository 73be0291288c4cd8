open Repro_ir
open Repro_poly
module Telemetry = Repro_runtime.Telemetry

let c_runs = Telemetry.counter "plan_check.runs"
let c_issues = Telemetry.counter "plan_check.issues"

let concrete_sizes ~n (f : Func.t) =
  Array.map (fun s -> Sizeexpr.eval ~n s) f.Func.sizes

let full_len sizes = Array.fold_left (fun a s -> a * (s + 2)) 1 sizes

let group_members = function
  | Plan.G_tiled tg -> tg.Plan.members
  | Plan.G_diamond dg -> dg.Plan.steps

(* (func id, array slot) pairs a group publishes. *)
let writes_of g =
  Array.to_list (group_members g)
  |> List.filter_map (fun (m : Plan.member) ->
         Option.map (fun a -> (m.Plan.func.Func.id, a)) m.Plan.array_id)

(* (producer func id, array slot) pairs a group reads from full arrays. *)
let array_reads_of g =
  let of_member ?skip (m : Plan.member) =
    let acc = ref [] in
    Array.iteri
      (fun i src ->
        if Some i <> skip then
          match src with
          | Plan.P_array a ->
            acc := (m.Plan.compiled.Compile.producers.(i), a) :: !acc
          | Plan.P_input _ | Plan.P_member _ -> ())
      m.Plan.src_of;
    !acc
  in
  match g with
  | Plan.G_tiled tg ->
    Array.to_list tg.Plan.members |> List.concat_map of_member
  | Plan.G_diamond dg ->
    let step_reads =
      Array.to_list
        (Array.mapi
           (fun step m ->
             let skip =
               if dg.Plan.prev_pos.(step) >= 0 then
                 Some dg.Plan.prev_pos.(step)
               else None
             in
             of_member ?skip m)
           dg.Plan.steps)
      |> List.concat
    in
    let init_read =
      match dg.Plan.init_src with
      | Some (Plan.P_array a) ->
        let m0 = dg.Plan.steps.(0) in
        [ (m0.Plan.compiled.Compile.producers.(dg.Plan.prev_pos.(0)), a) ]
      | Some (Plan.P_input _) | Some (Plan.P_member _) | None -> []
    in
    init_read @ step_reads

(* ---- full-array storage soundness --------------------------------- *)
(* Liveness is recomputed independently of Storage.remap by simulating
   the group sequence: each array slot tracks which stage's value it
   currently holds; every read must find its producer's value intact,
   and no group may overwrite a slot another stage's value is read from
   in that same group. *)

let check_arrays (plan : Plan.t) ~fname ~add =
  let issue fmt = Printf.ksprintf add fmt in
  let owner = Array.make (Array.length plan.Plan.arrays) None in
  Array.iteri
    (fun gi g ->
      let reads = array_reads_of g in
      let writes = writes_of g in
      List.iter
        (fun (pid, a) ->
          let info = plan.Plan.arrays.(a) in
          if info.Plan.first_group > gi then
            issue "group %d reads array#%d before its acquire group %d" gi a
              info.Plan.first_group;
          if info.Plan.last_group < gi && not info.Plan.output then
            issue "group %d reads array#%d after its release group %d" gi a
              info.Plan.last_group;
          (match owner.(a) with
          | Some o when o = pid -> ()
          | Some o ->
            issue
              "group %d reads %s from array#%d, but the slot holds %s's \
               value (storage aliasing)"
              gi (fname pid) a (fname o)
          | None ->
            issue "group %d reads %s from array#%d before any write" gi
              (fname pid) a);
          List.iter
            (fun (wfid, wa) ->
              if wa = a && wfid <> pid then
                issue
                  "group %d writes %s into array#%d while %s's value is \
                   still read from it in the same group"
                  gi (fname wfid) a (fname pid))
            writes)
        reads;
      let rec dup = function
        | [] -> ()
        | (fid, a) :: rest ->
          List.iter
            (fun (fid2, a2) ->
              if a = a2 && fid <> fid2 then
                issue "group %d writes both %s and %s into array#%d" gi
                  (fname fid) (fname fid2) a)
            rest;
          dup rest
      in
      dup writes;
      List.iter
        (fun (fid, a) ->
          let info = plan.Plan.arrays.(a) in
          if info.Plan.first_group > gi then
            issue "group %d writes array#%d before its acquire group %d" gi a
              info.Plan.first_group;
          if info.Plan.last_group < gi && not info.Plan.output then
            issue "group %d writes array#%d after its release group %d" gi a
              info.Plan.last_group;
          let need =
            full_len
              (concrete_sizes ~n:plan.Plan.n
                 (Pipeline.func plan.Plan.pipeline fid))
          in
          if need > info.Plan.len then
            issue "array#%d holds %d elements but %s needs %d" a info.Plan.len
              (fname fid) need;
          owner.(a) <- Some fid)
        writes)
    plan.Plan.groups;
  List.iter
    (fun (fid, a) ->
      if not plan.Plan.arrays.(a).Plan.output then
        issue "pipeline output %s mapped to non-output array#%d" (fname fid) a;
      match owner.(a) with
      | Some o when o = fid -> ()
      | Some o ->
        issue "array#%d ends holding %s, not pipeline output %s" a (fname o)
          (fname fid)
      | None -> issue "pipeline output %s is never written" (fname fid))
    plan.Plan.output_arrays

(* ---- scratchpad slot soundness ------------------------------------ *)
(* Within a tiled group, member [p]'s scratchpad must survive until its
   last in-group reader; a later member may only be remapped onto the
   same slot strictly after that. *)

let check_scratch (tg : Plan.tiled_group) ~add =
  let issue fmt = Printf.ksprintf add fmt in
  let nm = Array.length tg.Plan.members in
  let readers = Array.make nm [] in
  Array.iteri
    (fun q (m : Plan.member) ->
      Array.iter
        (function
          | Plan.P_member p -> readers.(p) <- q :: readers.(p)
          | Plan.P_array _ | Plan.P_input _ -> ())
        m.Plan.src_of)
    tg.Plan.members;
  for p = 0 to nm - 1 do
    if readers.(p) <> [] && tg.Plan.members.(p).Plan.scratch_slot = None then
      issue "group %d: %s is read in-group but has no scratchpad slot"
        tg.Plan.gid
        tg.Plan.members.(p).Plan.func.Func.name
  done;
  for p2 = 0 to nm - 1 do
    match tg.Plan.members.(p2).Plan.scratch_slot with
    | None -> ()
    | Some s2 ->
      if s2 < 0 || s2 >= Array.length tg.Plan.scratch_slot_len then
        issue "group %d: %s uses out-of-range scratch slot %d" tg.Plan.gid
          tg.Plan.members.(p2).Plan.func.Func.name s2
      else
        for p1 = 0 to p2 - 1 do
          if tg.Plan.members.(p1).Plan.scratch_slot = Some s2 then begin
            let last_read =
              List.fold_left Int.max p1 readers.(p1)
            in
            if last_read >= p2 then
              issue
                "group %d: scratch slot %d is overwritten by %s while %s \
                 is still read (last in-group reader at position %d)"
                tg.Plan.gid s2
                tg.Plan.members.(p2).Plan.func.Func.name
                tg.Plan.members.(p1).Plan.func.Func.name last_read
          end
        done
  done

(* ---- per-tile geometry: halo containment and scratch capacity ----- *)

let check_geometry (plan : Plan.t) (tg : Plan.tiled_group) ~add =
  let issue fmt = Printf.ksprintf add fmt in
  let capacity_flagged = Array.make (Array.length tg.Plan.scratch_slot_len) false in
  let halo_flagged = Hashtbl.create 8 in
  Array.iter
    (fun tile ->
      let req = Regions.demand tg.Plan.geom ~tile in
      Array.iteri
        (fun p (_, region) ->
          let m = tg.Plan.members.(p) in
          (match m.Plan.scratch_slot with
          | Some s when not (Box.is_empty region) && not capacity_flagged.(s)
            ->
            let need = Array.fold_left ( * ) 1 (Box.widths region) in
            if need > tg.Plan.scratch_slot_len.(s) then begin
              capacity_flagged.(s) <- true;
              issue
                "group %d: scratch slot %d holds %d elements but %s needs \
                 %d for tile %s"
                tg.Plan.gid s
                tg.Plan.scratch_slot_len.(s)
                m.Plan.func.Func.name need (Box.to_string tile)
            end
          | _ -> ());
          let compute = Box.inter region (Box.of_sizes m.Plan.sizes) in
          if not (Box.is_empty compute) then
            Array.iteri
              (fun i pid ->
                if not (Hashtbl.mem halo_flagged (m.Plan.func.Func.id, pid))
                then begin
                  let image =
                    Box.map_accesses (Func.accesses_to m.Plan.func pid)
                      compute
                  in
                  let bad box what =
                    if not (Box.contains box image) then begin
                      Hashtbl.replace halo_flagged
                        (m.Plan.func.Func.id, pid) ();
                      issue
                        "group %d: %s reads %s at %s, outside %s %s (tile \
                         %s)"
                        tg.Plan.gid m.Plan.func.Func.name
                        (Pipeline.func plan.Plan.pipeline pid).Func.name
                        (Box.to_string image) what (Box.to_string box)
                        (Box.to_string tile)
                    end
                  in
                  match m.Plan.src_of.(i) with
                  | Plan.P_member q ->
                    let _, producer_region = req.(q) in
                    bad producer_region "its computed scratch region"
                  | Plan.P_array _ | Plan.P_input _ ->
                    let psz =
                      concrete_sizes ~n:plan.Plan.n
                        (Pipeline.func plan.Plan.pipeline pid)
                    in
                    bad (Box.with_ghost psz) "its allocated halo box"
                end)
              m.Plan.compiled.Compile.producers)
        req)
    tg.Plan.tiles

let check_diamond (plan : Plan.t) (dg : Plan.diamond_group) ~add =
  let issue fmt = Printf.ksprintf add fmt in
  let interior = Box.of_sizes dg.Plan.sizes in
  let ghost = Box.with_ghost dg.Plan.sizes in
  Array.iteri
    (fun step (m : Plan.member) ->
      Array.iteri
        (fun i pid ->
          let image =
            Box.map_accesses (Func.accesses_to m.Plan.func pid) interior
          in
          if i = dg.Plan.prev_pos.(step) then begin
            if not (Box.contains ghost image) then
              issue
                "group %d step %d: %s reads the previous iterate at %s, \
                 outside the modulo-buffer halo %s"
                dg.Plan.gid step m.Plan.func.Func.name (Box.to_string image)
                (Box.to_string ghost)
          end
          else
            match m.Plan.src_of.(i) with
            | Plan.P_member _ ->
              issue "group %d step %d: unexpected scratch read in %s"
                dg.Plan.gid step m.Plan.func.Func.name
            | Plan.P_array _ | Plan.P_input _ ->
              let psz =
                concrete_sizes ~n:plan.Plan.n
                  (Pipeline.func plan.Plan.pipeline pid)
              in
              if not (Box.contains (Box.with_ghost psz) image) then
                issue
                  "group %d step %d: %s reads %s at %s, outside its halo \
                   box"
                  dg.Plan.gid step m.Plan.func.Func.name
                  (Pipeline.func plan.Plan.pipeline pid).Func.name
                  (Box.to_string image))
        m.Plan.compiled.Compile.producers)
    dg.Plan.steps

(* ---- native arena layout soundness -------------------------------- *)
(* The native kernel keeps every non-output array and every diamond
   modulo buffer at a fixed offset of one arena, where buffers share
   bytes.  Liveness is re-derived from the group sequence at byte
   granularity, not read from the layout's windows: each arena array
   tracks the bytes of the value it holds (a group writes the whole
   ghosted box of every array it publishes: the rim prefill and the
   tiles or chain cover it), a write clobbers every other array whose
   held bytes it overlaps, and every read must find its producer's
   value intact.  A group interleaves its reads and writes, so none of
   its writes may overlap bytes another of its buffers reads or writes:
   this keeps a modulo buffer off every array its chain touches.  Shared
   bytes make a read-before-write silent (it reads another array's live
   data, not zeros), so nothing at run time would catch what this
   misses. *)

type held = Holds of (int * int) | Clobbered of string * int

let check_arena (plan : Plan.t) (lay : C_emit.layout) ~fname ~add =
  let issue fmt = Printf.ksprintf add fmt in
  let arena = 8 * lay.C_emit.len in
  let range a fid =
    Option.map
      (fun off ->
        let f = Pipeline.func plan.Plan.pipeline fid in
        let len = full_len (concrete_sizes ~n:plan.Plan.n f) in
        (8 * off, 8 * (off + len)))
      lay.C_emit.array_off.(a)
  in
  let overlap (lo, hi) (lo', hi') = lo < hi' && lo' < hi in
  Array.iteri
    (fun a (info : Plan.array_info) ->
      if (not info.Plan.output) && lay.C_emit.array_off.(a) = None then
        issue "array#%d has no arena offset" a)
    plan.Plan.arrays;
  let state = Array.make (Array.length plan.Plan.arrays) None in
  Array.iteri
    (fun gi g ->
      let in_arena pairs =
        List.filter_map
          (fun (fid, a) -> Option.map (fun r -> (fid, a, r)) (range a fid))
          pairs
      in
      let reads = in_arena (List.sort_uniq compare (array_reads_of g)) in
      let array_writes = in_arena (writes_of g) in
      let dtmp =
        match g, lay.C_emit.dtmp_off.(gi) with
        | Plan.G_diamond dg, Some off ->
          let len = Repro_grid.Grid.ghosted_len dg.Plan.sizes in
          [ ( Printf.sprintf "group %d's modulo buffer" gi, None,
              (8 * off, 8 * (off + len)) ) ]
        | Plan.G_diamond _, None ->
          issue "group %d's modulo buffer has no arena offset" gi;
          []
        | Plan.G_tiled _, _ -> []
      in
      let writes =
        List.map
          (fun (fid, a, r) ->
            (Printf.sprintf "%s in array#%d" (fname fid) a, Some a, r))
          array_writes
        @ dtmp
      in
      List.iter
        (fun (what, _, (lo, hi)) ->
          if lo < 0 || hi > arena then
            issue
              "group %d writes %s at bytes [%d, %d), outside the %d-byte \
               arena"
              gi what lo hi arena)
        writes;
      List.iter
        (fun (pid, a, (lo, hi)) ->
          match state.(a) with
          | Some (Clobbered (by, g')) ->
            issue
              "group %d reads %s from array#%d at bytes [%d, %d), but group \
               %d wrote %s over them (arena aliasing)"
              gi (fname pid) a lo hi g' by
          | Some (Holds _) | None -> ())
        reads;
      List.iteri
        (fun i (what, wa, wr) ->
          List.iter
            (fun (pid, a, rr) ->
              if wa <> Some a && overlap wr rr then
                issue
                  "group %d writes %s over bytes of array#%d, from which it \
                   reads %s"
                  gi what a (fname pid))
            reads;
          List.iteri
            (fun j (what', wa', wr') ->
              if j > i && wa <> wa' && overlap wr wr' then
                issue "group %d writes %s and %s into overlapping arena bytes"
                  gi what what')
            writes)
        writes;
      List.iter
        (fun (what, wa, wr) ->
          Array.iteri
            (fun b st ->
              match st with
              | Some (Holds r) when wa <> Some b && overlap wr r ->
                state.(b) <- Some (Clobbered (what, gi))
              | _ -> ())
            state)
        writes;
      List.iter (fun (_, a, r) -> state.(a) <- Some (Holds r))
        array_writes)
    plan.Plan.groups

let check_layout (plan : Plan.t) lay =
  let issues = ref [] in
  let fname fid = (Pipeline.func plan.Plan.pipeline fid).Func.name in
  check_arena plan lay ~fname ~add:(fun s -> issues := s :: !issues);
  match List.rev !issues with [] -> Ok () | l -> Error l

(* ---- entry points -------------------------------------------------- *)

let check (plan : Plan.t) =
  Telemetry.add c_runs 1;
  let issues = ref [] in
  let add s = issues := s :: !issues in
  let fname fid = (Pipeline.func plan.Plan.pipeline fid).Func.name in
  check_arrays plan ~fname ~add;
  check_arena plan (C_emit.layout plan) ~fname ~add;
  Array.iter
    (fun g ->
      match g with
      | Plan.G_tiled tg ->
        check_scratch tg ~add;
        check_geometry plan tg ~add
      | Plan.G_diamond dg -> check_diamond plan dg ~add)
    plan.Plan.groups;
  match List.rev !issues with
  | [] -> Ok ()
  | l ->
    Telemetry.add c_issues (List.length l);
    Error l

let check_exn plan =
  match check plan with
  | Ok () -> ()
  | Error issues ->
    invalid_arg
      ("Plan_check: unsound plan:\n  " ^ String.concat "\n  " issues)

let build pipeline ~opts ~n ~params =
  let plan = Plan.build pipeline ~opts ~n ~params in
  if opts.Options.check_plan then check_exn plan;
  plan
