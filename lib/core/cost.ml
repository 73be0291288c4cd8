open Repro_ir
open Repro_poly

type stage = {
  name : string;
  gid : int;
  points : int;
  domain : int;
  flops_per_point : float;
  flops : float;
  useful_flops : float;
  dram_read : int;
  dram_write : int;
  scratch_read : int;
  scratch_write : int;
}

type group = {
  g_gid : int;
  kind : [ `Tiled | `Diamond ];
  stage_names : string list;
  working_set : int;
  fits_in : string;
  redundancy : float;
}

type t = {
  stages : stage array;
  groups : group array;
  dram_read : int;
  dram_write : int;
  scratch_traffic : int;
  flops : float;
  useful_flops : float;
  intensity : float;
}

(* The cache hierarchy a group's working set is placed in, smallest
   first: [fits_in] names the first level that holds it. *)
let cache_levels =
  [ ("L1", 32 * 1024); ("L2", 1024 * 1024); ("L3", 32 * 1024 * 1024) ]

let word = 8

(* ------------------------------------------------------------------ *)
(* FLOPs per point: the walk-form accounting of Compile — one
   multiply-add per linear-stencil term, one add for a nonzero base; a
   general-fallback case costs its expression's op count.  Parity cases
   each cover exactly 1/|cases| of the lattice. *)

let flops_per_point (m : Plan.member) =
  let exprs = Func.defn_exprs m.Plan.func in
  let cases = m.Plan.compiled.Compile.cases in
  let ncases = List.length cases in
  if ncases = 0 then 0.0
  else begin
    let case_flops (c : Compile.case_t) expr =
      match c.Compile.kernel with
      | Compile.Lin { base; terms } ->
        float_of_int ((2 * Array.length terms) + (if base <> 0.0 then 1 else 0))
      | Compile.Gen _ -> (
        match expr with
        | Some e -> float_of_int (Expr.op_count e)
        | None -> 0.0)
    in
    let rec zip cs es acc =
      match cs with
      | [] -> acc
      | c :: cs' ->
        let e, es' = match es with e :: tl -> (Some e, tl) | [] -> (None, []) in
        zip cs' es' (acc +. case_flops c e)
    in
    zip cases exprs 0.0 /. float_of_int ncases
  end

(* Compulsory read footprint of binding [i] of a member: the image of
   all its accesses to that producer over the member's interior. *)
let read_bytes (m : Plan.member) i =
  let pid = m.Plan.compiled.Compile.producers.(i) in
  let interior = Box.of_sizes m.Plan.sizes in
  let fp = Box.map_accesses (Func.accesses_to m.Plan.func pid) interior in
  word * Box.points fp

(* ------------------------------------------------------------------ *)

let tiled_stage gid (tg : Plan.tiled_group) ~computed p =
  let m = tg.Plan.members.(p) in
  let domain = Box.points (Box.of_sizes m.Plan.sizes) in
  let points = computed.(p) in
  let dram_read = ref 0 and scratch_read = ref 0 in
  Array.iteri
    (fun i src ->
      let bytes = read_bytes m i in
      match src with
      | Plan.P_input _ | Plan.P_array _ -> dram_read := !dram_read + bytes
      | Plan.P_member _ -> scratch_read := !scratch_read + bytes)
    m.Plan.src_of;
  let dram_write = ref 0 and scratch_write = ref 0 in
  (match (m.Plan.scratch_slot, m.Plan.array_id) with
   | Some _, Some _ ->
     (* computes into scratch, then copies its own slice out to DRAM *)
     scratch_write := word * points;
     scratch_read := !scratch_read + (word * domain);
     dram_write := word * domain
   | Some _, None -> scratch_write := word * points
   | None, Some _ -> dram_write := word * domain
   | None, None -> ());
  let fpp = flops_per_point m in
  { name = m.Plan.func.Func.name;
    gid;
    points;
    domain;
    flops_per_point = fpp;
    flops = fpp *. float_of_int points;
    useful_flops = fpp *. float_of_int domain;
    dram_read = !dram_read;
    dram_write = !dram_write;
    scratch_read = !scratch_read;
    scratch_write = !scratch_write }

let diamond_stage gid (dg : Plan.diamond_group) step =
  let m = dg.Plan.steps.(step) in
  let domain = Box.points (Box.of_sizes m.Plan.sizes) in
  let nsteps = Array.length dg.Plan.steps in
  let dram_read = ref 0 and scratch_read = ref 0 in
  Array.iteri
    (fun i src ->
      let bytes = read_bytes m i in
      if i = dg.Plan.prev_pos.(step) then
        if step = 0 then begin
          (* the initial iterate comes from DRAM (input or full array) *)
          match dg.Plan.init_src with
          | Some (Plan.P_input _ | Plan.P_array _) ->
            dram_read := !dram_read + bytes
          | Some (Plan.P_member _) | None -> ()
        end
        else scratch_read := !scratch_read + bytes
      else begin
        match src with
        | Plan.P_input _ | Plan.P_array _ -> dram_read := !dram_read + bytes
        | Plan.P_member _ -> scratch_read := !scratch_read + bytes
      end)
    m.Plan.src_of;
  let last = step = nsteps - 1 in
  let fpp = flops_per_point m in
  { name = m.Plan.func.Func.name;
    gid;
    points = domain;
    domain;
    flops_per_point = fpp;
    flops = fpp *. float_of_int domain;
    useful_flops = fpp *. float_of_int domain;
    dram_read = !dram_read;
    dram_write = (if last then word * domain else 0);
    scratch_read = !scratch_read;
    scratch_write = (if last then 0 else word * domain) }

(* ------------------------------------------------------------------ *)

let input_bytes plan idx =
  let fid = plan.Plan.inputs.(idx) in
  let f = Pipeline.func plan.Plan.pipeline fid in
  let sizes =
    Array.map (fun s -> Sizeexpr.eval ~n:plan.Plan.n s) f.Func.sizes
  in
  word * Repro_grid.Grid.ghosted_len sizes

let group_members (g : Plan.group_exec) =
  match g with
  | Plan.G_tiled tg -> tg.Plan.members
  | Plan.G_diamond dg -> dg.Plan.steps

let working_set plan gi (g : Plan.group_exec) =
  (* arrays live across this group *)
  let arrays =
    Array.fold_left
      (fun acc (a : Plan.array_info) ->
        if a.Plan.first_group <= gi && (a.Plan.output || a.Plan.last_group >= gi)
        then acc + (word * a.Plan.len)
        else acc)
      0 plan.Plan.arrays
  in
  (* one thread's scratchpads (tiled) or the modulo buffer (diamond) *)
  let scratch =
    match g with
    | Plan.G_tiled tg ->
      word * Array.fold_left ( + ) 0 tg.Plan.scratch_slot_len
    | Plan.G_diamond dg -> word * Repro_grid.Grid.ghosted_len dg.Plan.sizes
  in
  (* distinct pipeline inputs this group reads *)
  let inputs = Hashtbl.create 4 in
  Array.iter
    (fun (m : Plan.member) ->
      Array.iter
        (fun src ->
          match src with
          | Plan.P_input idx -> Hashtbl.replace inputs idx ()
          | Plan.P_array _ | Plan.P_member _ -> ())
        m.Plan.src_of)
    (group_members g);
  let input_ws =
    Hashtbl.fold (fun idx () acc -> acc + input_bytes plan idx) inputs 0
  in
  arrays + scratch + input_ws

let fits_in ws =
  match List.find_opt (fun (_, bytes) -> ws <= bytes) cache_levels with
  | Some (name, _) -> name
  | None -> "DRAM"

let of_plan (plan : Plan.t) =
  let stages = ref [] and groups = ref [] in
  Array.iteri
    (fun gi g ->
      (match g with
       | Plan.G_tiled tg ->
         (* per-member computed points: demand regions summed over tiles *)
         let nm = Array.length tg.Plan.members in
         let computed = Array.make nm 0 in
         Array.iter
           (fun tile ->
             let req = Regions.demand tg.Plan.geom ~tile in
             Array.iteri
               (fun p (_, b) -> computed.(p) <- computed.(p) + Box.points b)
               req)
           tg.Plan.tiles;
         for p = 0 to nm - 1 do
           stages := tiled_stage gi tg ~computed p :: !stages
         done
       | Plan.G_diamond dg ->
         for step = 0 to Array.length dg.Plan.steps - 1 do
           stages := diamond_stage gi dg step :: !stages
         done);
      let ws = working_set plan gi g in
      let kind, redundancy =
        match g with
        | Plan.G_tiled tg ->
          (`Tiled, Regions.redundancy tg.Plan.geom ~tile_sizes:tg.Plan.tile_sizes)
        | Plan.G_diamond _ -> (`Diamond, 0.0)
      in
      groups :=
        { g_gid = gi;
          kind;
          stage_names =
            Array.to_list
              (Array.map
                 (fun (m : Plan.member) -> m.Plan.func.Func.name)
                 (group_members g));
          working_set = ws;
          fits_in = fits_in ws;
          redundancy }
        :: !groups)
    plan.Plan.groups;
  let stages = Array.of_list (List.rev !stages) in
  let groups = Array.of_list (List.rev !groups) in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 stages in
  let sumf f = Array.fold_left (fun acc s -> acc +. f s) 0.0 stages in
  let dram_read = sum (fun s -> s.dram_read) in
  let dram_write = sum (fun s -> s.dram_write) in
  let flops = sumf (fun s -> s.flops) in
  let dram = dram_read + dram_write in
  { stages;
    groups;
    dram_read;
    dram_write;
    scratch_traffic = sum (fun s -> s.scratch_read + s.scratch_write);
    flops;
    useful_flops = sumf (fun s -> s.useful_flops);
    intensity = (if dram = 0 then infinity else flops /. float_of_int dram) }

let stage_bytes (s : stage) = s.dram_read + s.dram_write

let stage_intensity (s : stage) =
  let b = stage_bytes s in
  if b = 0 then infinity else s.flops /. float_of_int b

let total_bytes t = t.dram_read + t.dram_write

(* ------------------------------------------------------------------ *)

let mb x = float_of_int x /. 1048576.0

let pp fmt t =
  Format.fprintf fmt "@[<v>== cost model: stages ==@,";
  Format.fprintf fmt "%-16s %4s %10s %8s %10s %10s %10s %7s@," "stage" "gid"
    "points" "flop/pt" "dram rd" "dram wr" "scratch" "flop/B";
  Array.iter
    (fun (s : stage) ->
      let ai = stage_intensity s in
      Format.fprintf fmt "%-16s %4d %10d %8.1f %9.2fM %9.2fM %9.2fM %7s@,"
        s.name s.gid s.points s.flops_per_point (mb s.dram_read)
        (mb s.dram_write)
        (mb (s.scratch_read + s.scratch_write))
        (if Float.is_finite ai then Printf.sprintf "%.2f" ai else "inf"))
    t.stages;
  Format.fprintf fmt "== cost model: groups ==@,";
  Array.iter
    (fun (g : group) ->
      Format.fprintf fmt
        "group %d (%s): working set %.2f MiB (fits %s), redundancy %.2f%%, \
         stages [%s]@,"
        g.g_gid
        (match g.kind with `Tiled -> "tiled" | `Diamond -> "diamond")
        (mb g.working_set) g.fits_in
        (100.0 *. g.redundancy)
        (String.concat " " g.stage_names))
    t.groups;
  Format.fprintf fmt "== cost model: totals ==@,";
  Format.fprintf fmt
    "dram read %.2f MiB  write %.2f MiB  scratch traffic %.2f MiB@,"
    (mb t.dram_read) (mb t.dram_write) (mb t.scratch_traffic);
  Format.fprintf fmt
    "flops %.1fM (useful %.1fM)  arithmetic intensity %.3f flop/byte@,"
    (t.flops /. 1e6) (t.useful_flops /. 1e6)
    t.intensity;
  Format.fprintf fmt "@]"
