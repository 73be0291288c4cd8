open Repro_ir
open Repro_poly

type group = {
  members : int list;
  liveouts : int list;
  diamond : bool;
}

let liveouts_of pipeline ~members =
  List.filter
    (fun id ->
      match Pipeline.consumers pipeline id with
      | [] -> true  (* consumer-less stages are still materialized *)
      | consumers ->
        Pipeline.is_liveout pipeline id
        || List.exists (fun c -> not (List.mem c members)) consumers)
    members

let tile_sizes_for (opts : Options.t) ~dims =
  match dims with
  | 2 -> opts.Options.tile_2d
  | 3 -> opts.Options.tile_3d
  | 1 -> [| opts.Options.tile_2d.(1) |]
  | _ -> invalid_arg "Grouping.tile_sizes_for: unsupported rank"

(* Maximal chains of Smooth stages linked v_{t} -> v_{t+1}, of length >= 2:
   the candidates for diamond time tiling. *)
let smoother_chains pipeline =
  let funcs = Pipeline.funcs pipeline in
  let chains = ref [] in
  let in_chain = Hashtbl.create 16 in
  Array.iter
    (fun (f : Func.t) ->
      match f.Func.kind with
      | Func.Smooth { step = 0; total } when total >= 2 ->
        (* Follow the chain forward; it extends only while the current
           step's sole consumer is the next smoothing step (an extra
           consumer would need the intermediate value stored, which the
           diamond modulo buffers cannot provide). *)
        let rec follow (cur : Func.t) acc =
          match Pipeline.consumers pipeline cur.Func.id with
          | [ cid ] when not (Pipeline.is_liveout pipeline cur.Func.id) -> (
            let c = Pipeline.func pipeline cid in
            match c.Func.kind with
            | Func.Smooth { step = s; _ } when s > 0 ->
              follow c (c.Func.id :: acc)
            | Func.Smooth _ | Func.Input | Func.Pointwise
            | Func.Restriction | Func.Interpolation ->
              List.rev acc)
          | [] | _ :: _ -> List.rev acc
        in
        let chain = follow f [ f.Func.id ] in
        if List.length chain >= 2 then begin
          List.iter (fun id -> Hashtbl.replace in_chain id ()) chain;
          chains := chain :: !chains
        end
      | Func.Smooth _ | Func.Input | Func.Pointwise | Func.Restriction
      | Func.Interpolation ->
        ())
    funcs;
  (List.rev !chains, in_chain)

(* Union-find over group indices. *)
module Uf = struct
  let create n = Array.init n Fun.id

  let rec find t i = if t.(i) = i then i else (t.(i) <- find t t.(i); t.(i))

  let union t a b =
    let ra = find t a and rb = find t b in
    if ra <> rb then t.(ra) <- rb
end

(* The largest redundant-computation fraction a fused group may carry. *)
let max_redundancy = 0.6

let can_tile pipeline ~opts ~n ~members =
  let liveouts = liveouts_of pipeline ~members in
  match Regions.build pipeline ~n ~members ~liveouts with
  | Error _ -> false
  | Ok geom ->
    let dims = (Regions.reference geom).Regions.func.Func.dims in
    let tile_sizes = tile_sizes_for opts ~dims in
    (try Regions.redundancy geom ~tile_sizes <= max_redundancy
     with Invalid_argument _ -> false)

let run pipeline ~(opts : Options.t) ~n =
  let funcs = Pipeline.funcs pipeline in
  let nfuncs = Array.length funcs in
  let diamond_chains, in_chain =
    match opts.Options.smoother with
    | Options.Diamond_smoother _ | Options.Skewed_smoother _ ->
      smoother_chains pipeline
    | Options.Overlapped_smoother -> ([], Hashtbl.create 1)
  in
  let uf = Uf.create nfuncs in
  (* fix diamond chains as their own groups *)
  List.iter
    (fun chain ->
      match chain with
      | [] -> ()
      | first :: rest -> List.iter (fun id -> Uf.union uf id first) rest)
    diamond_chains;
  let stage_ids =
    Array.to_list funcs
    |> List.filter_map (fun (f : Func.t) ->
           if Func.is_input f then None else Some f.Func.id)
  in
  let members_of root =
    List.filter (fun id -> Uf.find uf id = root) stage_ids
  in
  let mergeable id = not (Hashtbl.mem in_chain id) in
  if opts.Options.fuse then begin
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun id ->
          let root = Uf.find uf id in
          if root = id && mergeable id then begin
            let members = members_of root in
            if List.length members > 0 && List.for_all mergeable members
            then begin
              (* distinct consumer groups of this group *)
              let consumer_roots =
                List.concat_map
                  (fun m ->
                    List.filter_map
                      (fun c ->
                        let r = Uf.find uf c in
                        if r = root then None else Some r)
                      (Pipeline.consumers pipeline m))
                  members
                |> List.sort_uniq Int.compare
              in
              match consumer_roots with
              | [ c ] when List.for_all mergeable (members_of c) ->
                let merged =
                  List.sort_uniq Int.compare (members @ members_of c)
                in
                if
                  List.length merged <= opts.Options.group_size_limit
                  && can_tile pipeline ~opts ~n ~members:merged
                then begin
                  Uf.union uf root c;
                  changed := true
                end
              | [] | _ :: _ -> ()
            end
          end)
        stage_ids
    done
  end;
  (* collect groups *)
  let roots =
    List.sort_uniq Int.compare (List.map (Uf.find uf) stage_ids)
  in
  let raw_groups =
    List.map
      (fun root ->
        let members = members_of root in
        { members;
          liveouts = liveouts_of pipeline ~members;
          diamond =
            (match members with
             | m :: _ -> Hashtbl.mem in_chain m
             | [] -> false) })
      roots
  in
  (* topological order of the group DAG (Kahn) *)
  let idx_of = Hashtbl.create 16 in
  List.iteri
    (fun i g -> List.iter (fun m -> Hashtbl.replace idx_of m i) g.members)
    raw_groups;
  let garr = Array.of_list raw_groups in
  let ng = Array.length garr in
  let succs = Array.make ng [] and indeg = Array.make ng 0 in
  Array.iteri
    (fun gi g ->
      let outs =
        List.concat_map
          (fun m ->
            List.filter_map
              (fun c ->
                match Hashtbl.find_opt idx_of c with
                | Some ci when ci <> gi -> Some ci
                | Some _ | None -> None)
              (Pipeline.consumers pipeline m))
          g.members
        |> List.sort_uniq Int.compare
      in
      succs.(gi) <- outs;
      List.iter (fun ci -> indeg.(ci) <- indeg.(ci) + 1) outs)
    garr;
  let order = ref [] in
  let queue = Queue.create () in
  Array.iteri (fun gi d -> if d = 0 then Queue.add gi queue) indeg;
  while not (Queue.is_empty queue) do
    let gi = Queue.pop queue in
    order := gi :: !order;
    List.iter
      (fun ci ->
        indeg.(ci) <- indeg.(ci) - 1;
        if indeg.(ci) = 0 then Queue.add ci queue)
      succs.(gi)
  done;
  let order = List.rev !order in
  if List.length order <> ng then
    invalid_arg "Grouping.run: cyclic group graph";
  List.map (fun gi -> garr.(gi)) order
