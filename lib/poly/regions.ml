open Repro_ir

type member = {
  func : Func.t;
  sizes : int array;
  rel : int array;
  liveout : bool;
}

type t = {
  pipeline : Pipeline.t;
  members : member array;  (* ascending id = topological order *)
  pos : (int, int) Hashtbl.t;  (* func id -> index in members *)
  (* in-group consumer edges: for each member position, the list of
     (consumer position, accesses) pairs *)
  in_edges : (int * Expr.access array list) list array;
}

let members t = t.members
let reference t = t.members.(Array.length t.members - 1)

(* log2 of a positive power of two *)
let log2 d =
  let rec go acc d = if d = 1 then acc else go (acc + 1) (d / 2) in
  go 0 d

let ( let* ) r f = Result.bind r f

let rel_levels ~(reference : Func.t) (f : Func.t) =
  let d = f.Func.dims in
  let rel = Array.make d 0 in
  let rec check k =
    if k = d then Ok rel
    else
      let sr = reference.Func.sizes.(k) and sf = f.Func.sizes.(k) in
      let open Sizeexpr in
      if is_const sr <> is_const sf then
        Error (f.Func.name ^ ": size not scalable against group reference")
      else if is_const sr then
        if equal sr sf then check (k + 1)
        else Error (f.Func.name ^ ": constant size differs from reference")
      else begin
        rel.(k) <- log2 sr.den - log2 sf.den;
        (* validate the whole coarsen/refine chain matches *)
        let rec chain s steps =
          if steps = 0 then s
          else if steps > 0 then chain (refine s) (steps - 1)
          else chain (coarsen s) (steps + 1)
        in
        match chain sr rel.(k) with
        | s when equal s sf -> check (k + 1)
        | _ -> Error (f.Func.name ^ ": size chain does not match reference")
        | exception Invalid_argument _ ->
          Error (f.Func.name ^ ": size chain does not match reference")
      end
  in
  check 0

let build pipeline ~n ~members:ids ~liveouts =
  match List.sort_uniq Int.compare ids with
  | [] -> Error "Regions.build: empty group"
  | sorted ->
    let fs = List.map (Pipeline.func pipeline) sorted in
    let refr = List.nth fs (List.length fs - 1) in
    if Func.is_input refr then Error "Regions.build: reference is an input"
    else begin
      let* ms =
        List.fold_left
          (fun acc f ->
            let* acc = acc in
            if Func.is_input f then
              Error (f.Func.name ^ ": inputs cannot be group members")
            else if f.Func.dims <> refr.Func.dims then
              Error (f.Func.name ^ ": rank differs from reference")
            else
              let* rel = rel_levels ~reference:refr f in
              let sizes =
                Array.map (fun s -> Sizeexpr.eval ~n s) f.Func.sizes
              in
              Array.iter
                (fun s ->
                  if s < 1 then invalid_arg "Regions.build: empty domain")
                sizes;
              Ok
                ({ func = f; sizes; rel;
                   liveout = List.mem f.Func.id liveouts }
                 :: acc))
          (Ok []) fs
      in
      let members = Array.of_list (List.rev ms) in
      let pos = Hashtbl.create 16 in
      Array.iteri (fun i m -> Hashtbl.replace pos m.func.Func.id i) members;
      let in_edges = Array.make (Array.length members) [] in
      Array.iteri
        (fun ci cm ->
          List.iter
            (fun pid ->
              match Hashtbl.find_opt pos pid with
              | None -> ()  (* producer outside the group: a live-in *)
              | Some pi ->
                let accs = Func.accesses_to cm.func pid in
                in_edges.(pi) <- (ci, accs) :: in_edges.(pi))
            (Func.producers cm.func))
        members;
      let t = { pipeline; members; pos; in_edges } in
      (* the last member must be the reference used for rel levels *)
      ignore (reference t);
      Ok t
    end

(* Boundary maps between resolution levels, acting on boundary coordinates
   x in [0 .. size]: refining maps x to 2x except the top boundary which
   maps to the refined size; coarsening is floor halving. *)
let map_boundary ~ref_size ~rel x =
  if rel = 0 then x
  else if rel > 0 then begin
    let x = ref x and sz = ref ref_size in
    for _ = 1 to rel do
      x := (if !x = !sz then (2 * !sz) + 1 else 2 * !x);
      sz := (2 * !sz) + 1
    done;
    !x
  end
  else begin
    let x = ref x in
    for _ = 1 to -rel do
      x := !x / 2
    done;
    !x
  end

let own_slice t id ~tile =
  match Hashtbl.find_opt t.pos id with
  | None -> invalid_arg "Regions.own_slice: not a member"
  | Some p ->
    let m = t.members.(p) in
    let r = reference t in
    if Box.is_empty tile then Box.empty (Array.length m.sizes)
    else
      let d = Array.length m.sizes in
      let lo = Array.make d 0 and hi = Array.make d 0 in
      for k = 0 to d - 1 do
        let g x = map_boundary ~ref_size:r.sizes.(k) ~rel:m.rel.(k) x in
        lo.(k) <- g (tile.Box.lo.(k) - 1) + 1;
        hi.(k) <- g tile.Box.hi.(k)
      done;
      Box.v ~lo ~hi

let demand t ~tile =
  let nm = Array.length t.members in
  let req = Array.make nm (Box.empty 0) in
  (* reverse execution order: consumers before producers *)
  for p = nm - 1 downto 0 do
    let m = t.members.(p) in
    let base =
      if m.liveout || p = nm - 1 then own_slice t m.func.Func.id ~tile
      else Box.empty (Array.length m.sizes)
    in
    let with_consumers =
      List.fold_left
        (fun acc (ci, accs) -> Box.hull acc (Box.map_accesses accs req.(ci)))
        base t.in_edges.(p)
    in
    req.(p) <- Box.inter with_consumers (Box.with_ghost m.sizes)
  done;
  Array.mapi (fun p b -> (t.members.(p).func.Func.id, b)) req

let tiles t ~tile_sizes =
  let r = reference t in
  let d = Array.length r.sizes in
  if Array.length tile_sizes <> d then
    invalid_arg "Regions.tiles: rank mismatch";
  Array.iter
    (fun ts -> if ts < 1 then invalid_arg "Regions.tiles: tile size < 1")
    tile_sizes;
  let counts =
    Array.init d (fun k -> (r.sizes.(k) + tile_sizes.(k) - 1) / tile_sizes.(k))
  in
  let total = Array.fold_left ( * ) 1 counts in
  Array.init total (fun flat ->
      let idx = Array.make d 0 in
      let rem = ref flat in
      for k = d - 1 downto 0 do
        idx.(k) <- !rem mod counts.(k);
        rem := !rem / counts.(k)
      done;
      let lo = Array.init d (fun k -> 1 + (idx.(k) * tile_sizes.(k))) in
      let hi =
        Array.init d (fun k ->
            Int.min r.sizes.(k) ((idx.(k) + 1) * tile_sizes.(k)))
      in
      Box.full lo hi)

let scratch_extents t ~tile_sizes =
  let all = tiles t ~tile_sizes in
  let nm = Array.length t.members in
  let ext = Array.make nm [||] in
  Array.iter
    (fun tile ->
      let req = demand t ~tile in
      Array.iteri
        (fun p (_, b) ->
          let w = Box.widths b in
          if ext.(p) = [||] then ext.(p) <- w
          else ext.(p) <- Array.mapi (fun k e -> Int.max e w.(k)) ext.(p))
        req)
    all;
  Array.to_list
    (Array.mapi (fun p e -> (t.members.(p).func.Func.id, e)) ext)

let redundancy t ~tile_sizes =
  let all = tiles t ~tile_sizes in
  let computed = ref 0 in
  Array.iter
    (fun tile ->
      Array.iter (fun (_, b) -> computed := !computed + Box.points b)
        (demand t ~tile))
    all;
  let domain =
    Array.fold_left
      (fun acc m -> acc + Box.points (Box.of_sizes m.sizes))
      0 t.members
  in
  (float_of_int !computed /. float_of_int domain) -. 1.0
