open Repro_ir
open Repro_poly

type producer_src =
  | P_input of int
  | P_array of int
  | P_member of int

type member = {
  func : Func.t;
  compiled : Compile.t;
  sizes : int array;
  scratch_slot : int option;
  array_id : int option;
  src_of : producer_src array;
}

type tiled_group = {
  gid : int;
  geom : Regions.t;
  members : member array;
  tile_sizes : int array;
  tiles : Box.t array;
  scratch_slot_len : int array;
}

type time_scheme =
  | Sched_diamond of { sigma : int }
  | Sched_skewed of { tau : int; sigma : int }

type diamond_group = {
  gid : int;
  steps : member array;
  scheme : time_scheme;
  sizes : int array;
  prev_pos : int array;
  init_src : producer_src option;
}

type group_exec =
  | G_tiled of tiled_group
  | G_diamond of diamond_group

type array_info = {
  len : int;
  first_group : int;
  last_group : int;
  output : bool;
}

type t = {
  uid : int;
  pipeline : Pipeline.t;
  opts : Options.t;
  n : int;
  groups : group_exec array;
  arrays : array_info array;
  inputs : int array;
  output_arrays : (int * int) list;
  params : (string * float) list;
}

let uid_counter = Atomic.make 0

let concrete_sizes ~n (f : Func.t) =
  Array.map (fun s -> Sizeexpr.eval ~n s) f.Func.sizes

(* Unfused plans chunk the outer loop into this many rows per parallel
   chunk, like the paper's plain [parallel for] over the outer dimension. *)
let chunk_rows = 128

(* Scratchpad extents are rounded up to this many elements per dimension
   before storage classes are formed, so near-equal tiles share a slot. *)
let scratch_class_quantum = 32

let quantize e =
  (e + scratch_class_quantum - 1) / scratch_class_quantum
  * scratch_class_quantum

(* Every access made from a stage's interior must land inside the
   producer's domain-plus-ghost box: grids carry exactly one ghost layer,
   so e.g. unit-scale stencils must have radius <= 1. *)
let validate_footprints pipeline ~n =
  Array.iter
    (fun (f : Func.t) ->
      if not (Func.is_input f) then begin
        let interior = Box.of_sizes (concrete_sizes ~n f) in
        List.iter
          (fun pid ->
            let p = Pipeline.func pipeline pid in
            let ghost = Box.with_ghost (concrete_sizes ~n p) in
            let image =
              Box.map_accesses (Func.accesses_to f pid) interior
            in
            if not (Box.contains ghost image) then
              invalid_arg
                (Printf.sprintf
                   "Plan.build: %s reads %s outside its ghost zone (%s vs %s)"
                   f.Func.name p.Func.name (Box.to_string image)
                   (Box.to_string ghost)))
          (Func.producers f)
      end)
    (Pipeline.funcs pipeline)

let build pipeline ~(opts : Options.t) ~n ~params =
  validate_footprints pipeline ~n;
  let groups = Grouping.run pipeline ~opts ~n in
  let ngroups = List.length groups in
  (* topological index of the group producing each stage *)
  let group_of = Hashtbl.create 64 in
  List.iteri
    (fun gi (g : Grouping.group) ->
      List.iter (fun m -> Hashtbl.replace group_of m gi) g.Grouping.members)
    groups;
  let inputs =
    Pipeline.inputs pipeline
    |> List.map (fun (f : Func.t) -> f.Func.id)
    |> Array.of_list
  in
  let input_index = Hashtbl.create 8 in
  Array.iteri (fun i id -> Hashtbl.replace input_index id i) inputs;
  (* ---- full-array storage mapping over live-outs ---- *)
  let all_liveouts =
    List.concat_map (fun (g : Grouping.group) -> g.Grouping.liveouts) groups
    |> List.sort_uniq Int.compare
  in
  let outputs = Pipeline.outputs pipeline in
  let reusable = List.filter (fun id -> not (List.mem id outputs)) all_liveouts in
  let time id = Hashtbl.find group_of id in
  let last_use id =
    List.fold_left
      (fun acc c ->
        match Hashtbl.find_opt group_of c with
        | Some gc -> Int.max acc gc
        | None -> acc)
      (time id)
      (Pipeline.consumers pipeline id)
  in
  let cls id =
    let f = Pipeline.func pipeline id in
    Array.map
      (fun (s : Sizeexpr.t) -> (s.Sizeexpr.num, s.Sizeexpr.den))
      f.Func.sizes
  in
  let storage, base_count =
    if opts.Options.array_reuse then
      Storage.remap ~ids:reusable ~time ~last_use ~cls
    else Storage.no_reuse ~ids:reusable
  in
  (* dedicated slots for pipeline outputs *)
  let next = ref base_count in
  List.iter
    (fun id ->
      Hashtbl.replace storage id !next;
      incr next)
    outputs;
  let array_count = !next in
  let arrays =
    Array.init array_count (fun _ ->
        { len = 0; first_group = max_int; last_group = min_int; output = false })
  in
  List.iter
    (fun id ->
      let slot = Hashtbl.find storage id in
      let f = Pipeline.func pipeline id in
      let len = Repro_grid.Grid.ghosted_len (concrete_sizes ~n f) in
      let is_out = List.mem id outputs in
      let a = arrays.(slot) in
      arrays.(slot) <-
        { len = Int.max a.len len;
          first_group = Int.min a.first_group (time id);
          last_group =
            (if is_out then max_int else Int.max a.last_group (last_use id));
          output = a.output || is_out })
    all_liveouts;
  let array_of_func id =
    match Hashtbl.find_opt storage id with
    | Some s -> s
    | None -> invalid_arg "Plan.build: stage without array storage"
  in
  (* ---- per-group construction ---- *)
  let build_tiled gid (g : Grouping.group) =
    let liveouts = g.Grouping.liveouts in
    let geom =
      match
        Regions.build pipeline ~n ~members:g.Grouping.members ~liveouts
      with
      | Ok geom -> geom
      | Error msg -> invalid_arg ("Plan.build: " ^ msg)
    in
    let rmembers = Regions.members geom in
    let dims = (Regions.reference geom).Regions.func.Func.dims in
    let tile_sizes =
      if opts.Options.fuse then Grouping.tile_sizes_for opts ~dims
      else begin
        (* naive: chunk the outer dimension only *)
        let ref_sizes = (Regions.reference geom).Regions.sizes in
        Array.init dims (fun k ->
            if k = 0 then Int.min chunk_rows ref_sizes.(0)
            else ref_sizes.(k))
      end
    in
    let tiles = Regions.tiles geom ~tile_sizes in
    let extents = Regions.scratch_extents geom ~tile_sizes in
    let member_ids = Array.map (fun m -> m.Regions.func.Func.id) rmembers in
    let pos_of_id = Hashtbl.create 8 in
    Array.iteri (fun p id -> Hashtbl.replace pos_of_id id p) member_ids;
    (* members needing scratch: read by another member of this group *)
    let needs_scratch id =
      List.exists
        (fun c -> Hashtbl.mem pos_of_id c)
        (Pipeline.consumers pipeline id)
    in
    let scratch_ids =
      Array.to_list member_ids |> List.filter needs_scratch
    in
    let s_time id = Hashtbl.find pos_of_id id in
    let s_last_use id =
      List.fold_left
        (fun acc c ->
          match Hashtbl.find_opt pos_of_id c with
          | Some p -> Int.max acc p
          | None -> acc)
        (s_time id)
        (Pipeline.consumers pipeline id)
    in
    let ext_of id = List.assoc id extents in
    let s_cls id = Array.map quantize (ext_of id) in
    let s_storage, s_count =
      if opts.Options.scratch_reuse then
        Storage.remap ~ids:scratch_ids ~time:s_time ~last_use:s_last_use
          ~cls:s_cls
      else Storage.no_reuse ~ids:scratch_ids
    in
    let scratch_slot_len = Array.make s_count 0 in
    List.iter
      (fun id ->
        let slot = Hashtbl.find s_storage id in
        let len = Array.fold_left ( * ) 1 (ext_of id) in
        scratch_slot_len.(slot) <- Int.max scratch_slot_len.(slot) len)
      scratch_ids;
    let members =
      Array.map
        (fun (rm : Regions.member) ->
          let f = rm.Regions.func in
          let compiled = Compile.compile f ~params in
          let src_of =
            Array.map
              (fun pid ->
                match Hashtbl.find_opt input_index pid with
                | Some i -> P_input i
                | None -> (
                  match Hashtbl.find_opt pos_of_id pid with
                  | Some p when Hashtbl.mem s_storage pid -> P_member p
                  | Some _ ->
                    invalid_arg
                      "Plan.build: in-group producer without scratchpad"
                  | None -> P_array (array_of_func pid)))
              compiled.Compile.producers
          in
          { func = f;
            compiled;
            sizes = rm.Regions.sizes;
            scratch_slot = Hashtbl.find_opt s_storage f.Func.id;
            array_id =
              (if rm.Regions.liveout then Some (array_of_func f.Func.id)
               else None);
            src_of })
        rmembers
    in
    G_tiled { gid; geom; members; tile_sizes; tiles; scratch_slot_len }
  in
  let build_diamond gid (g : Grouping.group) =
    let scheme =
      match opts.Options.smoother with
      | Options.Diamond_smoother { sigma } -> Sched_diamond { sigma }
      | Options.Skewed_smoother { tau; sigma } -> Sched_skewed { tau; sigma }
      | Options.Overlapped_smoother ->
        invalid_arg "Plan.build: time-tiled group without such a smoother"
    in
    let chain = List.map (Pipeline.func pipeline) g.Grouping.members in
    let sizes =
      match chain with
      | f :: _ -> concrete_sizes ~n f
      | [] -> invalid_arg "Plan.build: empty diamond group"
    in
    let chain_arr = Array.of_list chain in
    let nsteps = Array.length chain_arr in
    let prev_id_of step =
      if step = 0 then None else Some chain_arr.(step - 1).Func.id
    in
    (* init: the producer of step 0 that plays the role of the previous
       iterate.  It is the producer of step 0 that is not among the
       non-prev producers of step 1 (all steps share the same defn). *)
    let init_id =
      if nsteps >= 2 then begin
        let step1_others =
          List.filter
            (fun p -> p <> chain_arr.(0).Func.id)
            (Func.producers chain_arr.(1))
        in
        match
          List.filter
            (fun p -> not (List.mem p step1_others))
            (Func.producers chain_arr.(0))
        with
        | [ p ] -> Some p
        | [] -> None (* zero-init chain: step 0 reads no previous iterate *)
        | _ :: _ -> invalid_arg "Plan.build: cannot identify smoother input"
      end
      else invalid_arg "Plan.build: diamond chain too short"
    in
    let src_basic pid =
      match Hashtbl.find_opt input_index pid with
      | Some i -> P_input i
      | None -> P_array (array_of_func pid)
    in
    let prev_pos = Array.make nsteps (-1) in
    let steps =
      Array.mapi
        (fun step (f : Func.t) ->
          let compiled = Compile.compile f ~params in
          let prev =
            match prev_id_of step with Some p -> Some p | None -> init_id
          in
          let src_of =
            Array.mapi
              (fun pi pid ->
                if prev = Some pid then begin
                  prev_pos.(step) <- pi;
                  (* placeholder: bound to a modulo buffer at exec *)
                  P_member 0
                end
                else src_basic pid)
              compiled.Compile.producers
          in
          { func = f;
            compiled;
            sizes;
            scratch_slot = None;
            array_id =
              (if step = nsteps - 1 then Some (array_of_func f.Func.id)
               else None);
            src_of })
        chain_arr
    in
    G_diamond
      { gid; steps; scheme; sizes; prev_pos;
        init_src = Option.map src_basic init_id }
  in
  let groups_exec =
    List.mapi
      (fun gi (g : Grouping.group) ->
        if g.Grouping.diamond then build_diamond gi g else build_tiled gi g)
      groups
    |> Array.of_list
  in
  ignore ngroups;
  let used =
    Array.to_list (Pipeline.funcs pipeline)
    |> List.concat_map (fun f -> List.concat_map Expr.params (Func.defn_exprs f))
    |> List.sort_uniq String.compare
  in
  { uid = Atomic.fetch_and_add uid_counter 1;
    pipeline;
    opts;
    n;
    groups = groups_exec;
    arrays;
    inputs;
    output_arrays = List.map (fun id -> (id, array_of_func id)) outputs;
    params = List.map (fun p -> (p, params p)) used }

(* The one per-tile bound rule both engines execute: each member
   computes its demand region, and a live-out publishes the part of its
   own slice inside that region. *)
let tile_boxes (tg : tiled_group) ~tile =
  Array.map2
    (fun (m : member) (id, region) ->
      assert (id = m.func.Func.id);
      let own =
        match m.array_id with
        | None -> Box.empty (Box.rank tile)
        | Some _ -> Box.inter (Regions.own_slice tg.geom id ~tile) region
      in
      (region, own))
    tg.members
    (Regions.demand tg.geom ~tile)

let group_count t = Array.length t.groups
let array_count t = Array.length t.arrays

let total_array_bytes t =
  Array.fold_left (fun acc a -> acc + (8 * a.len)) 0 t.arrays

let scratch_bytes_per_thread t =
  Array.fold_left
    (fun acc g ->
      match g with
      | G_tiled tg ->
        Int.max acc
          (8 * Array.fold_left ( + ) 0 tg.scratch_slot_len)
      | G_diamond _ -> acc)
    0 t.groups

let member_count t =
  Array.fold_left
    (fun acc g ->
      match g with
      | G_tiled tg -> acc + Array.length tg.members
      | G_diamond dg -> acc + Array.length dg.steps)
    0 t.groups

let summary fmt t =
  Format.fprintf fmt "@[<v>plan: %s  n=%d  opts=%a@," (Pipeline.name t.pipeline)
    t.n Options.pp t.opts;
  Format.fprintf fmt "groups=%d arrays=%d array_bytes=%d scratch_bytes=%d@,"
    (group_count t) (array_count t) (total_array_bytes t)
    (scratch_bytes_per_thread t);
  Array.iter
    (fun g ->
      match g with
      | G_tiled tg ->
        Format.fprintf fmt
          "@[<v 2>group %d (overlapped, tiles=%s, %d tiles, redundancy %.1f%%)@,"
          tg.gid
          (String.concat "x"
             (Array.to_list (Array.map string_of_int tg.tile_sizes)))
          (Array.length tg.tiles)
          (100.0 *. Regions.redundancy tg.geom ~tile_sizes:tg.tile_sizes);
        Array.iter
          (fun m ->
            Format.fprintf fmt "%s%s%s@," m.func.Func.name
              (match m.scratch_slot with
               | Some s -> Printf.sprintf " scratch#%d" s
               | None -> "")
              (match m.array_id with
               | Some a -> Printf.sprintf " array#%d" a
               | None -> ""))
          tg.members;
        Format.fprintf fmt "@]@,"
      | G_diamond dg ->
        let scheme_str =
          match dg.scheme with
          | Sched_diamond { sigma } -> Printf.sprintf "diamond, sigma=%d" sigma
          | Sched_skewed { tau; sigma } ->
            Printf.sprintf "skewed, tau=%d sigma=%d" tau sigma
        in
        Format.fprintf fmt "@[<v 2>group %d (%s, %d steps)@," dg.gid scheme_str
          (Array.length dg.steps);
        Array.iter
          (fun m ->
            Format.fprintf fmt "%s%s@," m.func.Func.name
              (match m.array_id with
               | Some a -> Printf.sprintf " array#%d" a
               | None -> " (modulo buffer)"))
          dg.steps;
        Format.fprintf fmt "@]@,")
    t.groups;
  Format.fprintf fmt "@]"

(* What a plan computes and how it stores it, in a fixed binary layout
   (stable across processes and compiler versions): every stage body
   with its coefficients, concrete sizes and boundary, the resolved
   parameters, the options that shape the plan, the grouping and the
   storage mapping.  Stage names are display only and stay out; the
   pipeline name stays in, as it names the emitted C entry point.
   Options that only select how or under which limits a plan runs
   (backend, plan checking, budget, deadline) stay out too. *)
let content t =
  let b = Buffer.create 16384 in
  (* zigzag varints: most fields are small, and the bytes are what the
     digest pays for *)
  let rec uint u =
    if u lsr 7 = 0 then Buffer.add_char b (Char.unsafe_chr u)
    else begin
      Buffer.add_char b (Char.unsafe_chr (u land 0x7f lor 0x80));
      uint (u lsr 7)
    end
  in
  let int i = uint ((i lsl 1) lxor (i asr 62)) in
  let float f = Buffer.add_int64_le b (Int64.bits_of_float f) in
  let str s = int (String.length s); Buffer.add_string b s in
  let array f a = int (Array.length a); Array.iter f a in
  let list f l = int (List.length l); List.iter f l in
  let opt = function None -> int 0 | Some i -> int 1; int i in
  let rec expr : Expr.t -> unit = function
    | Const c -> int 0; float c
    | Param p -> int 1; str p
    | Coord k -> int 2; int k
    | Load (f, accs) ->
      int 3;
      int f;
      array
        (fun (a : Expr.access) -> int a.mul; int a.add; int a.den; int a.off)
        accs
    | Unop (op, x) ->
      int 4;
      int (match op with Neg -> 0 | Abs -> 1 | Sqrt -> 2);
      expr x
    | Binop (op, x, y) ->
      int 5;
      int
        (match op with
         | Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | Min -> 4 | Max -> 5);
      expr x;
      expr y
  in
  let src = function
    | P_input i -> int 0; int i
    | P_array i -> int 1; int i
    | P_member i -> int 2; int i
  in
  let member m =
    let f = m.func in
    int f.Func.id;
    array
      (fun (s : Sizeexpr.t) -> int s.num; int s.den; int s.off)
      f.Func.sizes;
    (match f.Func.kind with
     | Func.Input -> int 0
     | Func.Pointwise -> int 1
     | Func.Smooth { step; total } -> int 2; int step; int total
     | Func.Restriction -> int 3
     | Func.Interpolation -> int 4);
    (match f.Func.defn with
     | Func.Undefined -> int 0
     | Func.Def e -> int 1; expr e
     | Func.Parity es -> int 2; array expr es);
    (match f.Func.boundary with
     | Func.Dirichlet v -> int 0; float v
     | Func.Ghost_input -> int 1);
    array int m.sizes;
    opt m.scratch_slot;
    opt m.array_id;
    array src m.src_of
  in
  let group = function
    | G_tiled tg ->
      int 0;
      array int tg.tile_sizes;
      array int tg.scratch_slot_len;
      array member tg.members
    | G_diamond dg ->
      (match dg.scheme with
       | Sched_diamond { sigma } -> int 1; int sigma
       | Sched_skewed { tau; sigma } -> int 2; int tau; int sigma);
      array int dg.sizes;
      array int dg.prev_pos;
      (match dg.init_src with None -> int 0 | Some s -> int 1; src s);
      array member dg.steps
  in
  str (Pipeline.name t.pipeline);
  str
    (Options.fingerprint
       { t.opts with
         Options.backend = Options.Interp;
         check_plan = false;
         mem_budget = None;
         deadline = None });
  int t.n;
  list (fun (p, v) -> str p; float v) t.params;
  array group t.groups;
  array
    (fun a ->
      int a.len;
      int a.first_group;
      int a.last_group;
      int (Bool.to_int a.output))
    t.arrays;
  array int t.inputs;
  list (fun (f, a) -> int f; int a) t.output_arrays;
  Buffer.contents b

(* Memoized by uid: the flight recorder consults the digest per cycle. *)
let digest_cache : (int, string) Hashtbl.t = Hashtbl.create 8
let digest_mutex = Mutex.create ()

let digest t =
  Mutex.lock digest_mutex;
  let d =
    match Hashtbl.find_opt digest_cache t.uid with
    | Some d -> d
    | None ->
      let d = Digest.to_hex (Digest.string (content t)) in
      Hashtbl.replace digest_cache t.uid d;
      d
  in
  Mutex.unlock digest_mutex;
  d
