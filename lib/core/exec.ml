open Repro_ir
open Repro_poly
module Buf = Repro_grid.Buf
module Grid = Repro_grid.Grid
module Parallel = Repro_runtime.Parallel
module Mempool = Repro_runtime.Mempool
module Telemetry = Repro_runtime.Telemetry
module Watchdog = Repro_runtime.Watchdog
module Flightrec = Repro_runtime.Flightrec

let c_tiles = Telemetry.counter "exec.tiles"
let c_points = Telemetry.counter "exec.points_computed"
let c_redundant = Telemetry.counter "exec.points_redundant"

type runtime = {
  par : Parallel.t;
  pool : Mempool.t;
}

let runtime ?(domains = 1) ?(poison = false) () =
  { par = Parallel.create domains; pool = Mempool.create ~poison () }

let free_runtime rt =
  Parallel.teardown rt.par;
  Mempool.clear rt.pool

let with_runtime ?domains ?poison f =
  let rt = runtime ?domains ?poison () in
  Fun.protect ~finally:(fun () -> free_runtime rt) (fun () -> f rt)

(* ------------------------------------------------------------------ *)
(* Fault injection (test/bench harness hook).

   When set, the injector is called right after each stage writes its
   destination, with the stage name and the destination binding, so a
   harness can corrupt intermediate buffers *between* stages — the
   guarded solver must then detect the fault at the cycle boundary.
   Called from worker domains when [domains > 1]; injectors must be
   thread-safe.  Never enabled in production paths. *)

type fault_injector = gid:int -> stage:string -> Compile.source -> unit

let injector : fault_injector option ref = ref None
let set_fault_injector f = injector := f

let inject ~gid ~stage dst =
  match !injector with Some h -> h ~gid ~stage dst | None -> ()

(* ------------------------------------------------------------------ *)
(* Per-domain scratchpad buffers, cached across tiles and cycles.       *)

type scratch_cache = (int, int * Buf.t array) Hashtbl.t
(* gid -> (plan uid, slot buffers) *)

let scratch_key : scratch_cache Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let scratch_for ~plan_uid ~gid ~(lens : int array) =
  let tbl = Domain.DLS.get scratch_key in
  match Hashtbl.find_opt tbl gid with
  | Some (uid, bufs)
    when uid = plan_uid && Array.length bufs = Array.length lens ->
    bufs
  | Some _ | None ->
    let bufs = Array.map Buf.create_uninit lens in
    Hashtbl.replace tbl gid (plan_uid, bufs);
    bufs

(* ------------------------------------------------------------------ *)
(* Source construction helpers                                          *)

let strides_of_extents extents =
  let d = Array.length extents in
  let s = Array.make d 1 in
  for k = d - 2 downto 0 do
    s.(k) <- s.(k + 1) * extents.(k + 1)
  done;
  s

let full_source (buf : Buf.t) sizes =
  let extents = Array.map (fun n -> n + 2) sizes in
  { Compile.data = buf.Buf.data;
    strides = strides_of_extents extents;
    org = Array.make (Array.length sizes) 0 }

let region_source (buf : Buf.t) (region : Box.t) =
  { Compile.data = buf.Buf.data;
    strides = strides_of_extents (Box.widths region);
    org = Array.copy region.Box.lo }

(* Copy the values of [box] from [src] to [dst]; both must have unit stride
   in the last dimension. *)
let copy_box ~(src : Compile.source) ~(dst : Compile.source) (box : Box.t) =
  if not (Box.is_empty box) then begin
    let d = Box.rank box in
    assert (src.Compile.strides.(d - 1) = 1 && dst.Compile.strides.(d - 1) = 1);
    let row = Array.copy box.Box.lo in
    let len = box.Box.hi.(d - 1) - box.Box.lo.(d - 1) + 1 in
    let rec go k =
      if k = d - 1 then begin
        let s0 = Compile.source_index src row in
        let d0 = Compile.source_index dst row in
        let s = Bigarray.Array1.sub src.Compile.data s0 len in
        let t = Bigarray.Array1.sub dst.Compile.data d0 len in
        Bigarray.Array1.blit s t
      end
      else
        for x = box.Box.lo.(k) to box.Box.hi.(k) do
          row.(k) <- x;
          go (k + 1)
        done
    in
    go 0
  end

(* ------------------------------------------------------------------ *)

type ctx = {
  plan : Plan.t;
  rt : runtime;
  bufs : Buf.t option array;  (* by array id *)
  input_grids : Grid.t array;  (* by input index *)
  (* strides/extents of each func's full array layout, by func id *)
  func_sizes : int array array;
  sites : sites;
}

(* The plan's probe sites, interned once per plan (memoized by uid, like
   the digest): one name per stage, group and diamond front serves
   every sink. *)
and sites = {
  s_stage : Telemetry.site array;  (* by func id *)
  s_group : Telemetry.site array;  (* by group index *)
  s_front : Telemetry.site option array;  (* by group index *)
}

let check_grid_matches (f : Func.t) ~n (g : Grid.t) =
  let expect = Array.map (fun s -> Sizeexpr.eval ~n s + 2) f.Func.sizes in
  if Grid.extents g <> expect then
    invalid_arg
      (Printf.sprintf "Exec.run: grid extents mismatch for %s" f.Func.name)

let array_buf ctx a =
  match ctx.bufs.(a) with
  | Some b -> b
  | None -> invalid_arg "Exec.run: array used before allocation"

let source_of_binding ctx ~(member : Plan.member)
    ~(tile_srcs : Compile.source option array) i =
  match member.Plan.src_of.(i) with
  | Plan.P_input idx ->
    let g = ctx.input_grids.(idx) in
    { Compile.data = g.Grid.buf.Buf.data;
      strides = Array.copy g.Grid.strides;
      org = Array.make (Grid.dims g) 0 }
  | Plan.P_array a ->
    let pid = member.Plan.compiled.Compile.producers.(i) in
    full_source (array_buf ctx a) ctx.func_sizes.(pid)
  | Plan.P_member p -> (
    match tile_srcs.(p) with
    | Some s -> s
    | None -> invalid_arg "Exec.run: scratch read before it was computed")

(* ------------------------------------------------------------------ *)
(* Tiled group execution                                                *)

let run_tile ctx (tg : Plan.tiled_group) scratch tile =
  (* cooperative cancellation point: a tripped stage deadline aborts
     here, before the tile's kernels run, never mid-kernel *)
  Watchdog.check ();
  let req = Regions.demand tg.Plan.geom ~tile in
  let nm = Array.length tg.Plan.members in
  Telemetry.add c_tiles 1;
  (* per member: the source its in-group consumers read (its scratchpad) *)
  let tile_srcs : Compile.source option array = Array.make nm None in
  for p = 0 to nm - 1 do
    let m = tg.Plan.members.(p) in
    let id, region = req.(p) in
    assert (id = m.Plan.func.Func.id);
    if not (Box.is_empty region) then begin
      let t_stage = Telemetry.start () in
      let interior = Box.of_sizes m.Plan.sizes in
      let srcs =
        Array.init
          (Array.length m.Plan.src_of)
          (source_of_binding ctx ~member:m ~tile_srcs)
      in
      (match (m.Plan.scratch_slot, m.Plan.array_id) with
      | Some slot, arr ->
        let dst = region_source scratch.(slot) region in
        m.Plan.compiled.Compile.run ~srcs ~dst ~interior ~region;
        inject ~gid:tg.Plan.gid ~stage:m.Plan.func.Func.name dst;
        tile_srcs.(p) <- Some dst;
        (match arr with
         | Some a ->
           (* live-out with in-group readers: publish the own slice *)
           let own = Regions.own_slice tg.Plan.geom id ~tile in
           let adst = full_source (array_buf ctx a) m.Plan.sizes in
           copy_box ~src:dst ~dst:adst (Box.inter own region)
         | None -> ())
      | None, Some a ->
        let own = Regions.own_slice tg.Plan.geom id ~tile in
        let dst = full_source (array_buf ctx a) m.Plan.sizes in
        m.Plan.compiled.Compile.run ~srcs ~dst ~interior
          ~region:(Box.inter own region);
        inject ~gid:tg.Plan.gid ~stage:m.Plan.func.Func.name dst
      | None, None ->
        invalid_arg
          (m.Plan.func.Func.name ^ ": member with neither scratch nor array"));
      if t_stage <> 0 then
        Telemetry.stop ~cat:"stage" t_stage
          ctx.sites.s_stage.(m.Plan.func.Func.id)
    end
  done

let run_tiled ctx (tg : Plan.tiled_group) =
  let ntiles = Array.length tg.Plan.tiles in
  Parallel.parallel_for ctx.rt.par ~lo:0 ~hi:(ntiles - 1) (fun ti ->
      let scratch =
        scratch_for ~plan_uid:ctx.plan.Plan.uid ~gid:tg.Plan.gid
          ~lens:tg.Plan.scratch_slot_len
      in
      run_tile ctx tg scratch tg.Plan.tiles.(ti))

(* ------------------------------------------------------------------ *)
(* Diamond group execution                                              *)

(* one front site per diamond group: fronts interleave every step, so
   per-stage attribution happens downstream (flops share, in
   Calibrate) *)
let run_diamond ctx ~front_site (dg : Plan.diamond_group) =
  let nsteps = Array.length dg.Plan.steps in
  let last = dg.Plan.steps.(nsteps - 1) in
  let out_arr =
    match last.Plan.array_id with
    | Some a -> array_buf ctx a
    | None -> invalid_arg "Exec.run: diamond chain without output array"
  in
  let len = Array.fold_left (fun acc s -> acc * (s + 2)) 1 dg.Plan.sizes in
  let tmp =
    if ctx.plan.Plan.opts.Options.pool then Mempool.acquire ctx.rt.pool len
    else Buf.create_uninit len
  in
  let boundary =
    match last.Plan.func.Func.boundary with
    | Func.Dirichlet v -> v
    | Func.Ghost_input -> 0.0
  in
  let interior = Box.of_sizes dg.Plan.sizes in
  let ghost = Box.with_ghost dg.Plan.sizes in
  let out_src = full_source out_arr dg.Plan.sizes in
  let tmp_src = full_source tmp dg.Plan.sizes in
  Compile.fill_rim out_src ~region:ghost ~interior boundary;
  Compile.fill_rim tmp_src ~region:ghost ~interior boundary;
  (* buffer holding iterate t: the final step lands in the output array *)
  let buf_of t = if (nsteps - t) mod 2 = 0 then out_src else tmp_src in
  let init_src =
    match dg.Plan.init_src with
    | None -> None  (* zero-init chain: step 0 reads no previous iterate *)
    | Some (Plan.P_input idx) ->
      let g = ctx.input_grids.(idx) in
      Some
        { Compile.data = g.Grid.buf.Buf.data;
          strides = Array.copy g.Grid.strides;
          org = Array.make (Grid.dims g) 0 }
    | Some (Plan.P_array a) ->
      let pid =
        dg.Plan.steps.(0).Plan.compiled.Compile.producers.(dg.Plan.prev_pos.(0))
      in
      Some (full_source (array_buf ctx a) ctx.func_sizes.(pid))
    | Some (Plan.P_member _) -> invalid_arg "Exec.run: bad diamond init source"
  in
  let d = Array.length dg.Plan.sizes in
  let size = dg.Plan.sizes.(0) in
  (* schedule: wavefronts of tiles plus a per-tile row iterator, for the
     chosen time-tiling scheme *)
  let fronts, iter_rows =
    match dg.Plan.scheme with
    | Plan.Sched_diamond { sigma } ->
      ( Array.map
          (Array.map (fun (t : Diamond.tile) -> `D t))
          (Diamond.wavefronts ~steps:nsteps ~size ~sigma),
        fun tile f ->
          match tile with
          | `D t -> Diamond.iter_tile ~steps:nsteps ~size ~sigma t ~f
          | `S t -> ignore t; assert false )
    | Plan.Sched_skewed { tau; sigma } ->
      ( Array.map
          (Array.map (fun (t : Skewed.tile) -> `S t))
          (Skewed.wavefronts ~steps:nsteps ~size ~tau ~sigma),
        fun tile f ->
          match tile with
          | `S t -> Skewed.iter_tile ~steps:nsteps ~size ~tau ~sigma t ~f
          | `D t -> ignore t; assert false )
  in
  let run_fronts () =
  Array.iter
    (fun front ->
      let t_front = Telemetry.start () in
      Parallel.parallel_for ctx.rt.par ~lo:0 ~hi:(Array.length front - 1)
        (fun fi ->
          Watchdog.check ();
          iter_rows front.(fi) (fun ~t ~xlo ~xhi ->
              let step = t - 1 in
              let m = dg.Plan.steps.(step) in
              let prev =
                if t = 1 then init_src else Some (buf_of (t - 1))
              in
              let srcs =
                Array.init
                  (Array.length m.Plan.src_of)
                  (fun i ->
                    if i = dg.Plan.prev_pos.(step) then
                      match prev with
                      | Some p -> p
                      | None ->
                        invalid_arg "Exec.run: missing diamond init source"
                    else source_of_binding ctx ~member:m ~tile_srcs:[||] i)
              in
              let lo = Array.make d 1 and hi = Array.copy dg.Plan.sizes in
              lo.(0) <- xlo;
              hi.(0) <- xhi;
              let region = Box.full lo hi in
              m.Plan.compiled.Compile.run ~srcs ~dst:(buf_of t) ~interior
                ~region));
      if t_front <> 0 then
        Telemetry.stop ~cat:"stage"
          ~args:
            [ ("tiles", Telemetry.Int (Array.length front));
              ("gid", Telemetry.Int dg.Plan.gid) ]
          t_front front_site)
    fronts;
  inject ~gid:dg.Plan.gid ~stage:last.Plan.func.Func.name out_src
  in
  let release_tmp () =
    if ctx.plan.Plan.opts.Options.pool then Mempool.release ctx.rt.pool tmp
  in
  (* a faulted or deadline-tripped front must not strand the pooled
     scratch buffer: release it best-effort before re-raising, so the
     pool stays quiescent across failed solves *)
  match run_fronts () with
  | () -> release_tmp ()
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    (try release_tmp () with _ -> ());
    Printexc.raise_with_backtrace e bt

(* ------------------------------------------------------------------ *)
(* Work accounting (the paper's redundant-computation metric)           *)

let group_points (group : Plan.group_exec) =
  match group with
  | Plan.G_tiled tg ->
    let computed =
      Array.fold_left
        (fun acc tile ->
          Array.fold_left
            (fun acc (_, b) -> acc + Box.points b)
            acc
            (Regions.demand tg.Plan.geom ~tile))
        0 tg.Plan.tiles
    in
    let domain =
      Array.fold_left
        (fun acc (m : Plan.member) ->
          acc + Box.points (Box.of_sizes m.Plan.sizes))
        0 tg.Plan.members
    in
    (computed, domain)
  | Plan.G_diamond dg ->
    let inner =
      Array.fold_left ( * ) 1
        (Array.sub dg.Plan.sizes 1 (Array.length dg.Plan.sizes - 1))
    in
    let p = Array.length dg.Plan.steps * dg.Plan.sizes.(0) * inner in
    (p, p)

(* Demand regions are recomputed per tile, so cache per-group counts by
   plan uid (only consulted from the sequential group loop, and only
   when telemetry is enabled). *)
let points_memo : (int, (int * int) array) Hashtbl.t = Hashtbl.create 8

let group_points_cached plan gi =
  let arr =
    match Hashtbl.find_opt points_memo plan.Plan.uid with
    | Some a -> a
    | None ->
      let a = Array.map group_points plan.Plan.groups in
      Hashtbl.replace points_memo plan.Plan.uid a;
      a
  in
  arr.(gi)

let group_kind = function
  | Plan.G_tiled _ -> "tiled"
  | Plan.G_diamond _ -> "diamond"

let s_run = Telemetry.site "exec.run"
let sites_memo : (int, sites) Hashtbl.t = Hashtbl.create 8
let sites_mutex = Mutex.create ()

let sites_of plan =
  Mutex.protect sites_mutex (fun () ->
      match Hashtbl.find_opt sites_memo plan.Plan.uid with
      | Some s -> s
      | None ->
        let site fmt = Printf.ksprintf Telemetry.site fmt in
        let s =
          { s_stage =
              Array.map
                (fun (f : Func.t) -> site "stage:%s" f.Func.name)
                (Pipeline.funcs plan.Plan.pipeline);
            s_group =
              Array.mapi
                (fun gi g -> site "group%d:%s" gi (group_kind g))
                plan.Plan.groups;
            s_front =
              Array.map
                (function
                  | Plan.G_diamond dg ->
                    Some (site "diamond.front.g%d" dg.Plan.gid)
                  | Plan.G_tiled _ -> None)
                plan.Plan.groups }
        in
        Hashtbl.replace sites_memo plan.Plan.uid s;
        s)

(* ------------------------------------------------------------------ *)
(* Top level                                                            *)

let liveouts_of_group (g : Plan.group_exec) =
  match g with
  | Plan.G_tiled tg ->
    Array.to_list tg.Plan.members
    |> List.filter_map (fun (m : Plan.member) ->
           Option.map (fun a -> (m, a)) m.Plan.array_id)
  | Plan.G_diamond dg ->
    Array.to_list dg.Plan.steps
    |> List.filter_map (fun (m : Plan.member) ->
           Option.map (fun a -> (m, a)) m.Plan.array_id)

let run plan rt ~inputs ~outputs =
  let n = plan.Plan.n in
  let nfuncs = Array.length (Pipeline.funcs plan.Plan.pipeline) in
  let func_sizes =
    Array.init nfuncs (fun id ->
        let f = Pipeline.func plan.Plan.pipeline id in
        Array.map (fun s -> Sizeexpr.eval ~n s) f.Func.sizes)
  in
  let input_grids =
    Array.map
      (fun id ->
        match List.assoc_opt id inputs with
        | Some g ->
          check_grid_matches (Pipeline.func plan.Plan.pipeline id) ~n g;
          g
        | None -> invalid_arg "Exec.run: missing input grid")
      plan.Plan.inputs
  in
  let bufs = Array.make (Array.length plan.Plan.arrays) None in
  (* bind output arrays to caller-provided grids *)
  List.iter
    (fun (fid, a) ->
      match List.assoc_opt fid outputs with
      | Some g ->
        check_grid_matches (Pipeline.func plan.Plan.pipeline fid) ~n g;
        bufs.(a) <- Some g.Grid.buf
      | None -> invalid_arg "Exec.run: missing output grid")
    plan.Plan.output_arrays;
  let ctx =
    { plan; rt; bufs; input_grids; func_sizes; sites = sites_of plan }
  in
  let opts = plan.Plan.opts in
  (* which array slots hold pool-acquired buffers (never the caller's
     output grids) — the exception path below releases exactly these *)
  let pooled = Array.make (Array.length plan.Plan.arrays) false in
  let t_run = Telemetry.start () in
  let run_groups () =
  Array.iteri
    (fun gi group ->
      let t_group = Telemetry.start () in
      (* acquire arrays whose first use is this group *)
      Array.iteri
        (fun a (info : Plan.array_info) ->
          if info.Plan.first_group = gi && bufs.(a) = None then
            bufs.(a) <-
              Some
                (if opts.Options.pool then begin
                   let b = Mempool.acquire rt.pool info.Plan.len in
                   pooled.(a) <- true;
                   b
                 end
                 else Buf.create_uninit info.Plan.len))
        plan.Plan.arrays;
      (* prefill ghost rims of this group's live-out grids *)
      List.iter
        (fun ((m : Plan.member), a) ->
          let boundary =
            match m.Plan.func.Func.boundary with
            | Func.Dirichlet v -> v
            | Func.Ghost_input -> 0.0
          in
          let src = full_source (array_buf ctx a) m.Plan.sizes in
          Compile.fill_rim src
            ~region:(Box.with_ghost m.Plan.sizes)
            ~interior:(Box.of_sizes m.Plan.sizes)
            boundary)
        (liveouts_of_group group);
      let exec_group () =
        match group with
        | Plan.G_tiled tg -> run_tiled ctx tg
        | Plan.G_diamond dg ->
          run_diamond ctx ~front_site:(Option.get ctx.sites.s_front.(gi)) dg
      in
      if Flightrec.on () then
        Flightrec.emit
          (Flightrec.Group_begin { gid = gi; kind = group_kind group });
      (match opts.Options.deadline with
       | Some s ->
         Watchdog.with_deadline
           ~stage:(Printf.sprintf "group%d" gi)
           ~budget_ns:(max 1 (int_of_float (s *. 1e9)))
           exec_group
       | None -> exec_group ());
      if Flightrec.on () then Flightrec.emit (Flightrec.Group_end { gid = gi });
      (* release arrays after their last consuming group *)
      if opts.Options.pool then
        Array.iteri
          (fun a (info : Plan.array_info) ->
            if info.Plan.last_group = gi && not info.Plan.output then begin
              match bufs.(a) with
              | Some b ->
                Mempool.release rt.pool b;
                pooled.(a) <- false;
                bufs.(a) <- None
              | None -> ()
            end)
          plan.Plan.arrays;
      if t_group <> 0 then begin
        let computed, domain = group_points_cached plan gi in
        Telemetry.add c_points computed;
        Telemetry.add c_redundant (computed - domain);
        let shape_args =
          match group with
          | Plan.G_tiled tg ->
            [ ("tiles", Telemetry.Int (Array.length tg.Plan.tiles));
              ("members", Telemetry.Int (Array.length tg.Plan.members)) ]
          | Plan.G_diamond dg ->
            [ ("steps", Telemetry.Int (Array.length dg.Plan.steps)) ]
        in
        Telemetry.stop ~cat:"exec"
          ~args:
            (("gid", Telemetry.Int gi)
             :: ("points", Telemetry.Int computed)
             :: ("redundant_points", Telemetry.Int (computed - domain))
             :: shape_args)
          t_group ctx.sites.s_group.(gi)
      end)
    plan.Plan.groups
  in
  (* exception safety: a crashed, faulted, or deadline-stopped group must
     not strand its pool-acquired intermediates — a long-running server
     tears the runtime down per request and checks quiescence.  Output
     slots hold caller grids and are never released here. *)
  (try run_groups ()
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     Array.iteri
       (fun a is_pooled ->
         if is_pooled then begin
           (match bufs.(a) with
            | Some b -> ( try Mempool.release rt.pool b with _ -> ())
            | None -> ());
           pooled.(a) <- false;
           bufs.(a) <- None
         end)
       pooled;
     Printexc.raise_with_backtrace e bt);
  if t_run <> 0 then
    Telemetry.stop ~cat:"exec"
      ~args:[ ("groups", Telemetry.Int (Array.length plan.Plan.groups)) ]
      t_run s_run

let points_computed plan =
  Array.fold_left
    (fun acc g -> acc + fst (group_points g))
    0 plan.Plan.groups

let points_domain plan =
  Array.fold_left
    (fun acc g -> acc + snd (group_points g))
    0 plan.Plan.groups
