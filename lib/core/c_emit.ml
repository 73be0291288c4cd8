open Repro_ir
open Repro_poly

let pf = Format.fprintf

let loop_vars = [| "i"; "j"; "k"; "l" |]

let c_ident s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    s

let fstr v = Printf.sprintf "%.17g" v

(* A loop coordinate [x = scale*name + phase]: the plain loop variable
   ([scale] 1), or, in a parity case, the half index [name] whose
   coordinate [2*name + p] has the case's parity. *)
type coord = { name : string; scale : int; phase : int }

let plain_coord k = { name = loop_vars.(k); scale = 1; phase = 0 }

(* C rendering of a scaled-affine access applied to coordinate [x]:
   [(mul*x + add)/den + off] with [mul*x + add = m*name + c].  When
   [den] divides [m] the floor division is taken at emit time
   ([floor((den*q*name + c)/den) = q*name + floor(c/den)]), so the index
   stays affine in the loop variable and the loop vectorizes; otherwise
   it goes through the FDIV macro, matching the engine's [Box.fdiv] for
   negative numerators. *)
let access_str (a : Expr.access) x =
  let affine mul add =
    if mul = 1 && add = 0 then x.name
    else if add = 0 then Printf.sprintf "%d*%s" mul x.name
    else if mul = 1 then Printf.sprintf "(%s%+d)" x.name add
    else Printf.sprintf "(%d*%s%+d)" mul x.name add
  in
  let m = a.Expr.mul * x.scale and c = (a.Expr.mul * x.phase) + a.Expr.add in
  let scaled =
    if m mod a.Expr.den = 0 then
      affine (m / a.Expr.den) (Box.fdiv c a.Expr.den)
    else Printf.sprintf "FDIV(%s, %d)" (affine m c) a.Expr.den
  in
  if a.Expr.off = 0 then scaled else Printf.sprintf "(%s%+d)" scaled a.Expr.off

(* Storage binding of a stage's array/scratchpad: the value at grid
   coordinate [x] lives at [name[Σ (x_k − org_k)·strides_k]].  Strides and
   origins are C expressions: integer literals for full arrays, runtime
   bound variables for per-tile scratchpads. *)
type cstore = {
  cname : string;
  cstrides : string array;
  corg : string array;
}

let index_str ?(coords = plain_coord) store accs =
  let d = Array.length accs in
  let parts =
    List.init d (fun k ->
        let idx = access_str accs.(k) (coords k) in
        let idx =
          if store.corg.(k) = "0" then idx
          else Printf.sprintf "(%s - %s)" idx store.corg.(k)
        in
        if store.cstrides.(k) = "1" then idx
        else Printf.sprintf "%s*%s" idx store.cstrides.(k))
  in
  String.concat " + " parts

let self_accs dims =
  Array.init dims (fun _ -> { Expr.mul = 1; add = 0; den = 1; off = 0 })

let self_index_str ?coords store dims =
  index_str ?coords store (self_accs dims)

let term_str ~coords (t : Compile.term) stores =
  let s = stores.(t.Compile.pos) in
  Printf.sprintf "%.17g * %s[%s]" t.Compile.coef s.cname
    (index_str ~coords s t.Compile.accs)

let int_strs = Array.map string_of_int

(* Row-major strides for a grid with one ghost layer per side. *)
let strides_of_sizes sizes =
  let d = Array.length sizes in
  let s = Array.make d 1 in
  for k = d - 2 downto 0 do
    s.(k) <- s.(k + 1) * (sizes.(k + 1) + 2)
  done;
  s

let zeros d = Array.make d "0"

let full_store name sizes =
  { cname = name;
    cstrides = int_strs (strides_of_sizes sizes);
    corg = zeros (Array.length sizes) }

(* ------------------------------------------------------------------ *)
(* Loop-nest emitters                                                   *)

(* The compute cases of [member] over the inclusive bounds [lb..ub]
   (C expressions, typically hoisted variables), writing through [dst]
   and reading producers through [stores] — the engine's
   [Compile.run] cases over region ∩ interior.  A parity case loops
   over half indices ([jh] for [j = 2*jh + p]), so its stride-2
   accesses stay affine in the loop variable.  The innermost loop
   carries [#pragma omp simd]: every point is one independent
   assignment, so vector lanes compute exactly what the scalar loop
   computes.  A zero fill gets no pragma: gcc turns it into memset. *)
let emit_cases fmt ~(member : Plan.member) ~(stores : cstore array)
    ~(dst : cstore) ~(lb : string array) ~(ub : string array) ~indent =
  let dims = member.Plan.func.Func.dims in
  let pad = String.make indent ' ' in
  List.iter
    (fun (case : Compile.case_t) ->
      let coords =
        match case.Compile.parity with
        | None -> plain_coord
        | Some p ->
          pf fmt "%s/* parity case (%s) */@," pad
            (String.concat "," (Array.to_list (Array.map string_of_int p)));
          fun k -> { name = loop_vars.(k) ^ "h"; scale = 2; phase = p.(k) }
      in
      let parts =
        match case.Compile.kernel with
        | Compile.Lin { base; terms } ->
          (if base <> 0.0 then [ fstr base ] else [])
          @ Array.to_list (Array.map (fun t -> term_str ~coords t stores) terms)
        | Compile.Gen _ -> [ "eval_point() /* non-affine definition */" ]
      in
      for k = 0 to dims - 1 do
        let x = coords k in
        (* the half-index range of [lb..ub] ∩ (2*xh + p) *)
        let shifted e d =
          if d = 0 then e
          else Printf.sprintf "%s %c %d" e (if d > 0 then '+' else '-') (abs d)
        in
        let from, upto =
          if x.scale = 1 then (lb.(k), ub.(k))
          else
            ( Printf.sprintf "FDIV(%s, 2)" (shifted lb.(k) (1 - x.phase)),
              Printf.sprintf "FDIV(%s, 2)" (shifted ub.(k) (-x.phase)) )
        in
        if k = dims - 1 && parts <> [] then
          pf fmt "%s%s#pragma omp simd@," pad (String.make (2 * k) ' ');
        pf fmt "%s%sfor (int %s = %s; %s <= %s; %s++)@," pad
          (String.make (2 * k) ' ')
          x.name from x.name upto x.name
      done;
      pf fmt "%s%s%s[%s] = %s;@," pad
        (String.make (2 * dims) ' ')
        dst.cname (self_index_str ~coords dst dims)
        (if parts = [] then "0.0" else String.concat " + " parts))
    member.Plan.compiled.Compile.cases

(* The ghost-rim helper of rank [dims]: the boundary value on
   [lb..ub] ∖ interior [1..m] of a store with origin [o] and strides
   [s] (the innermost stride is 1 for every store: full arrays by
   [strides_of_sizes], scratchpads by their [st_p_(d-1) = 1]).  Rows
   with a ghost outer coordinate are filled whole; an interior row
   only gets its two ends.  Emitted once per rank, called by
   [emit_rim], and kept out of line: inlined and specialized at each of
   its dozens of calls, it costs more compile time than it saves in
   run time. *)
let rim_symbol dims = Printf.sprintf "polymg_rim%d" dims

let emit_rim_helper fmt dims =
  let last = dims - 1 in
  let x = loop_vars.(last) in
  let ints name n = List.init n (Printf.sprintf "int %s%d" name) in
  let params =
    ("double *a" :: ints "s" last) @ ints "o" dims
    @ List.concat
        (List.init dims (fun k ->
             [ Printf.sprintf "int l%d" k; Printf.sprintf "int u%d" k ]))
    @ ints "m" dims @ [ "double v" ]
  in
  pf fmt "static NOINLINE void %s(%s)@,{@," (rim_symbol dims)
    (String.concat ", " params);
  for k = 0 to last - 1 do
    let pad = String.make (2 + (2 * k)) ' ' in
    let x = loop_vars.(k) in
    pf fmt "%sfor (int %s = l%d; %s <= u%d; %s++) {@," pad x k x k x;
    pf fmt "%s  const int g%d = %s%s < 1 || %s > m%d;@," pad k
      (if k = 0 then "" else Printf.sprintf "g%d || " (k - 1))
      x x k
  done;
  let pad = String.make (2 + (2 * last)) ' ' in
  pf fmt "%sdouble *r = a%s;@," pad
    (String.concat ""
       (List.init last (fun k ->
            Printf.sprintf " + (%s - o%d)*s%d" loop_vars.(k) k k)));
  let fill from cond =
    Printf.sprintf "for (int %s = %s; %s <= u%d%s; %s++) r[%s - o%d] = v;" x
      from x last cond x x last
  in
  let ends =
    [ fill (Printf.sprintf "l%d" last) (Printf.sprintf " && %s < 1" x);
      fill (Printf.sprintf "max(l%d, m%d + 1)" last last) "" ]
  in
  if last = 0 then List.iter (pf fmt "%s%s@," pad) ends
  else begin
    pf fmt "%sif (g%d) %s@," pad (last - 1) (fill (Printf.sprintf "l%d" last) "");
    pf fmt "%selse {@," pad;
    List.iter (pf fmt "%s  %s@," pad) ends;
    pf fmt "%s}@," pad
  end;
  for k = last - 1 downto 0 do
    pf fmt "%s}@," (String.make (2 + (2 * k)) ' ')
  done;
  pf fmt "}@,@,"

(* Boundary value on [lb..ub] ∖ interior [1..msz] — the engine's
   [Compile.fill_rim] over a demand region's ghost part — as one call
   of the rank's rim helper. *)
let emit_rim fmt ~dims ~(dst : cstore) ~(lb : string array)
    ~(ub : string array) ~(msz : int array) ~bnd ~indent =
  let args =
    (dst.cname :: Array.to_list (Array.sub dst.cstrides 0 (dims - 1)))
    @ Array.to_list dst.corg
    @ List.concat (List.init dims (fun k -> [ lb.(k); ub.(k) ]))
    @ Array.to_list (int_strs msz)
    @ [ fstr bnd ]
  in
  pf fmt "%s%s(%s);@," (String.make indent ' ') (rim_symbol dims)
    (String.concat ", " args)

let emit_copy fmt ~dims ~(src : cstore) ~(dst : cstore) ~(lb : string array)
    ~(ub : string array) ~indent =
  let pad = String.make indent ' ' in
  for k = 0 to dims - 1 do
    pf fmt "%s%sfor (int %s = %s; %s <= %s; %s++)@," pad
      (String.make (2 * k) ' ')
      loop_vars.(k) lb.(k) loop_vars.(k) ub.(k) loop_vars.(k)
  done;
  pf fmt "%s%s%s[%s] = %s[%s];@," pad
    (String.make (2 * dims) ' ')
    dst.cname (self_index_str dst dims) src.cname (self_index_str src dims)

(* ------------------------------------------------------------------ *)
(* Per-tile bound planning for overlapped-tile groups.

   The engine recomputes [Regions.demand] per tile; the C rendering needs
   static bounds.  For each member we try the affine min/max-clamped form
   of Fig. 8 (offsets from the scaled tile origin, calibrated on a middle
   tile) and validate it against the exact demand/own-slice boxes of
   EVERY tile; truncated border tiles, non-divisible coarsening scales
   and the refinement top-boundary special case flunk validation, in
   which case the whole group falls back to exact per-tile bound tables
   (the generality/size trade-off is reported in the group comment). *)

let boxes_of_tiles (tg : Plan.tiled_group) =
  let geom = tg.Plan.geom in
  let nm = Array.length tg.Plan.members in
  let regions =
    Array.map
      (fun tile -> Array.map snd (Regions.demand geom ~tile))
      tg.Plan.tiles
  in
  let owns =
    Array.mapi
      (fun ti tile ->
        Array.init nm (fun p ->
            let m = tg.Plan.members.(p) in
            if m.Plan.array_id = None then Box.empty (Box.rank tile)
            else
              Box.inter
                (Regions.own_slice geom m.Plan.func.Func.id ~tile)
                regions.(ti).(p)))
      tg.Plan.tiles
  in
  (regions, owns)

let tile_coords ~counts flat =
  let d = Array.length counts in
  let idx = Array.make d 0 in
  let rem = ref flat in
  for k = d - 1 downto 0 do
    idx.(k) <- !rem mod counts.(k);
    rem := !rem / counts.(k)
  done;
  idx

(* Scaled tile extent of member [p] along dim [k]. *)
let scale_of (tg : Plan.tiled_group) (m : Plan.member) k =
  let rel = (Regions.rel_of tg.Plan.geom m.Plan.func.Func.id).(k) in
  if rel >= 0 then tg.Plan.tile_sizes.(k) * (1 lsl rel)
  else Int.max 1 (tg.Plan.tile_sizes.(k) / (1 lsl (-rel)))

(* Try the affine form: lo = max(cl, s·T + lo_off), hi = min(ch, s·T + s −
   1 + hi_off), calibrated on the middle tile.  Returns per-(member, dim)
   offsets, or None if any tile's exact box disagrees. *)
let try_affine (tg : Plan.tiled_group) ~counts ~(boxes : Box.t array array)
    ~(want : int -> bool) ~(clamp : Plan.member -> int -> int * int) =
  let nm = Array.length tg.Plan.members in
  let ntiles = Array.length tg.Plan.tiles in
  let dims = Array.length counts in
  let midc = tile_coords ~counts (ntiles / 2) in
  let offs = Array.make_matrix nm dims None in
  (* calibrate on the middle tile *)
  Array.iteri
    (fun p (m : Plan.member) ->
      if want p then
        let b = boxes.(ntiles / 2).(p) in
        for k = 0 to dims - 1 do
          if not (Box.is_empty b) then begin
            let s = scale_of tg m k in
            offs.(p).(k) <-
              Some
                ( s,
                  b.Box.lo.(k) - (s * midc.(k)),
                  b.Box.hi.(k) - ((s * midc.(k)) + s - 1) )
          end
        done)
    tg.Plan.members;
  (* validate every tile against the prediction *)
  let ok = ref true in
  for ti = 0 to ntiles - 1 do
    let tc = tile_coords ~counts ti in
    Array.iteri
      (fun p (m : Plan.member) ->
        if want p && !ok then
          let b = boxes.(ti).(p) in
          let pred_empty = ref false in
          let plo = Array.make dims 0 and phi = Array.make dims 0 in
          for k = 0 to dims - 1 do
            match offs.(p).(k) with
            | None -> pred_empty := true
            | Some (s, lo_off, hi_off) ->
              let cl, ch = clamp m k in
              plo.(k) <- Int.max cl ((s * tc.(k)) + lo_off);
              phi.(k) <- Int.min ch ((s * tc.(k)) + s - 1 + hi_off);
              if phi.(k) < plo.(k) then pred_empty := true
          done;
          if Box.is_empty b then ok := !ok && !pred_empty
          else
            ok :=
              !ok && (not !pred_empty) && plo = b.Box.lo && phi = b.Box.hi)
      tg.Plan.members
  done;
  if !ok then Some offs else None

(* ------------------------------------------------------------------ *)
(* Tiled group emission                                                 *)

let emit_tiled fmt ~(input_store : int -> cstore)
    ~(array_store : int -> of_func:int -> cstore) (tg : Plan.tiled_group) =
  let geom = tg.Plan.geom in
  let refm = Regions.reference geom in
  let dims = Array.length refm.Regions.sizes in
  let counts =
    Array.init dims (fun k ->
        (refm.Regions.sizes.(k) + tg.Plan.tile_sizes.(k) - 1)
        / tg.Plan.tile_sizes.(k))
  in
  let ntiles = Array.length tg.Plan.tiles in
  assert (Array.fold_left ( * ) 1 counts = ntiles);
  let regions, owns = boxes_of_tiles tg in
  let nm = Array.length tg.Plan.members in
  let members = tg.Plan.members in
  (* which boxes the emission actually indexes with: demand regions for
     scratch members, own slices for live-outs *)
  let wants_region p = members.(p).Plan.scratch_slot <> None in
  let wants_own p = members.(p).Plan.array_id <> None in
  let affine_r =
    try_affine tg ~counts ~boxes:regions ~want:wants_region
      ~clamp:(fun m k -> (0, m.Plan.sizes.(k) + 1))
  in
  let affine_o =
    try_affine tg ~counts ~boxes:owns ~want:wants_own
      ~clamp:(fun m k -> (1, m.Plan.sizes.(k)))
  in
  let affine_ok = affine_r <> None && affine_o <> None in
  pf fmt "@,  /* ---- group %d: overlapped tiles %s over %s (%s bounds) ---- */@,"
    tg.Plan.gid
    (String.concat "x"
       (Array.to_list (Array.map string_of_int tg.Plan.tile_sizes)))
    refm.Regions.func.Func.name
    (if affine_ok then "affine" else "tabled");
  (* exact per-tile bound tables when the affine form does not validate *)
  if not affine_ok then begin
    let emit_table tag boxes want =
      for p = 0 to nm - 1 do
        if want p then begin
          pf fmt "  static const int _%s_%d_%d[%d][%d] = {@," tag tg.Plan.gid
            p ntiles (2 * dims);
          for ti = 0 to ntiles - 1 do
            let b = boxes.(ti).(p) in
            let cells =
              List.init (2 * dims) (fun j ->
                  let k = j / 2 in
                  if j mod 2 = 0 then string_of_int b.Box.lo.(k)
                  else string_of_int b.Box.hi.(k))
            in
            pf fmt "    {%s}%s@," (String.concat ", " cells)
              (if ti = ntiles - 1 then "" else ",")
          done;
          pf fmt "  };@,"
        end
      done
    in
    emit_table "rb" regions wants_region;
    emit_table "ob" owns wants_own
  end;
  (* ghost-rim prefill of this group's live-out arrays (engine: the
     per-group fill_rim over with_ghost ∖ interior before the tiles) *)
  Array.iter
    (fun (m : Plan.member) ->
      match m.Plan.array_id with
      | None -> ()
      | Some a ->
        let st = array_store a ~of_func:m.Plan.func.Func.id in
        pf fmt "  /* ghost rim of live-out %s */@," m.Plan.func.Func.name;
        emit_rim fmt ~dims ~dst:st ~lb:(zeros dims)
          ~ub:(Array.map (fun s -> string_of_int (s + 1)) m.Plan.sizes)
          ~msz:m.Plan.sizes ~bnd:m.Plan.compiled.Compile.boundary ~indent:2)
    members;
  pf fmt "  #pragma omp parallel for schedule(static) collapse(%d)@," dims;
  for k = 0 to dims - 1 do
    pf fmt "  %sfor (int T_%d = 0; T_%d < %d; T_%d++) {@,"
      (String.make (2 * k) ' ')
      k k counts.(k) k
  done;
  let indent = 2 + (2 * dims) in
  let pad = String.make indent ' ' in
  (* scratchpads with user lists *)
  let slot_users = Array.make (Array.length tg.Plan.scratch_slot_len) [] in
  Array.iter
    (fun (m : Plan.member) ->
      match m.Plan.scratch_slot with
      | Some s -> slot_users.(s) <- m.Plan.func.Func.name :: slot_users.(s)
      | None -> ())
    members;
  Array.iteri
    (fun s len ->
      pf fmt "%s/* users: [%s] */@," pad
        (String.concat "; " (List.rev slot_users.(s)));
      pf fmt "%sdouble _buf_%d_%d[%d];@," pad tg.Plan.gid s len)
    tg.Plan.scratch_slot_len;
  if not affine_ok then begin
    (* row-major tile index, matching Regions.tiles order *)
    let tix =
      let rec go k acc =
        if k = dims then acc
        else
          go (k + 1)
            (if acc = "" then Printf.sprintf "T_%d" k
             else Printf.sprintf "(%s)*%d + T_%d" acc counts.(k) k)
      in
      go 0 ""
    in
    pf fmt "%sconst int _tix = %s;@," pad tix
  end;
  (* bound expressions per member *)
  let bound_exprs affine boxes_tag p (m : Plan.member) clamp =
    match affine with
    | Some offs ->
      Array.init dims (fun k ->
          match offs.(p).(k) with
          | None -> ("0", "-1")
          | Some (s, lo_off, hi_off) ->
            let cl, ch = clamp m k in
            ( Printf.sprintf "max(%d, %d*T_%d%+d)" cl s k lo_off,
              Printf.sprintf "min(%d, %d*T_%d%+d)" ch s k
                (s - 1 + hi_off) ))
    | None ->
      Array.init dims (fun k ->
          ( Printf.sprintf "_%s_%d_%d[_tix][%d]" boxes_tag tg.Plan.gid p
              (2 * k),
            Printf.sprintf "_%s_%d_%d[_tix][%d]" boxes_tag tg.Plan.gid p
              ((2 * k) + 1) ))
  in
  (* names of the hoisted per-member bound/stride variables *)
  let rvar p k lo = Printf.sprintf "%s%d_%d" (if lo then "lb_" else "ub_") p k in
  let cvar p k lo = Printf.sprintf "%s%d_%d" (if lo then "cl_" else "cu_") p k in
  let ovar p k lo = Printf.sprintf "%s%d_%d" (if lo then "ol_" else "oh_") p k in
  let svar p k = Printf.sprintf "st_%d_%d" p k in
  let scratch_store p =
    match members.(p).Plan.scratch_slot with
    | Some s ->
      { cname = Printf.sprintf "_buf_%d_%d" tg.Plan.gid s;
        cstrides = Array.init dims (svar p);
        corg = Array.init dims (fun k -> rvar p k true) }
    | None -> invalid_arg "C_emit: scratch read of an unbuffered member"
  in
  Array.iteri
    (fun p (m : Plan.member) ->
      let msz = m.Plan.sizes in
      let stores =
        Array.mapi
          (fun i src ->
            match src with
            | Plan.P_input idx -> input_store idx
            | Plan.P_array a ->
              array_store a ~of_func:m.Plan.compiled.Compile.producers.(i)
            | Plan.P_member q -> scratch_store q)
          m.Plan.src_of
      in
      (match m.Plan.scratch_slot with
      | Some _ ->
        (* demand-region bounds, runtime strides, rim fill, compute *)
        let bounds =
          bound_exprs affine_r "rb" p m (fun m k ->
              (0, m.Plan.sizes.(k) + 1))
        in
        Array.iteri
          (fun k (lo, hi) ->
            pf fmt "%sconst int %s = %s, %s = %s;@," pad (rvar p k true) lo
              (rvar p k false) hi)
          bounds;
        (* strides from the per-tile region widths — the engine's
           region_source layout, so addressing is identical *)
        pf fmt "%sconst int %s = 1;@," pad (svar p (dims - 1));
        for k = dims - 2 downto 0 do
          pf fmt "%sconst int %s = %s * (%s - %s + 1);@," pad (svar p k)
            (svar p (k + 1))
            (rvar p (k + 1) false)
            (rvar p (k + 1) true)
        done;
        for k = 0 to dims - 1 do
          pf fmt "%sconst int %s = max(%s, 1), %s = min(%s, %d);@," pad
            (cvar p k true) (rvar p k true) (cvar p k false) (rvar p k false)
            msz.(k)
        done;
        let dst = scratch_store p in
        pf fmt "%s{ /* stage %s */@," pad m.Plan.func.Func.name;
        emit_rim fmt ~dims ~dst
          ~lb:(Array.init dims (fun k -> rvar p k true))
          ~ub:(Array.init dims (fun k -> rvar p k false))
          ~msz ~bnd:m.Plan.compiled.Compile.boundary ~indent:(indent + 2);
        emit_cases fmt ~member:m ~stores ~dst
          ~lb:(Array.init dims (fun k -> cvar p k true))
          ~ub:(Array.init dims (fun k -> cvar p k false))
          ~indent:(indent + 2);
        (match m.Plan.array_id with
        | None -> pf fmt "%s}@," pad
        | Some a ->
          (* live-out with in-group readers: publish the own slice *)
          Array.iteri
            (fun k (lo, hi) ->
              pf fmt "%sconst int %s = %s, %s = %s;@," pad (ovar p k true)
                lo (ovar p k false) hi)
            (bound_exprs affine_o "ob" p m (fun m k ->
                 (1, m.Plan.sizes.(k))));
          emit_copy fmt ~dims ~src:dst
            ~dst:(array_store a ~of_func:m.Plan.func.Func.id)
            ~lb:(Array.init dims (fun k -> ovar p k true))
            ~ub:(Array.init dims (fun k -> ovar p k false))
            ~indent:(indent + 2);
          pf fmt "%s}@," pad)
      | None -> (
        match m.Plan.array_id with
        | Some a ->
          (* live-out without in-group readers: compute the own slice
             directly into the full array *)
          Array.iteri
            (fun k (lo, hi) ->
              pf fmt "%sconst int %s = %s, %s = %s;@," pad (ovar p k true)
                lo (ovar p k false) hi)
            (bound_exprs affine_o "ob" p m (fun m k ->
                 (1, m.Plan.sizes.(k))));
          pf fmt "%s{ /* stage %s */@," pad m.Plan.func.Func.name;
          emit_cases fmt ~member:m ~stores
            ~dst:(array_store a ~of_func:m.Plan.func.Func.id)
            ~lb:(Array.init dims (fun k -> ovar p k true))
            ~ub:(Array.init dims (fun k -> ovar p k false))
            ~indent:(indent + 2);
          pf fmt "%s}@," pad
        | None ->
          invalid_arg
            (m.Plan.func.Func.name ^ ": member with neither scratch nor array")))
      )
    members;
  for k = dims - 1 downto 0 do
    pf fmt "  %s}@," (String.make (2 * k) ' ')
  done

(* ------------------------------------------------------------------ *)
(* Diamond group emission: the equivalent untiled time loop.

   Each (t, x) value is computed exactly once under the diamond/skewed
   schedule, so the plain time loop below is bit-identical to the tiled
   execution — the tiling only reorders whole-row computations. *)

let emit_diamond fmt ~(input_store : int -> cstore)
    ~(array_store : int -> of_func:int -> cstore) (dg : Plan.diamond_group) =
  let nsteps = Array.length dg.Plan.steps in
  let last = dg.Plan.steps.(nsteps - 1) in
  let dims = Array.length dg.Plan.sizes in
  let scheme_str =
    match dg.Plan.scheme with
    | Plan.Sched_diamond { sigma } ->
      Printf.sprintf "diamond time tiling, sigma=%d" sigma
    | Plan.Sched_skewed { tau; sigma } ->
      Printf.sprintf "time-skewed (wavefront) tiling, tau=%d sigma=%d" tau
        sigma
  in
  pf fmt "@,  /* ---- group %d: %s, %d steps ---- */@," dg.Plan.gid scheme_str
    nsteps;
  pf fmt "  /* executed here as the equivalent untiled time loop: the@,";
  pf fmt "   * schedule computes every (t, x) row exactly once, so results@,";
  pf fmt "   * are bit-identical; see lib/poly for the tiled wavefronts */@,";
  let out_arr =
    match last.Plan.array_id with
    | Some a -> a
    | None -> invalid_arg "C_emit: diamond chain without output array"
  in
  let boundary =
    match last.Plan.func.Func.boundary with
    | Func.Dirichlet v -> v
    | Func.Ghost_input -> 0.0
  in
  let len =
    Array.fold_left (fun acc s -> acc * (s + 2)) 1 dg.Plan.sizes
  in
  let tmp_name = Printf.sprintf "_dtmp_%d" dg.Plan.gid in
  let out_store = array_store out_arr ~of_func:last.Plan.func.Func.id in
  let tmp_store = full_store tmp_name dg.Plan.sizes in
  pf fmt "  {@,";
  pf fmt "    double *%s = (double *) pool_allocate(sizeof(double) * %d);@,"
    tmp_name len;
  let ghost_ub = Array.map (fun s -> string_of_int (s + 1)) dg.Plan.sizes in
  List.iter
    (fun st ->
      emit_rim fmt ~dims ~dst:st ~lb:(zeros dims) ~ub:ghost_ub
        ~msz:dg.Plan.sizes ~bnd:boundary ~indent:4)
    [ out_store; tmp_store ];
  (* buffer holding iterate t: the final step lands in the output array *)
  let buf_of t = if (nsteps - t) mod 2 = 0 then out_store else tmp_store in
  let init_store =
    match dg.Plan.init_src with
    | None -> None
    | Some (Plan.P_input idx) -> Some (input_store idx)
    | Some (Plan.P_array a) ->
      let pid =
        dg.Plan.steps.(0).Plan.compiled.Compile.producers.(dg.Plan.prev_pos.(0))
      in
      Some (array_store a ~of_func:pid)
    | Some (Plan.P_member _) -> invalid_arg "C_emit: bad diamond init source"
  in
  for t = 1 to nsteps do
    let step = t - 1 in
    let m = dg.Plan.steps.(step) in
    let stores =
      Array.mapi
        (fun i src ->
          if i = dg.Plan.prev_pos.(step) then
            if t = 1 then
              match init_store with
              | Some s -> s
              | None -> invalid_arg "C_emit: missing diamond init source"
            else buf_of (t - 1)
          else
            match src with
            | Plan.P_input idx -> input_store idx
            | Plan.P_array a ->
              array_store a ~of_func:m.Plan.compiled.Compile.producers.(i)
            | Plan.P_member _ ->
              invalid_arg "C_emit: scratch read inside a diamond chain")
        m.Plan.src_of
    in
    pf fmt "    { /* t = %d: stage %s */@," t m.Plan.func.Func.name;
    emit_cases fmt ~member:m ~stores ~dst:(buf_of t)
      ~lb:(Array.make dims "1")
      ~ub:(Array.map string_of_int dg.Plan.sizes)
      ~indent:6;
    pf fmt "    }@,"
  done;
  pf fmt "    pool_deallocate(%s);@,  }@," tmp_name

(* ------------------------------------------------------------------ *)
(* Whole-pipeline body                                                  *)

let emit_body fmt (plan : Plan.t) =
  let pipeline = plan.Plan.pipeline in
  let n = plan.Plan.n in
  let func_sizes id =
    let f = Pipeline.func pipeline id in
    Array.map (fun s -> Sizeexpr.eval ~n s) f.Func.sizes
  in
  let array_store a ~of_func =
    full_store (Printf.sprintf "_arr_%d" a) (func_sizes of_func)
  in
  let input_store i =
    let id = plan.Plan.inputs.(i) in
    full_store (Pipeline.func pipeline id).Func.name (func_sizes id)
  in
  let in_names =
    Array.to_list plan.Plan.inputs
    |> List.map (fun id -> (Pipeline.func pipeline id).Func.name)
  in
  pf fmt "void pipeline_%s(int N, %s, double **out)@,{@,"
    (c_ident (Pipeline.name pipeline))
    (String.concat ", "
       (List.map (fun s -> Printf.sprintf "double *%s" s) in_names));
  pf fmt "  (void) N;@,";
  (* full arrays with their users *)
  let users = Array.make (Array.length plan.Plan.arrays) [] in
  Array.iter
    (fun g ->
      let ms =
        match g with
        | Plan.G_tiled tg -> tg.Plan.members
        | Plan.G_diamond dg -> dg.Plan.steps
      in
      Array.iter
        (fun (m : Plan.member) ->
          match m.Plan.array_id with
          | Some a -> users.(a) <- m.Plan.func.Func.name :: users.(a)
          | None -> ())
        ms)
    plan.Plan.groups;
  Array.iteri
    (fun a (info : Plan.array_info) ->
      pf fmt "  /* users: [%s] */@," (String.concat "; " (List.rev users.(a)));
      pf fmt "  double *_arr_%d = (double *) pool_allocate(sizeof(double) * %d);@,"
        a info.Plan.len)
    plan.Plan.arrays;
  Array.iter
    (fun g ->
      match g with
      | Plan.G_tiled tg -> emit_tiled fmt ~input_store ~array_store tg
      | Plan.G_diamond dg -> emit_diamond fmt ~input_store ~array_store dg)
    plan.Plan.groups;
  (* releases; output arrays are returned to the caller *)
  Array.iteri
    (fun a (info : Plan.array_info) ->
      if not info.Plan.output then pf fmt "  pool_deallocate(_arr_%d);@," a)
    plan.Plan.arrays;
  List.iteri
    (fun i (_, a) -> pf fmt "  out[%d] = _arr_%d;@," i a)
    plan.Plan.output_arrays;
  pf fmt "}@,"

let emit_prelude fmt (plan : Plan.t) =
  pf fmt "/* Generated by PolyMG (OCaml engine): pipeline %s, N = %d, variant %s */@,"
    (Pipeline.name plan.Plan.pipeline)
    plan.Plan.n
    (Options.name plan.Plan.opts);
  pf fmt "#include <math.h>@,#include <stddef.h>@,@,";
  pf fmt "#ifndef max@,#define max(a, b) ((a) > (b) ? (a) : (b))@,#endif@,";
  pf fmt "#ifndef min@,#define min(a, b) ((a) < (b) ? (a) : (b))@,#endif@,";
  pf fmt "#ifdef __GNUC__@,#define NOINLINE __attribute__((noinline))@,";
  pf fmt "#else@,#define NOINLINE@,#endif@,";
  pf fmt "/* floor division, matching the engine for negative numerators */@,";
  pf fmt "#define FDIV(a, b) ((a) >= 0 ? (a) / (b) : -((-(a) + (b) - 1) / (b)))@,"

(* The ranks of the plan's stages: one rim helper each. *)
let ranks (plan : Plan.t) =
  Array.fold_left
    (fun acc g ->
      match g with
      | Plan.G_tiled tg ->
        Array.fold_left
          (fun acc (m : Plan.member) -> m.Plan.func.Func.dims :: acc)
          acc tg.Plan.members
      | Plan.G_diamond dg -> Array.length dg.Plan.sizes :: acc)
    [] plan.Plan.groups
  |> List.sort_uniq compare

let emit fmt (plan : Plan.t) =
  Format.pp_open_vbox fmt 0;
  emit_prelude fmt plan;
  pf fmt "extern void *pool_allocate(size_t);@,";
  pf fmt "extern void pool_deallocate(void *);@,";
  pf fmt "extern double eval_point(void);@,@,";
  List.iter (emit_rim_helper fmt) (ranks plan);
  emit_body fmt plan;
  Format.pp_close_box fmt ()

let to_string plan = Format.asprintf "%a" emit plan

let pipeline_symbol (plan : Plan.t) =
  "pipeline_" ^ c_ident (Pipeline.name plan.Plan.pipeline)

let line_count plan =
  to_string plan |> String.split_on_char '\n' |> List.length

(* ------------------------------------------------------------------ *)
(* Runnability: is the emitted C a complete program?                    *)

let runnable (plan : Plan.t) =
  let issues = ref [] in
  let check_member (m : Plan.member) =
    List.iter
      (fun (case : Compile.case_t) ->
        match case.Compile.kernel with
        | Compile.Lin _ -> ()
        | Compile.Gen _ ->
          issues :=
            (m.Plan.func.Func.name ^ ": non-affine definition (Gen kernel)")
            :: !issues)
      m.Plan.compiled.Compile.cases
  in
  Array.iter
    (fun g ->
      match g with
      | Plan.G_tiled tg -> Array.iter check_member tg.Plan.members
      | Plan.G_diamond dg ->
        Array.iter check_member dg.Plan.steps;
        (match dg.Plan.init_src with
        | Some (Plan.P_member _) ->
          issues := "diamond chain with scratch init source" :: !issues
        | _ -> ()))
    plan.Plan.groups;
  match List.sort_uniq String.compare !issues with
  | [] -> Ok ()
  | l -> Error (String.concat "; " l)
