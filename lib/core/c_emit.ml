open Repro_ir
open Repro_poly
module Grid = Repro_grid.Grid

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
   bound variables for per-tile scratchpads.  A row ring ([cring = Some
   len], rank 2) keeps row [x_0] at [x_0 % len]: its value lives at
   [name[(x_0 % len)·strides_0 + (x_1 − org_1)]]. *)
type cstore = {
  cname : string;
  cstrides : string array;
  corg : string array;
  cring : int option;
}

(* Dimension [k]'s part of a store index: [(idx_k - org_k)*stride_k]. *)
let dim_index_str store k idx =
  let idx =
    if store.corg.(k) = "0" then idx
    else Printf.sprintf "(%s - %s)" idx store.corg.(k)
  in
  if store.cstrides.(k) = "1" then idx
  else Printf.sprintf "%s*%s" idx store.cstrides.(k)

let index_str ?(coords = plain_coord) store accs =
  String.concat " + "
    (List.init (Array.length accs) (fun k ->
         dim_index_str store k (access_str accs.(k) (coords k))))

let self_accs dims =
  Array.init dims (fun _ -> { Expr.mul = 1; add = 0; den = 1; off = 0 })

let self_index_str ?coords store dims =
  index_str ?coords store (self_accs dims)

let int_strs = Array.map string_of_int

let zeros d = Array.make d "0"

let full_store name sizes =
  { cname = name;
    cstrides = int_strs (Grid.strides_of (Array.map (fun s -> s + 2) sizes));
    corg = zeros (Array.length sizes);
    cring = None }

(* ------------------------------------------------------------------ *)
(* Loop-nest emitters                                                   *)

(* Access [a] at coordinate [x] as [q*name + c], when its floor
   division folds at emit time (the affine case of [access_str]). *)
let affine_of (a : Expr.access) x =
  let m = a.Expr.mul * x.scale and c = (a.Expr.mul * x.phase) + a.Expr.add in
  if m mod a.Expr.den = 0 then
    Some (m / a.Expr.den, Box.fdiv c a.Expr.den + a.Expr.off)
  else None

(* Row addressing in a loop nest of rank >= 2: an access whose outer
   dimensions fold to [q_k*name_k + c_k] goes through a row pointer
   [store + Σ (q_k*name_k - org_k)*stride_k], declared once per
   innermost loop and shared by every access to [store] with the same
   outer multipliers, at offset [Σ c_k*stride_k] plus its innermost
   index.  That is the integer [index_str] computes, summed in another
   order, so every point reads and writes the same element; the loop
   carries one address stream per row pointer instead of one per
   access, which keeps gcc from spilling in the 3-D stencils.  Another
   access keeps [index_str].  [rows] collects the pointers, keyed by
   (write, initializer): [_w] for the written store, [_r0], [_r1], ...
   for the read ones.  A ring's row pointer is [store + (row % len)*W],
   one per row it reads. *)
let row_ref ~coords ~rows ~write store accs =
  let d = Array.length accs in
  let pointer init =
    match List.assoc_opt (write, init) !rows with
    | Some n -> n
    | None ->
      let reads = List.filter (fun ((w, _), _) -> not w) !rows in
      let n = if write then "_w" else Printf.sprintf "_r%d" (List.length reads) in
      rows := !rows @ [ ((write, init), n) ];
      n
  in
  let outer =
    List.filter_map (fun k -> affine_of accs.(k) (coords k)) (List.init (d - 1) Fun.id)
  in
  match store.cring with
  | Some len ->
    let init =
      Printf.sprintf "%s + (%s %% %d)*%s" store.cname
        (access_str accs.(0) (coords 0)) len store.cstrides.(0)
    in
    Printf.sprintf "%s[%s]" (pointer init)
      (dim_index_str store 1 (access_str accs.(1) (coords 1)))
  | None when List.length outer < d - 1 ->
    Printf.sprintf "%s[%s]" store.cname (index_str ~coords store accs)
  | None -> begin
    let init =
      String.concat " + "
        (store.cname
         :: List.concat
              (List.mapi
                 (fun k (q, _) ->
                   let x = (coords k).name in
                   let v =
                     match q with
                     | 0 -> "0"
                     | 1 -> x
                     | q -> Printf.sprintf "%d*%s" q x
                   in
                   if v = "0" && store.corg.(k) = "0" then []
                   else [ dim_index_str store k v ])
                 outer))
    in
    let name = pointer init in
    (* the outer constants, summed where the stride is a literal *)
    let signed e c x = Printf.sprintf "%s %c %s" e (if c < 0 then '-' else '+') x in
    let lit, idx =
      List.fold_left
        (fun (lit, e) (k, (_, c)) ->
          match int_of_string_opt store.cstrides.(k) with
          | _ when c = 0 -> (lit, e)
          | Some st -> (lit + (c * st), e)
          | None -> (lit, signed e c (Printf.sprintf "%d*%s" (abs c) store.cstrides.(k))))
        ( 0,
          dim_index_str store (d - 1) (access_str accs.(d - 1) (coords (d - 1))) )
        (List.mapi (fun k o -> (k, o)) outer)
    in
    let idx = if lit = 0 then idx else signed idx lit (string_of_int (abs lit)) in
    Printf.sprintf "%s[%s]" name idx
  end

(* A linear case's right-hand side: [base], then the terms left to
   right, [read pos accs] printing each load. *)
let lin_parts ~read base (terms : Compile.term array) =
  (if base <> 0.0 then [ fstr base ] else [])
  @ Array.to_list
      (Array.map
         (fun (t : Compile.term) ->
           Printf.sprintf "%.17g * %s" t.Compile.coef (read t.Compile.pos t.Compile.accs))
         terms)

let sum parts = if parts = [] then "0.0" else String.concat " + " parts

let gen_error fmt pad (m : Plan.member) =
  (* no C form: the printed C fails to compile, naming the stage
     ([runnable] keeps such plans from the compiler) *)
  pf fmt "%s#error \"stage %s: non-affine definition (Gen kernel)\"@," pad
    (String.escaped m.Plan.func.Func.name)

(* The compute cases of [member] over the inclusive bounds [lb..ub]
   (C expressions, typically hoisted variables), writing through [dst]
   and reading producers through [stores] — the engine's
   [Compile.run] cases over region ∩ interior.  A parity case loops
   over half indices ([jh] for [j = 2*jh + p]), so its stride-2
   accesses stay affine in the loop variable.  The innermost loop
   carries [#pragma omp simd]: every point is one independent
   assignment, so vector lanes compute exactly what the scalar loop
   computes.  A zero fill gets no pragma: gcc turns it into memset.
   With [row], coordinate 0 is not looped over: it is declared
   [const int i = row;] and the rest of the nest runs that one row, in
   the caller's block (a row wavefront's step: one plain case).
   [inner_bounds] lists the innermost bounds' values (per tile) when
   [lb] and [ub] are not literals: a loop with at most one point in
   every tile gets no pragma, as there is nothing to vectorize. *)
let emit_cases ?row ?inner_bounds fmt ~(member : Plan.member)
    ~(stores : cstore array) ~(dst : cstore) ~(lb : string array)
    ~(ub : string array) ~indent =
  let dims = member.Plan.func.Func.dims in
  let inner_bounds =
    let lit b = int_of_string_opt b.(dims - 1) in
    match (inner_bounds, lit lb, lit ub) with
    | Some r, _, _ -> r
    | None, Some a, Some b -> [ (a, b) ]
    | None, _, _ -> []
  in
  let one_point x =
    inner_bounds <> []
    && List.for_all
         (fun (a, b) ->
           if x.scale = 1 then b <= a
           else Box.fdiv (b - x.phase) 2 <= Box.fdiv (a + 1 - x.phase) 2)
         inner_bounds
  in
  let pad = String.make indent ' ' in
  let cases = member.Plan.compiled.Compile.cases in
  (match (row, cases) with
  | None, _ | Some _, [ { Compile.parity = None; _ } ] -> ()
  | Some _, _ -> invalid_arg "C_emit: a row is one plain case");
  (* the indentation of loop [k]'s header *)
  let depth k = String.make (2 * if row = None then k else k - 1) ' ' in
  List.iter
    (fun (case : Compile.case_t) ->
      match case.Compile.kernel with
      | Compile.Gen _ -> gen_error fmt pad member
      | Compile.Lin { base; terms } ->
        let coords =
          match case.Compile.parity with
          | None -> plain_coord
          | Some p ->
            pf fmt "%s/* parity case (%s) */@," pad
              (String.concat "," (Array.to_list (Array.map string_of_int p)));
            fun k -> { name = loop_vars.(k) ^ "h"; scale = 2; phase = p.(k) }
        in
        let rows = ref [] in
        let ref_ ~write store accs =
          if dims < 2 then
            Printf.sprintf "%s[%s]" store.cname (index_str ~coords store accs)
          else row_ref ~coords ~rows ~write store accs
        in
        let target = ref_ ~write:true dst (self_accs dims) in
        let parts =
          lin_parts base terms ~read:(fun pos accs -> ref_ ~write:false stores.(pos) accs)
        in
        let inner = depth (dims - 1) in
        (* the loop over coordinate [dims - 2] opens a block for the
           row pointers *)
        let braced = dims >= 2 && !rows <> [] && (row = None || dims > 2) in
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
          if k = dims - 1 then begin
            (* the row pointers, once per innermost loop *)
            List.iter
              (fun ((write, init), n) ->
                pf fmt "%s%s%sdouble *%s = %s;@," pad inner
                  (if write then "" else "const ")
                  n init)
              !rows;
            if parts <> [] && not (one_point x) then
              pf fmt "%s%s#pragma omp simd@," pad inner
          end;
          match row with
          | Some r when k = 0 -> pf fmt "%sconst int %s = %s;@," pad x.name r
          | _ ->
            pf fmt "%s%sfor (int %s = %s; %s <= %s; %s++)%s@," pad (depth k)
              x.name from x.name upto x.name
              (if k = dims - 2 && braced then " {" else "")
        done;
        pf fmt "%s%s%s = %s;@," pad (depth dims) target (sum parts);
        if braced then pf fmt "%s%s}@," pad (depth (dims - 2)))
    cases

(* The ghost-rim helper of rank [dims]: the boundary value on
   [lb..ub] ∖ interior [1..m] of a store with origin [o] and strides
   [s] (the innermost stride is 1 for every store: full arrays by
   [Grid.strides_of], scratchpads by their [st_p_(d-1) = 1]).  Rows
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
(* Tiled group emission: one flat loop over the plan's tiles, in
   [Regions.tiles] order, each running the exact boxes the engine runs
   ([Plan.tile_boxes]).  A bound equal in every tile prints as an
   integer literal, so gcc folds it; a member with a varying bound gets
   a static table of its boxes, one row per tile, and its varying
   bounds read row [_t]. *)

let emit_tiled fmt ~(input_store : int -> cstore)
    ~(array_store : int -> of_func:int -> cstore) (tg : Plan.tiled_group) =
  let refm = Regions.reference tg.Plan.geom in
  let dims = Array.length refm.Regions.sizes in
  let ntiles = Array.length tg.Plan.tiles in
  let boxes =
    Array.map (fun tile -> Plan.tile_boxes tg ~tile) tg.Plan.tiles
  in
  let members = tg.Plan.members in
  pf fmt "@,  /* ---- group %d: %d overlapped tiles %s over %s ---- */@,"
    tg.Plan.gid ntiles
    (String.concat "x"
       (Array.to_list (Array.map string_of_int tg.Plan.tile_sizes)))
    refm.Regions.func.Func.name;
  (* per member, the (lo, hi) bound expressions of the box [pick]
     selects, printing the member's table when a bound varies *)
  let bound_exprs tag pick p =
    let name = Printf.sprintf "_%s_%d_%d" tag tg.Plan.gid p in
    let rows =
      Array.map
        (fun bs ->
          let b = pick bs.(p) in
          Array.init (2 * dims) (fun j ->
              if j mod 2 = 0 then b.Box.lo.(j / 2) else b.Box.hi.(j / 2)))
        boxes
    in
    let varies j = Array.exists (fun r -> r.(j) <> rows.(0).(j)) rows in
    if List.exists varies (List.init (2 * dims) Fun.id) then begin
      pf fmt "  static const int %s[%d][%d] = {@," name ntiles (2 * dims);
      Array.iteri
        (fun ti r ->
          pf fmt "    {%s}%s@,"
            (String.concat ", " (Array.to_list (Array.map string_of_int r)))
            (if ti = ntiles - 1 then "" else ","))
        rows;
      pf fmt "  };@,"
    end;
    let expr j =
      if varies j then Printf.sprintf "%s[_t][%d]" name j
      else string_of_int rows.(0).(j)
    in
    Array.init dims (fun k -> (expr (2 * k), expr ((2 * k) + 1)))
  in
  let region_bounds =
    Array.mapi
      (fun p (m : Plan.member) ->
        if m.Plan.scratch_slot = None then [||] else bound_exprs "rb" fst p)
      members
  in
  let own_bounds =
    Array.mapi
      (fun p (m : Plan.member) ->
        if m.Plan.array_id = None then [||] else bound_exprs "ob" snd p)
      members
  in
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
  pf fmt "  for (int _t = 0; _t < %d; _t++) {@," ntiles;
  let indent = 4 in
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
  (* member [p]'s innermost bounds in each tile, [pick] from its boxes *)
  let inner_bounds p pick = Array.to_list (Array.map (fun bs -> pick bs.(p)) boxes) in
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
        corg = Array.init dims (fun k -> rvar p k true);
        cring = None }
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
        Array.iteri
          (fun k (lo, hi) ->
            pf fmt "%sconst int %s = %s, %s = %s;@," pad (rvar p k true) lo
              (rvar p k false) hi)
          region_bounds.(p);
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
          ~inner_bounds:(inner_bounds p (fun (r, _) ->
              (max r.Box.lo.(dims - 1) 1, min r.Box.hi.(dims - 1) msz.(dims - 1))))
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
            own_bounds.(p);
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
            own_bounds.(p);
          pf fmt "%s{ /* stage %s */@," pad m.Plan.func.Func.name;
          emit_cases fmt ~member:m ~stores
            ~inner_bounds:
              (inner_bounds p (fun (_, o) -> (o.Box.lo.(dims - 1), o.Box.hi.(dims - 1))))
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
  pf fmt "  }@,"

(* ------------------------------------------------------------------ *)
(* Loop order of a group ([wavefront]): which groups run over whole
   rows instead of their tiles or their step loop. *)

let outgrows_l1 sizes =
  Array.length sizes = 2
  && 8 * Grid.ghosted_len sizes > List.assoc "L1" Cost.cache_levels

(* A 2-D group runs row by row when its reference buffer outgrows the
   L1: a whole-grid sweep then streams every stage through L2, and a
   tile's scratchpads (132 KB for the 257x257 defect) do not fit L1
   either.  A chain must also be 2-D, and an overlapped group's tiles
   must span whole rows (the presets' 32x256 tiles up to 257x257).  A
   grid that fits L1 gains nothing from the skew, and the 3-D plane
   wavefront measured slower than the step loop. *)
let wavefront = function
  | Plan.G_diamond dg -> outgrows_l1 dg.Plan.sizes
  | Plan.G_tiled tg ->
    let refm = Regions.reference tg.Plan.geom in
    outgrows_l1 refm.Regions.sizes
    && Array.for_all (fun (m : Plan.member) -> m.Plan.func.Func.dims = 2) tg.Plan.members
    && Array.for_all
         (fun (t : Box.t) -> t.Box.lo.(1) = 1 && t.Box.hi.(1) = refm.Regions.sizes.(1))
         tg.Plan.tiles

(* ------------------------------------------------------------------ *)
(* Row pipeline emission: an overlapped group that [wavefront] picks
   runs over whole rows of the whole grid, in one loop over positions
   [_p], instead of over its tiles.

   Each member that is stored (a "unit") computes row i at position
   [_p = k*i + lag]: [k] is 2^(levels it is coarser than the group's
   finest member), and [lag] is the least that puts every row it reads
   of an in-group producer at or before its own position (the
   producer runs first at a shared position).  So a restriction
   computes coarse row I at the position of fine row 2I+1, the last
   it reads.  Members are stored as:
   - a live-out: its full array (ghost rim filled before the loop, as
     for the tiles); in-group readers read the array;
   - an inlined member: a scratch member read only by one plain
     consumer of its size, at offset 0, is a local double computed
     inside that consumer's loop, at the consumer's point;
   - any other scratch member: a ring of [len] rows, row x at slot
     [x % len], [len] the most rows a reader still needs when the
     member writes (3 for a 5-point stencil or full weighting).  Its
     demand rows outside the grid are filled with the boundary value at
     their positions, its ghost columns once before the loop.
   A stage with parity cases computes both column parities of a row in
   one loop over the half index [jh], so every store is contiguous; a
   half index only one parity has is a short loop beside it.

   Every point is computed once, from the values the tiles read (their
   redundant overlap computes the same values again), in the same term
   order, so results are bit-identical. *)

type row_role = Out of int | Ring | Inline of int

let row_expr k lag =
  let p =
    if lag = 0 then "_p"
    else Printf.sprintf "_p %c %d" (if lag > 0 then '-' else '+') (abs lag)
  in
  if k = 1 then p else Printf.sprintf "(%s) / %d" p k

let emit_rows fmt ~(input_store : int -> cstore)
    ~(array_store : int -> of_func:int -> cstore) (tg : Plan.tiled_group) =
  let refm = Regions.reference tg.Plan.geom in
  let members = tg.Plan.members in
  let nm = Array.length members in
  let gid = tg.Plan.gid in
  let name p = members.(p).Plan.func.Func.name in
  let cases p = members.(p).Plan.compiled.Compile.cases in
  let boxes = Plan.tile_boxes tg ~tile:(Box.of_sizes refm.Regions.sizes) in
  let region p = fst boxes.(p) and rows_of p = members.(p).Plan.sizes.(0) in
  let all = List.init nm Fun.id in
  let readers q =
    List.filter (fun c -> Array.mem (Plan.P_member q) members.(c).Plan.src_of) all
  in
  let linear p =
    List.for_all
      (fun (k : Compile.case_t) ->
        match k.Compile.kernel with Compile.Lin _ -> true | Compile.Gen _ -> false)
      (cases p)
  in
  (* [c] is one plain case whose every load of [q] is at offset 0 *)
  let at_offset_0 c q =
    match cases c with
    | [ { Compile.parity = None; kernel = Compile.Lin { terms; _ } } ] ->
      Array.for_all
        (fun (t : Compile.term) ->
          members.(c).Plan.src_of.(t.Compile.pos) <> Plan.P_member q
          || t.Compile.accs = Expr.id_access 2)
        terms
    | _ -> false
  in
  let roles = Array.make nm Ring in
  (* a stored member: a unit of the [_p] loop *)
  let is_unit p = match roles.(p) with Inline _ -> false | Out _ | Ring -> true in
  for p = nm - 1 downto 0 do
    roles.(p) <-
      (match (members.(p).Plan.array_id, readers p) with
      | Some a, _ -> Out a
      | None, [ c ]
        when is_unit c && members.(p).Plan.sizes = members.(c).Plan.sizes
             && at_offset_0 c p && linear p ->
        Inline c
      | None, _ -> Ring)
  done;
  let inlined c = List.filter (fun v -> roles.(v) = Inline c) all in
  (* rows per position: 2^(levels coarser than the finest member) *)
  let rel p =
    let id = members.(p).Plan.func.Func.id in
    let m =
      List.find (fun (m : Regions.member) -> m.Regions.func.Func.id = id)
        (Array.to_list (Regions.members tg.Plan.geom))
    in
    m.Regions.rel.(0)
  in
  let finest = List.fold_left (fun acc p -> max acc (rel p)) min_int all in
  let k = Array.init nm (fun p -> 1 lsl (finest - rel p)) in
  (* the interior rows a unit computes: a live-out its own slice, a
     ring its demand rows inside the grid *)
  let span p =
    match roles.(p) with
    | Out _ ->
      let b = snd boxes.(p) in
      (b.Box.lo.(0), b.Box.hi.(0))
    | Ring ->
      let b = region p in
      (max b.Box.lo.(0) 1, min b.Box.hi.(0) (rows_of p))
    | Inline _ -> (1, 0)
  in
  let ghosts p =
    match roles.(p) with
    | Ring ->
      let b = region p in
      List.filter (fun r -> r < 1 || r > rows_of p)
        (List.init (b.Box.hi.(0) - b.Box.lo.(0) + 1) (fun i -> b.Box.lo.(0) + i))
    | Out _ | Inline _ -> []
  in
  let scheduled q r =
    match roles.(q) with
    | Out _ ->
      let lo, hi = span q in
      lo <= r && r <= hi
    | Ring -> (region q).Box.lo.(0) <= r && r <= (region q).Box.hi.(0)
    | Inline _ -> false
  in
  (* the rows of stored members that unit [c]'s row [r] reads, through
     its inlined members at the same point *)
  let rec reads c r =
    List.concat_map
      (fun (case : Compile.case_t) ->
        match (case.Compile.parity, case.Compile.kernel) with
        | Some pa, _ when pa.(0) <> r land 1 -> []
        | _, Compile.Gen _ -> []
        | _, Compile.Lin { terms; _ } ->
          List.concat_map
            (fun (t : Compile.term) ->
              match members.(c).Plan.src_of.(t.Compile.pos) with
              | Plan.P_member q when roles.(q) = Inline c -> reads q r
              | Plan.P_member q ->
                let a = t.Compile.accs.(0) in
                [ (q, Box.fdiv ((a.Expr.mul * r) + a.Expr.add) a.Expr.den + a.Expr.off) ]
              | _ -> [])
            (Array.to_list terms))
      (cases c)
  in
  let lag = Array.make nm 0 in
  let pos p r = (k.(p) * r) + lag.(p) in
  let each_read c f =
    let lo, hi = span c in
    for r = lo to hi do
      List.iter (fun (q, rq) -> f r q rq) (reads c r)
    done
  in
  for c = 0 to nm - 1 do
    if is_unit c then begin
      let l = ref None in
      each_read c (fun r q rq ->
          if scheduled q rq then
            l := Some (max (Option.value !l ~default:min_int) (pos q rq - (k.(c) * r)))
          else if roles.(q) = Ring || (1 <= rq && rq <= rows_of q) then
            (* only a live-out's ghost rows, filled before the loop,
               are read without being computed in it *)
            invalid_arg "C_emit: a row pipeline reads a row its producer does not compute");
      lag.(c) <- Option.value !l ~default:0
    end
  done;
  (* ring lengths: the rows written since the oldest one a read needs *)
  let len = Array.make nm 1 in
  for c = 0 to nm - 1 do
    if is_unit c then
      each_read c (fun r q rq ->
          if roles.(q) = Ring then begin
            let last = min (region q).Box.hi.(0) (Box.fdiv (pos c r - lag.(q)) k.(q)) in
            len.(q) <- max len.(q) (last - rq + 1)
          end)
  done;
  let width p = (Box.widths (region p)).(1) in
  let ring p = Printf.sprintf "_ring_%d_%d" gid p in
  let ring_store p =
    { cname = ring p;
      cstrides = [| string_of_int (width p); "1" |];
      corg = [| "0"; string_of_int (region p).Box.lo.(1) |];
      cring = Some len.(p) }
  in
  let store_of c i =
    let m = members.(c) in
    match m.Plan.src_of.(i) with
    | Plan.P_input idx -> `S (input_store idx)
    | Plan.P_array a ->
      `S (array_store a ~of_func:m.Plan.compiled.Compile.producers.(i))
    | Plan.P_member q -> (
      match roles.(q) with
      | Out a -> `S (array_store a ~of_func:members.(q).Plan.func.Func.id)
      | Ring -> `S (ring_store q)
      | Inline _ -> `V q)
  in
  let dst c =
    match roles.(c) with
    | Out a -> array_store a ~of_func:members.(c).Plan.func.Func.id
    | Ring | Inline _ -> ring_store c
  in
  let cols c =
    match roles.(c) with
    | Out _ ->
      let b = snd boxes.(c) in
      (b.Box.lo.(1), b.Box.hi.(1))
    | Ring | Inline _ ->
      let b = region c in
      (max b.Box.lo.(1) 1, min b.Box.hi.(1) members.(c).Plan.sizes.(1))
  in
  (* unit [c]'s row [i] (declared by the caller); only a linear member
     is inlined *)
  let emit_row ~pad c =
    if not (linear c) then gen_error fmt pad members.(c)
    else begin
      let split =
        List.exists (fun (k : Compile.case_t) -> k.Compile.parity <> None)
          (List.concat_map cases (c :: inlined c))
      in
      let cl, cu = cols c in
      let row pi pad =
        let rows = ref [] in
        let col pj =
          match pj with
          | None -> plain_coord 1
          | Some p -> { name = "jh"; scale = 2; phase = p }
        in
        let case_of p pj =
          match
            List.find_opt
              (fun (k : Compile.case_t) ->
                match k.Compile.parity with
                | None -> true
                | Some pa -> pa.(0) = pi && Some pa.(1) = pj)
              (cases p)
          with
          | Some k -> k
          | None -> invalid_arg "C_emit: a row pipeline point without a case"
        in
        let vname v pj =
          match pj with
          | None -> Printf.sprintf "_v%d" v
          | Some p -> Printf.sprintf "_v%d_%d" v p
        in
        (* the statements of one point of column parity [pj] *)
        let point pj =
          let target =
            row_ref ~rows ~write:true (dst c) (self_accs 2)
              ~coords:(fun d -> if d = 0 then plain_coord 0 else col pj)
          in
          let rhs p =
            let case = case_of p pj in
            let coords d =
              if d = 1 then col pj
              else if case.Compile.parity = None then plain_coord 0
              else { name = "ih"; scale = 2; phase = pi }
            in
            match case.Compile.kernel with
            | Compile.Gen _ -> assert false
            | Compile.Lin { base; terms } ->
              lin_parts base terms ~read:(fun i accs ->
                  match store_of p i with
                  | `S st -> row_ref ~coords ~rows ~write:false st accs
                  | `V v -> vname v pj)
          in
          let defs =
            List.map
              (fun v -> Printf.sprintf "const double %s = %s;" (vname v pj) (sum (rhs v)))
              (inlined c)
          in
          let parts = rhs c in
          let stmts = defs @ [ Printf.sprintf "%s = %s;" target (sum parts) ] in
          (stmts, defs <> [] || parts <> [])
        in
        let variants = if split then [ Some 0; Some 1 ] else [ None ] in
        let points = List.map (fun pj -> (pj, point pj)) variants in
        if split then pf fmt "%sconst int ih = i / 2;@," pad;
        List.iter
          (fun ((write, init), n) ->
            pf fmt "%s%sdouble *%s = %s;@," pad (if write then "" else "const ") n init)
          !rows;
        let simd = List.exists (fun (_, (_, nz)) -> nz) points in
        let loop ~simd x a b stmts =
          if simd then pf fmt "%s#pragma omp simd@," pad;
          pf fmt "%sfor (int %s = %d; %s <= %d; %s++)%s@," pad x a x b x
            (match stmts with [ _ ] -> "" | _ -> " {");
          List.iter (pf fmt "%s  %s@," pad) stmts;
          match stmts with [ _ ] -> () | _ -> pf fmt "%s}@," pad
        in
        match points with
        | [ (None, (stmts, _)) ] -> loop ~simd "j" cl cu stmts
        | _ ->
          let range p = (Box.fdiv (cl - p + 1) 2, Box.fdiv (cu - p) 2) in
          let both =
            List.map (fun (pj, (stmts, _)) -> (range (Option.get pj), stmts)) points
          in
          let lo = List.fold_left (fun acc ((a, _), _) -> max acc a) min_int both in
          let hi = List.fold_left (fun acc ((_, b), _) -> min acc b) max_int both in
          (* the half indices one parity has alone (at most one at
             each end of a row of two or more points): no pragma *)
          List.iter
            (fun ((a, _), stmts) -> if a < lo then loop ~simd:false "jh" a (lo - 1) stmts)
            both;
          loop ~simd "jh" lo hi (List.concat_map snd both);
          List.iter
            (fun ((_, b), stmts) -> if b > hi then loop ~simd:false "jh" (hi + 1) b stmts)
            both
      in
      if split then begin
        pf fmt "%sif ((i & 1) == 0) {@," pad;
        row 0 (pad ^ "  ");
        pf fmt "%s} else {@," pad;
        row 1 (pad ^ "  ");
        pf fmt "%s}@," pad
      end
      else row 0 pad
    end
  in
  pf fmt "@,  /* ---- group %d: %d overlapped tiles %s over %s ---- */@," gid
    (Array.length tg.Plan.tiles)
    (String.concat "x" (Array.to_list (Array.map string_of_int tg.Plan.tile_sizes)))
    refm.Regions.func.Func.name;
  pf fmt "  /* run here as a row pipeline over the whole grid: at _p, each@,";
  pf fmt "   * stored stage computes one row at a fixed lag behind the rows@,";
  pf fmt "   * it reads; every point is computed once, from the values the@,";
  pf fmt "   * tiles read, so results are bit-identical */@,";
  Array.iter
    (fun (m : Plan.member) ->
      match m.Plan.array_id with
      | None -> ()
      | Some a ->
        let st = array_store a ~of_func:m.Plan.func.Func.id in
        pf fmt "  /* ghost rim of live-out %s */@," m.Plan.func.Func.name;
        emit_rim fmt ~dims:2 ~dst:st ~lb:(zeros 2)
          ~ub:(Array.map (fun s -> string_of_int (s + 1)) m.Plan.sizes)
          ~msz:m.Plan.sizes ~bnd:m.Plan.compiled.Compile.boundary ~indent:2)
    members;
  pf fmt "  {@,";
  let bnd p = fstr members.(p).Plan.compiled.Compile.boundary in
  Array.iteri
    (fun p role ->
      match role with
      | Ring ->
        let b = region p in
        pf fmt "    /* %s: rows %d..%d in a ring of %d */@," (name p) b.Box.lo.(0)
          b.Box.hi.(0) len.(p);
        pf fmt "    double %s[%d * %d];@," (ring p) len.(p) (width p);
        if b.Box.lo.(1) < 1 || b.Box.hi.(1) > members.(p).Plan.sizes.(1) then
          pf fmt "    for (int _k = 0; _k < %d; _k++) %s[_k] = %s; /* ghost columns */@,"
            (len.(p) * width p) (ring p) (bnd p)
      | Out _ -> ()
      | Inline c -> pf fmt "    /* %s: inlined into %s */@," (name p) (name c))
    roles;
  let units = List.filter is_unit all in
  let positions =
    List.concat_map
      (fun p ->
        let lo, hi = span p in
        List.map (pos p) ((if lo <= hi then [ lo; hi ] else []) @ ghosts p))
      units
  in
  pf fmt "    for (int _p = %d; _p <= %d; _p++) {@,"
    (List.fold_left min max_int positions) (List.fold_left max min_int positions);
  let ghost p r =
    pf fmt "      if (_p == %d) { /* %s: ghost row %d */@," (pos p r) (name p) r;
    pf fmt "        double *_g = %s + %d;@," (ring p) (r mod len.(p) * width p);
    pf fmt "        for (int j = 0; j < %d; j++) _g[j] = %s;@," (width p) (bnd p);
    pf fmt "      }@,"
  in
  List.iter
    (fun c ->
      let lo, hi = span c in
      List.iter (ghost c) (List.filter (fun r -> r < lo) (ghosts c));
      if lo <= hi then begin
        let a = pos c lo and b = pos c hi in
        pf fmt
          "      if (LIKELY(_p >= %d && _p <= %d%s)) { /* stage %s%s: row i at _p = %d*i %c %d */@,"
          a b
          (if k.(c) > 1 then Printf.sprintf " && (_p - %d) %% %d == 0" a k.(c) else "")
          (name c)
          (match inlined c with
          | [] -> ""
          | l -> Printf.sprintf " (%s inlined)" (String.concat ", " (List.map name l)))
          k.(c)
          (if lag.(c) < 0 then '-' else '+')
          (abs lag.(c));
        pf fmt "        const int i = %s;@," (row_expr k.(c) lag.(c));
        emit_row ~pad:"        " c;
        pf fmt "      }@,"
      end;
      List.iter (ghost c) (List.filter (fun r -> r > hi) (ghosts c)))
    units;
  pf fmt "    }@,";
  pf fmt "  }@,"

(* ------------------------------------------------------------------ *)
(* Diamond group emission: the chain over the whole grid, in one of two
   loop orders.

   The diamond/skewed schedule computes each (t, x) value exactly once,
   from iterate t-1, so any order that does the same is bit-identical to
   the tiled execution: the tiling only reorders whole-row computations.
   Step 1 reads the chain's init source; steps 2..T read and write the
   two ping-pong buffers, and step t writes the output array when T - t
   is even, the modulo buffer otherwise.  A run of steps whose bodies
   print alike is printed once, as one [for (int _s ...)] loop: every
   step still runs the same text on the same buffers as when unrolled.

   - Step loop: step 1 over the whole grid, then steps 2..T one after
     another through the pointers [_pin] (iterate t-1) and [_pout]
     (iterate t), swapped after each step.
   - Row wavefront ([wavefront]): one loop over positions [_p], where
     steps 1..T in turn compute one row each, step s row [_p - (s-1)],
     so a row is reused by the next step while it is still in L1.
     Step s reads rows i-1..i+1 of iterate s-1, which step s-1 finished
     at [_p] (its row is i+1), and overwrites row i of iterate s-2,
     whose last reader, step s-1 at row i+1, ran just before it.  That
     needs stencil radius <= 1 across rows, which [Plan.build]'s
     footprint check guarantees for same-size stages. *)

let swap_ptrs = "double *_sw = _pin; _pin = _pout; _pout = _sw;"

(* The lines [f] prints into a vertical box. *)
let lines_of f =
  Format.asprintf "@[<v 0>%t@]" f
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

(* Maximal runs of equal values in [l]: (value, first index, last
   index), indices counted from [first]. *)
let runs ~first l =
  List.fold_left
    (fun (acc, i) x ->
      match acc with
      | (y, a, _) :: rest when y = x -> ((y, a, i) :: rest, i + 1)
      | _ -> ((x, i, i) :: acc, i + 1))
    ([], first) l
  |> fst |> List.rev

let emit_diamond fmt ~(input_store : int -> cstore)
    ~(array_store : int -> of_func:int -> cstore) ~dtmp_off
    (dg : Plan.diamond_group) =
  let nsteps = Array.length dg.Plan.steps in
  let last = dg.Plan.steps.(nsteps - 1) in
  let dims = Array.length dg.Plan.sizes in
  let wave = outgrows_l1 dg.Plan.sizes in
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
  if wave then begin
    pf fmt "  /* run here as a row wavefront: at _p, step s computes row@,";
    pf fmt "   * _p - (s-1) of the whole grid; every (t, x) row is computed@,";
    pf fmt "   * once, from the rows the tiles read, so results are@,";
    pf fmt "   * bit-identical */@,"
  end
  else begin
    pf fmt "  /* run here as a step loop over the whole grid (%s):@,"
      (if dims = 2 then "it fits L1" else Printf.sprintf "a %d-D chain" dims);
    pf fmt "   * every (t, x) row is computed once, from the rows the@,";
    pf fmt "   * tiles read, so results are bit-identical */@,"
  end;
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
  let tmp_name = Printf.sprintf "_dtmp_%d" dg.Plan.gid in
  let out_store = array_store out_arr ~of_func:last.Plan.func.Func.id in
  let tmp_store = full_store tmp_name dg.Plan.sizes in
  if out_store.cstrides <> tmp_store.cstrides then
    invalid_arg "C_emit: diamond output and modulo buffer differ in shape";
  pf fmt "  {@,";
  pf fmt "    double *%s = _arena + %d;@," tmp_name dtmp_off;
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
  (* the body of step [t] (1-based), reading iterate t-1 from [prev]
     and writing iterate t to [dst]: over the whole grid, or over the
     one row [row] *)
  let body ?row t ~prev ~dst =
    let step = t - 1 in
    let m = dg.Plan.steps.(step) in
    let stores =
      Array.mapi
        (fun i src ->
          if i = dg.Plan.prev_pos.(step) then
            match prev with
            | Some s -> s
            | None -> invalid_arg "C_emit: missing diamond init source"
          else
            match src with
            | Plan.P_input idx -> input_store idx
            | Plan.P_array a ->
              array_store a ~of_func:m.Plan.compiled.Compile.producers.(i)
            | Plan.P_member _ ->
              invalid_arg "C_emit: scratch read inside a diamond chain")
        m.Plan.src_of
    in
    lines_of (fun fmt ->
        emit_cases ?row fmt ~member:m ~stores ~dst
          ~lb:(Array.make dims "1")
          ~ub:(Array.map string_of_int dg.Plan.sizes)
          ~indent:(if wave then 8 else 6))
  in
  let stage t = dg.Plan.steps.(t - 1).Plan.func.Func.name in
  let pin = { tmp_store with cname = "_pin" } in
  let pout = { tmp_store with cname = "_pout" } in
  (* steps 2..T as runs of steps that print alike *)
  let step_runs ?row () =
    runs ~first:2
      (List.init (nsteps - 1) (fun i ->
           body ?row (i + 2) ~prev:(Some pin) ~dst:pout))
  in
  let run_comment ~indent a b =
    pf fmt "%s/* t = %d..%d: stages %s */@," indent a b
      (String.concat ", " (List.init (b - a + 1) (fun i -> stage (a + i))))
  in
  if wave then begin
    let rows = dg.Plan.sizes.(0) in
    pf fmt "    for (int _p = 1; _p <= %d; _p++) {@," (rows + nsteps - 1);
    (* step [t] alone, at row _p - (t-1) while that is a grid row *)
    let single t ~prev =
      pf fmt "      if (_p >= %d && _p <= %d) { /* t = %d: stage %s */@," t
        (rows + t - 1) t (stage t);
      let row = if t = 1 then "_p" else Printf.sprintf "_p - %d" (t - 1) in
      List.iter (pf fmt "%s@,") (body ~row t ~prev ~dst:(buf_of t));
      pf fmt "      }@,"
    in
    single 1 ~prev:init_store;
    List.iter
      (fun (lines, a, b) ->
        if a = b then single a ~prev:(Some (buf_of (a - 1)))
        else begin
          run_comment ~indent:"      " a b;
          pf fmt "      for (int _s = max(%d, _p - %d); _s <= min(%d, _p); _s++) {@,"
            a (rows - 1) b;
          let odd = (buf_of 1).cname and even = (buf_of 2).cname in
          pf fmt "        double *_pin = (_s & 1) ? %s : %s, *_pout = (_s & 1) ? %s : %s;@,"
            even odd odd even;
          List.iter (pf fmt "%s@,") lines;
          pf fmt "      }@,"
        end)
      (step_runs ~row:"_p - (_s - 1)" ());
    pf fmt "    }@,"
  end
  else begin
    pf fmt "    { /* t = 1: stage %s */@," (stage 1);
    List.iter (pf fmt "%s@,") (body 1 ~prev:init_store ~dst:(buf_of 1));
    pf fmt "    }@,";
    if nsteps > 1 then begin
      pf fmt "    double *_pin = %s, *_pout = %s;@," (buf_of 1).cname
        (buf_of 2).cname;
      List.iter
        (fun (lines, a, b) ->
          if a = b then pf fmt "    { /* t = %d: stage %s */@," a (stage a)
          else begin
            run_comment ~indent:"    " a b;
            pf fmt "    for (int _s = %d; _s <= %d; _s++) {@," a b
          end;
          List.iter (pf fmt "%s@,") lines;
          pf fmt "      %s@,    }@," swap_ptrs)
        (step_runs ())
    end
  end;
  pf fmt "  }@,"

(* ------------------------------------------------------------------ *)
(* Arena layout: the pipeline allocates nothing.  Its outputs are the
   caller's buffers; every other full array, and every diamond group's
   modulo buffer, sits at a fixed offset of one caller-provided arena.
   Two buffers may share bytes when their live windows are disjoint: an
   array is live from the group that acquires it to the one after which
   it is released, a modulo buffer in its own group only.  Buffers are
   placed first-fit, largest first (ties by array index, then by
   group), at offsets rounded to 64 bytes. *)

type layout = {
  array_off : int option array;
  dtmp_off : int option array;
  len : int;
}

let round8 len = (len + 7) land lnot 7

let layout (plan : Plan.t) =
  let array_off = Array.make (Array.length plan.Plan.arrays) None in
  let dtmp_off = Array.make (Array.length plan.Plan.groups) None in
  (* (doubles, window, tie-break key, where the offset goes) *)
  let buffers =
    List.concat
      (List.mapi
         (fun a (info : Plan.array_info) ->
           if info.Plan.output then []
           else
             [ ( round8 info.Plan.len,
                 (info.Plan.first_group, info.Plan.last_group),
                 (0, a), fun off -> array_off.(a) <- Some off ) ])
         (Array.to_list plan.Plan.arrays))
    @ List.concat_map
        (function
          | Plan.G_tiled _ -> []
          | Plan.G_diamond dg ->
            let g = dg.Plan.gid in
            [ ( round8 (Grid.ghosted_len dg.Plan.sizes), (g, g), (1, g),
                fun off -> dtmp_off.(g) <- Some off ) ])
        (Array.to_list plan.Plan.groups)
  in
  (* placed (offset, end, window), by offset: the least offset clear of
     every placed buffer whose window meets this one's *)
  let placed =
    List.fold_left
      (fun placed (size, (lo, hi), _, set) ->
        let off =
          List.fold_left
            (fun off (o, e, (lo', hi')) ->
              if lo <= hi' && lo' <= hi && off + size > o && e > off then e
              else off)
            0 placed
        in
        set off;
        List.merge compare [ (off, off + size, (lo, hi)) ] placed)
      []
      (List.stable_sort
         (fun (s1, _, k1, _) (s2, _, k2, _) -> compare (-s1, k1) (-s2, k2))
         buffers)
  in
  { array_off; dtmp_off;
    len = List.fold_left (fun acc (_, e, _) -> max acc e) 0 placed }

let arena_bytes plan = 8 * (layout plan).len

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
  let out_names =
    List.map (fun (_, a) -> Printf.sprintf "_arr_%d" a) plan.Plan.output_arrays
  in
  (* inputs are const: a kernel that stores into one does not compile *)
  pf fmt "void pipeline_%s(int N, %s, double *_arena)@,{@,"
    (c_ident (Pipeline.name pipeline))
    (String.concat ", "
       (List.map (Printf.sprintf "const double *%s") in_names
       @ List.map (Printf.sprintf "double *%s") out_names));
  pf fmt "  (void) N;@,";
  let lay = layout plan in
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
    (fun a off ->
      pf fmt "  /* users: [%s] */@," (String.concat "; " (List.rev users.(a)));
      match off with
      | Some off -> pf fmt "  double *_arr_%d = _arena + %d;@," a off
      | None -> pf fmt "  /* _arr_%d: output, the caller's buffer */@," a)
    lay.array_off;
  Array.iter
    (fun g ->
      match g with
      | Plan.G_tiled tg when wavefront g -> emit_rows fmt ~input_store ~array_store tg
      | Plan.G_tiled tg -> emit_tiled fmt ~input_store ~array_store tg
      | Plan.G_diamond dg ->
        let dtmp_off = Option.get lay.dtmp_off.(dg.Plan.gid) in
        emit_diamond fmt ~input_store ~array_store ~dtmp_off dg)
    plan.Plan.groups;
  pf fmt "}@,"

let emit_prelude fmt (plan : Plan.t) =
  pf fmt "/* Generated by PolyMG (OCaml engine): pipeline %s, N = %d, variant %s */@,"
    (Pipeline.name plan.Plan.pipeline)
    plan.Plan.n
    (Options.name plan.Plan.opts);
  pf fmt "#include <math.h>@,@,";
  pf fmt "#ifndef max@,#define max(a, b) ((a) > (b) ? (a) : (b))@,#endif@,";
  pf fmt "#ifndef min@,#define min(a, b) ((a) < (b) ? (a) : (b))@,#endif@,";
  pf fmt "#ifdef __GNUC__@,#define NOINLINE __attribute__((noinline))@,";
  pf fmt "#else@,#define NOINLINE@,#endif@,";
  pf fmt "/* floor division, matching the engine for negative numerators */@,";
  pf fmt "#define FDIV(a, b) ((a) >= 0 ? (a) / (b) : -((-(a) + (b) - 1) / (b)))@,@,";
  if Array.exists (function Plan.G_tiled _ as g -> wavefront g | Plan.G_diamond _ -> false)
       plan.Plan.groups
  then begin
    (* a row pipeline's stage guards hold at almost every position:
       without the hint gcc lays their bodies out as cold code, with
       spilled row pointers and a division for each ring row *)
    pf fmt "#ifdef __GNUC__@,#define LIKELY(x) __builtin_expect(!!(x), 1)@,";
    pf fmt "#else@,#define LIKELY(x) (x)@,#endif@,@,"
  end

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

(* ------------------------------------------------------------------ *)
(* The native entry point                                               *)

let entry_symbol = "polymg_entry"

(* The entry hands the pipeline the caller's buffers: inputs, outputs,
   then the kernel's arena. *)
let entry_source (plan : Plan.t) =
  match runnable plan with
  | Error e -> Error e
  | Ok () ->
    let nbufs =
      Array.length plan.Plan.inputs + List.length plan.Plan.output_arrays + 1
    in
    let b = Buffer.create 65536 in
    let pf fmt = Printf.bprintf b fmt in
    Buffer.add_string b (to_string plan);
    pf "\n/* ---- native backend glue ---- */\n\n";
    pf "int %s(double **bufs)\n{\n" entry_symbol;
    pf "  %s(%d, %s);\n" (pipeline_symbol plan) plan.Plan.n
      (String.concat ", " (List.init nbufs (Printf.sprintf "bufs[%d]")));
    pf "  return 0;\n}\n";
    Ok (Buffer.contents b)
