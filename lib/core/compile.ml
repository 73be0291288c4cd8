open Repro_ir
open Repro_poly
module Buf = Repro_grid.Buf

type source = { data : Buf.data; strides : int array; org : int array }

let source_index src coords =
  let acc = ref 0 in
  Array.iteri
    (fun k s -> acc := !acc + ((coords.(k) - src.org.(k)) * s))
    src.strides;
  !acc

type term = { coef : float; pos : int; accs : Expr.access array }

type case_kernel =
  | Lin of { base : float; terms : term array }
  | Gen of (source array -> int array -> float)

type case_t = {
  parity : int array option;
  kernel : case_kernel;
}

type t = {
  func : Func.t;
  producers : int array;
  boundary : float;
  cases : case_t list;
  run :
    srcs:source array -> dst:source -> interior:Box.t -> region:Box.t -> unit;
}

let fdiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)

let apply_access (a : Expr.access) x = fdiv ((a.mul * x) + a.add) a.den + a.off

(* ------------------------------------------------------------------ *)
(* Linearization                                                       *)

let linearize e ~params =
  (* terms as (func id, accesses) -> coef, plus a constant *)
  let exception Nonlinear in
  let rec go e =
    (* returns (constant, term list) *)
    match e with
    | Expr.Const c -> (c, [])
    | Expr.Param s -> (params s, [])
    | Expr.Coord _ -> raise Nonlinear
    | Expr.Load (f, a) -> (0.0, [ (1.0, f, a) ])
    | Expr.Unop (Neg, x) ->
      let c, ts = go x in
      (-.c, List.map (fun (w, f, a) -> (-.w, f, a)) ts)
    | Expr.Unop ((Abs | Sqrt), _) -> raise Nonlinear
    | Expr.Binop (Add, x, y) ->
      let cx, tx = go x and cy, ty = go y in
      (cx +. cy, tx @ ty)
    | Expr.Binop (Sub, x, y) ->
      let cx, tx = go x and cy, ty = go y in
      (cx -. cy, tx @ List.map (fun (w, f, a) -> (-.w, f, a)) ty)
    | Expr.Binop (Mul, x, y) -> (
      let cx, tx = go x and cy, ty = go y in
      match (tx, ty) with
      | [], _ -> (cx *. cy, List.map (fun (w, f, a) -> (cx *. w, f, a)) ty)
      | _, [] -> (cx *. cy, List.map (fun (w, f, a) -> (cy *. w, f, a)) tx)
      | _ -> raise Nonlinear)
    | Expr.Binop (Div, x, y) -> (
      let cx, tx = go x and cy, ty = go y in
      match ty with
      | [] ->
        if cy = 0.0 then raise Nonlinear
        else (cx /. cy, List.map (fun (w, f, a) -> (w /. cy, f, a)) tx)
      | _ -> raise Nonlinear)
    | Expr.Binop ((Min | Max), _, _) -> raise Nonlinear
  in
  match go e with
  | c, terms ->
    (* merge duplicate (func, access) terms *)
    let merged = ref [] in
    List.iter
      (fun (w, f, a) ->
        match
          List.find_opt (fun (_, f', a') -> f = f' && a = a') !merged
        with
        | Some (w', _, _) ->
          merged :=
            List.map
              (fun (w0, f0, a0) ->
                if f0 = f && a0 = a then (w0 +. w, f0, a0) else (w0, f0, a0))
              !merged;
          ignore w'
        | None -> merged := !merged @ [ (w, f, a) ])
      terms;
    Some (c, !merged)
  | exception Nonlinear -> None

(* ------------------------------------------------------------------ *)
(* Reference interpreter                                               *)

let rec eval_expr e ~params ~lookup coords =
  match e with
  | Expr.Const c -> c
  | Expr.Param s -> params s
  | Expr.Coord k -> float_of_int coords.(k)
  | Expr.Load (f, accs) ->
    let d = Array.length accs in
    let pc = Array.make d 0 in
    for k = 0 to d - 1 do
      pc.(k) <- apply_access accs.(k) coords.(k)
    done;
    lookup f pc
  | Expr.Unop (Neg, x) -> -.eval_expr x ~params ~lookup coords
  | Expr.Unop (Abs, x) -> Float.abs (eval_expr x ~params ~lookup coords)
  | Expr.Unop (Sqrt, x) -> sqrt (eval_expr x ~params ~lookup coords)
  | Expr.Binop (op, x, y) ->
    let a = eval_expr x ~params ~lookup coords
    and b = eval_expr y ~params ~lookup coords in
    (match op with
     | Add -> a +. b
     | Sub -> a -. b
     | Mul -> a *. b
     | Div -> a /. b
     | Min -> Float.min a b
     | Max -> Float.max a b)

(* ------------------------------------------------------------------ *)
(* Region iteration helpers                                            *)

(* First x >= lo with x ≡ p (mod m). *)
let align_lo lo p m = lo + (((p - lo) mod m) + m) mod m

let fill_box (dst : source) (b : Box.t) v =
  if not (Box.is_empty b) then begin
    let d = Box.rank b in
    match d with
    | 2 ->
      for i = b.Box.lo.(0) to b.Box.hi.(0) do
        let base =
          ((i - dst.org.(0)) * dst.strides.(0))
          + ((b.Box.lo.(1) - dst.org.(1)) * dst.strides.(1))
        in
        let s = dst.strides.(1) in
        for c = 0 to b.Box.hi.(1) - b.Box.lo.(1) do
          Bigarray.Array1.unsafe_set dst.data (base + (c * s)) v
        done
      done
    | 3 ->
      for i = b.Box.lo.(0) to b.Box.hi.(0) do
        for j = b.Box.lo.(1) to b.Box.hi.(1) do
          let base =
            ((i - dst.org.(0)) * dst.strides.(0))
            + ((j - dst.org.(1)) * dst.strides.(1))
            + ((b.Box.lo.(2) - dst.org.(2)) * dst.strides.(2))
          in
          let s = dst.strides.(2) in
          for c = 0 to b.Box.hi.(2) - b.Box.lo.(2) do
            Bigarray.Array1.unsafe_set dst.data (base + (c * s)) v
          done
        done
      done
    | _ ->
      let idx = Array.copy b.Box.lo in
      let rec go k =
        if k = d then
          Bigarray.Array1.unsafe_set dst.data (source_index dst idx) v
        else
          for x = b.Box.lo.(k) to b.Box.hi.(k) do
            idx.(k) <- x;
            go (k + 1)
          done
      in
      go 0
  end

(* Fill region \ interior with the boundary value: peel one slab per face. *)
let fill_rim dst ~region ~interior v =
  let d = Box.rank region in
  let cur = ref region in
  for k = 0 to d - 1 do
    let c = !cur in
    if not (Box.is_empty c) then begin
      let ilo = interior.Box.lo.(k) and ihi = interior.Box.hi.(k) in
      if c.Box.lo.(k) < ilo then begin
        let hi = Array.copy c.Box.hi in
        hi.(k) <- Int.min c.Box.hi.(k) (ilo - 1);
        fill_box dst (Box.v ~lo:c.Box.lo ~hi) v
      end;
      if c.Box.hi.(k) > ihi then begin
        let lo = Array.copy c.Box.lo in
        lo.(k) <- Int.max c.Box.lo.(k) (ihi + 1);
        fill_box dst (Box.v ~lo ~hi:c.Box.hi) v
      end;
      let lo = Array.copy c.Box.lo and hi = Array.copy c.Box.hi in
      lo.(k) <- Int.max lo.(k) ilo;
      hi.(k) <- Int.min hi.(k) ihi;
      cur := Box.v ~lo ~hi
    end
  done

(* ------------------------------------------------------------------ *)
(* Linear-stencil execution                                            *)

(* A linear case is executable by affine index walks iff every access
   division is exact on the case's parity lattice. *)
let case_is_affine ~parity terms =
  Array.for_all
    (fun t ->
      Array.for_all
        (fun k ->
          let a = t.accs.(k) in
          match a.Expr.den with
          | 1 -> true
          | 2 -> (
            match parity with
            | None -> false
            | Some p -> ((a.Expr.mul * p.(k)) + a.Expr.add) mod 2 = 0)
          | _ -> false)
        (Array.init (Array.length t.accs) Fun.id))
    terms

(* Innermost-dimension loop for terms that do not form a walk: one cursor
   per term.  [start.(t)] is term [t]'s buffer index at the first point;
   [step.(t)] its per-point increment.  The destination walks from
   [didx0] by [dstep]. *)
let inner_generic ~n1 ~base ~(dst : Buf.data) ~didx0 ~dstep ~coef ~data
    ~start ~step =
  let nt = Array.length coef in
  let cur = Array.copy start in
  let di = ref didx0 in
  for _ = 1 to n1 do
    let acc = ref base in
    for t = 0 to nt - 1 do
      acc :=
        !acc
        +. (Array.unsafe_get coef t
            *. Bigarray.Array1.unsafe_get (Array.unsafe_get data t)
                 (Array.unsafe_get cur t));
      Array.unsafe_set cur t (Array.unsafe_get cur t + Array.unsafe_get step t)
    done;
    Bigarray.Array1.unsafe_set dst !di !acc;
    di := !di + dstep
  done

(* Iterate the outer dimensions; fill [cur] with each term's buffer index
   at the row start and hand the destination row index to [run_row]. *)
let iterate_rows ~d ~counts ~nt ~(tbase : int array) ~tstep ~dbase ~dstep
    ~(cur : int array) ~run_row =
  match d with
  | 1 ->
    Array.blit tbase 0 cur 0 nt;
    run_row dbase
  | 2 ->
    for r = 0 to counts.(0) - 1 do
      for t = 0 to nt - 1 do
        cur.(t) <- tbase.(t) + (r * tstep.(t).(0))
      done;
      run_row (dbase + (r * dstep.(0)))
    done
  | 3 ->
    for q = 0 to counts.(0) - 1 do
      for r = 0 to counts.(1) - 1 do
        for t = 0 to nt - 1 do
          cur.(t) <- tbase.(t) + (q * tstep.(t).(0)) + (r * tstep.(t).(1))
        done;
        run_row (dbase + (q * dstep.(0)) + (r * dstep.(1)))
      done
    done
  | _ ->
    let total_outer = ref 1 in
    for k = 0 to d - 2 do
      total_outer := !total_outer * counts.(k)
    done;
    for flat = 0 to !total_outer - 1 do
      let rem = ref flat in
      let didx = ref dbase in
      for t = 0 to nt - 1 do
        cur.(t) <- tbase.(t)
      done;
      for k = d - 2 downto 0 do
        let r = !rem mod counts.(k) in
        rem := !rem / counts.(k);
        didx := !didx + (r * dstep.(k));
        for t = 0 to nt - 1 do
          cur.(t) <- cur.(t) + (r * tstep.(t).(k))
        done
      done;
      run_row !didx
    done

let run_lin_terms ~(srcs : source array) ~(dst : source) ~d ~m ~start
    ~counts ~base ~(terms : term array) =
  let nt = Array.length terms in
  (* index of term t at the lattice origin, and per-dim lattice steps *)
  let tstep = Array.make_matrix nt d 0 in
  let tbase = Array.make nt 0 in
  let coef = Array.make nt 0.0 in
  let data = Array.make nt srcs.(terms.(0).pos).data in
  for t = 0 to nt - 1 do
    let src = srcs.(terms.(t).pos) in
    let b = ref 0 in
    for k = 0 to d - 1 do
      let a = terms.(t).accs.(k) in
      b := !b + ((apply_access a start.(k) - src.org.(k)) * src.strides.(k));
      tstep.(t).(k) <- a.Expr.mul * m / a.Expr.den * src.strides.(k)
    done;
    tbase.(t) <- !b;
    coef.(t) <- terms.(t).coef;
    data.(t) <- src.data
  done;
  let dstep = Array.init d (fun k -> m * dst.strides.(k)) in
  let dbase = ref 0 in
  for k = 0 to d - 1 do
    dbase := !dbase + ((start.(k) - dst.org.(k)) * dst.strides.(k))
  done;
  let n1 = counts.(d - 1) in
  let inner_dstep = dstep.(d - 1) in
  let step = Array.init nt (fun t -> tstep.(t).(d - 1)) in
  let cur = Array.make nt 0 in
  (* Walk detection: when every term but the last (or else every term but
     the first) shares one buffer and one inner-dimension step, those
     terms run as a walk (one cursor, constant deltas — the register shape
     of the generated C) and the remaining term as the stream beside it.
     The kernels add [base], then the terms in case order, as the emitted
     C does.  Anything else runs [inner_generic]. *)
  let shares lo hi =
    let ok = ref true in
    for t = lo + 1 to hi do
      if not (data.(t) == data.(lo) && step.(t) = step.(lo)) then ok := false
    done;
    !ok
  in
  let stream_last = shares 0 (nt - 2) in
  if stream_last || shares 1 (nt - 1) then begin
    let first = not stream_last in
    let s = if first then 0 else nt - 1 in
    let m0 = if first then 1 else 0 in
    let k = nt - 1 in
    let main = data.(m0) and mstep = step.(m0) in
    let aux = data.(s) and ac = coef.(s) and astep = step.(s) in
    let wcoef = Array.sub coef m0 k in
    let wdelta = Array.make k 0 in
    let run_row didx0 =
      let b0 = cur.(m0) and a0 = cur.(s) in
      for t = 1 to k - 1 do
        wdelta.(t) <- cur.(m0 + t) - b0
      done;
      let c t = wcoef.(t) and dl t = wdelta.(t) in
      match (first, nt) with
      | false, 1 ->
        Walks.last1 ~n1 ~base ~dst:dst.data ~didx0 ~dstep:inner_dstep ~aux ~ac
          ~a0 ~astep
      | false, 2 ->
        Walks.last2 ~n1 ~base ~dst:dst.data ~didx0 ~dstep:inner_dstep ~main
          ~b0 ~step:mstep ~c0:(c 0) ~aux ~ac ~a0 ~astep
      | false, 4 ->
        Walks.last4 ~n1 ~base ~dst:dst.data ~didx0 ~dstep:inner_dstep ~main
          ~b0 ~step:mstep ~c0:(c 0) ~c1:(c 1) ~d1:(dl 1) ~c2:(c 2) ~d2:(dl 2)
          ~aux ~ac ~a0 ~astep
      | false, 6 ->
        Walks.last6 ~n1 ~base ~dst:dst.data ~didx0 ~dstep:inner_dstep ~main
          ~b0 ~step:mstep ~c0:(c 0) ~c1:(c 1) ~d1:(dl 1) ~c2:(c 2) ~d2:(dl 2)
          ~c3:(c 3) ~d3:(dl 3) ~c4:(c 4) ~d4:(dl 4) ~aux ~ac ~a0 ~astep
      | false, 8 ->
        Walks.last8 ~n1 ~base ~dst:dst.data ~didx0 ~dstep:inner_dstep ~main
          ~b0 ~step:mstep ~c0:(c 0) ~c1:(c 1) ~d1:(dl 1) ~c2:(c 2) ~d2:(dl 2)
          ~c3:(c 3) ~d3:(dl 3) ~c4:(c 4) ~d4:(dl 4) ~c5:(c 5) ~d5:(dl 5)
          ~c6:(c 6) ~d6:(dl 6) ~aux ~ac ~a0 ~astep
      | false, 9 ->
        Walks.last9 ~n1 ~base ~dst:dst.data ~didx0 ~dstep:inner_dstep ~main
          ~b0 ~step:mstep ~c0:(c 0) ~c1:(c 1) ~d1:(dl 1) ~c2:(c 2) ~d2:(dl 2)
          ~c3:(c 3) ~d3:(dl 3) ~c4:(c 4) ~d4:(dl 4) ~c5:(c 5) ~d5:(dl 5)
          ~c6:(c 6) ~d6:(dl 6) ~c7:(c 7) ~d7:(dl 7) ~aux ~ac ~a0 ~astep
      | true, 6 ->
        Walks.first6 ~n1 ~base ~dst:dst.data ~didx0 ~dstep:inner_dstep ~main
          ~b0 ~step:mstep ~c0:(c 0) ~c1:(c 1) ~d1:(dl 1) ~c2:(c 2) ~d2:(dl 2)
          ~c3:(c 3) ~d3:(dl 3) ~c4:(c 4) ~d4:(dl 4) ~aux ~ac ~a0 ~astep
      | true, 8 ->
        Walks.first8 ~n1 ~base ~dst:dst.data ~didx0 ~dstep:inner_dstep ~main
          ~b0 ~step:mstep ~c0:(c 0) ~c1:(c 1) ~d1:(dl 1) ~c2:(c 2) ~d2:(dl 2)
          ~c3:(c 3) ~d3:(dl 3) ~c4:(c 4) ~d4:(dl 4) ~c5:(c 5) ~d5:(dl 5)
          ~c6:(c 6) ~d6:(dl 6) ~aux ~ac ~a0 ~astep
      | _ ->
        Walks.kn ~first ~n1 ~base ~dst:dst.data ~didx0 ~dstep:inner_dstep
          ~main ~b0 ~step:mstep ~coef:wcoef ~delta:wdelta ~aux ~ac ~a0 ~astep
    in
    iterate_rows ~d ~counts ~nt ~tbase ~tstep ~dbase:!dbase ~dstep ~cur
      ~run_row
  end
  else begin
    let run_row didx0 =
      inner_generic ~n1 ~base ~dst:dst.data ~didx0 ~dstep:inner_dstep ~coef
        ~data ~start:cur ~step
    in
    iterate_rows ~d ~counts ~nt ~tbase ~tstep ~dbase:!dbase ~dstep ~cur
      ~run_row
  end

(* Iterate the parity sub-lattice of [box]; for each point run the terms.
   [m] = 1 (no parity) or 2. *)
let run_lin ~(srcs : source array) ~(dst : source) ~box ~parity ~base
    ~(terms : term array) =
  if not (Box.is_empty box) then begin
    let d = Box.rank box in
    let m = match parity with None -> 1 | Some _ -> 2 in
    let start = Array.copy box.Box.lo in
    (match parity with
     | None -> ()
     | Some p ->
       for k = 0 to d - 1 do
         start.(k) <- align_lo box.Box.lo.(k) p.(k) m
       done);
    let counts =
      Array.init d (fun k ->
          if start.(k) > box.Box.hi.(k) then 0
          else ((box.Box.hi.(k) - start.(k)) / m) + 1)
    in
    if Array.for_all (fun c -> c > 0) counts then begin
      let nt = Array.length terms in
      if nt = 0 then begin
        (* constant definition: applies to the whole (sub-)lattice *)
        if m = 1 then fill_box dst (Box.v ~lo:start ~hi:box.Box.hi) base
        else begin
          let idx = Array.copy start in
          let rec go k =
            if k = d then
              Bigarray.Array1.unsafe_set dst.data (source_index dst idx) base
            else begin
              let x = ref start.(k) in
              while !x <= box.Box.hi.(k) do
                idx.(k) <- !x;
                go (k + 1);
                x := !x + m
              done
            end
          in
          go 0
        end
      end
      else
        run_lin_terms ~srcs ~dst ~d ~m ~start ~counts ~base ~terms
    end
  end

(* General fallback: per-point interpretation. *)
let run_gen ~(srcs : source array) ~(dst : source) ~box ~parity ~eval
    ~producers =
  if not (Box.is_empty box) then begin
    let d = Box.rank box in
    let m = match parity with None -> 1 | Some _ -> 2 in
    let start = Array.copy box.Box.lo in
    (match parity with
     | None -> ()
     | Some p ->
       for k = 0 to d - 1 do
         start.(k) <- align_lo box.Box.lo.(k) p.(k) m
       done);
    ignore producers;
    let idx = Array.copy start in
    let rec go k =
      if k = d then
        Bigarray.Array1.unsafe_set dst.data (source_index dst idx)
          (eval srcs idx)
      else begin
        let x = ref start.(k) in
        while !x <= box.Box.hi.(k) do
          idx.(k) <- !x;
          go (k + 1);
          x := !x + m
        done
      end
    in
    if Array.for_all2 (fun s h -> s <= h) start box.Box.hi then go 0
  end

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)

let compile (f : Func.t) ~params =
  (match f.Func.kind with
   | Func.Input -> invalid_arg "Compile.compile: cannot compile an input"
   | Func.Pointwise | Func.Smooth _ | Func.Restriction | Func.Interpolation ->
     ());
  let boundary =
    match f.Func.boundary with
    | Func.Dirichlet v -> v
    | Func.Ghost_input -> invalid_arg "Compile.compile: ghost-input stage"
  in
  (* producer binding order: sorted ids *)
  let producers = Array.of_list (Func.producers f) in
  let pos_of id =
    let rec find i =
      if i >= Array.length producers then
        invalid_arg "Compile.compile: unknown producer"
      else if producers.(i) = id then i
      else find (i + 1)
    in
    find 0
  in
  let exprs_with_parity =
    match f.Func.defn with
    | Func.Undefined -> []
    | Func.Def e -> [ (None, e) ]
    | Func.Parity es ->
      List.init (Array.length es) (fun p ->
          let bits = Array.init f.Func.dims (fun k -> (p lsr k) land 1) in
          (Some bits, es.(p)))
  in
  let mk_case (parity, e) =
    let kernel =
      match linearize e ~params with
      | Some (base, raw_terms) ->
        let terms =
          Array.of_list
            (List.map (fun (w, fid, a) -> { coef = w; pos = pos_of fid; accs = a })
               raw_terms)
        in
        if case_is_affine ~parity terms then Lin { base; terms }
        else
          Gen
            (fun srcs coords ->
              eval_expr e ~params
                ~lookup:(fun fid pc ->
                  let src = srcs.(pos_of fid) in
                  Bigarray.Array1.unsafe_get src.data (source_index src pc))
                coords)
      | None ->
        Gen
          (fun srcs coords ->
            eval_expr e ~params
              ~lookup:(fun fid pc ->
                let src = srcs.(pos_of fid) in
                Bigarray.Array1.unsafe_get src.data (source_index src pc))
              coords)
    in
    { parity; kernel }
  in
  let cases = List.map mk_case exprs_with_parity in
  let run ~srcs ~dst ~interior ~region =
    if not (Box.is_empty region) then begin
      if Array.length srcs <> Array.length producers then
        invalid_arg "Compile.run: binding count mismatch";
      fill_rim dst ~region ~interior boundary;
      let inner = Box.inter region interior in
      List.iter
        (fun c ->
          match c.kernel with
          | Lin { base; terms } ->
            run_lin ~srcs ~dst ~box:inner ~parity:c.parity ~base ~terms
          | Gen eval ->
            run_gen ~srcs ~dst ~box:inner ~parity:c.parity ~eval ~producers)
        cases
    end
  in
  { func = f; producers; boundary; cases; run }
