module Grid = Repro_grid.Grid
module Buf = Repro_grid.Buf

(* The operator and the residual are direct strided walks over the
   grids' bigarrays, so the residual the guard checks after every cycle
   allocates nothing.  [get]/[set] are bound at the monomorphic
   [Buf.data] type: bound polymorphically, [unsafe_get] falls back to
   the generic bigarray access, which boxes every float.  The accesses
   are unchecked, so every walk first validates the layout it indexes
   ([check]). *)
let get (a : Buf.data) i = Bigarray.Array1.unsafe_get a i [@@inline]
let set (a : Buf.data) i x = Bigarray.Array1.unsafe_set a i x [@@inline]

(* Grids carry one ghost layer per side, so the interior along dim k is
   [1 .. extents.(k) - 2]; rectangular interiors are supported
   throughout.  A grid with any extent < 3 has no interior and is
   rejected loudly rather than silently looped over, and so is storage
   that is not the dense row-major layout of [Grid.create] (last stride
   1, buffer exactly covering the extents). *)
let check what (g : Grid.t) =
  let ext = g.Grid.extents in
  Array.iter
    (fun e ->
      if e < 3 then
        invalid_arg
          (Printf.sprintf "Verify: extent %d leaves no interior" e))
    ext;
  let len = ref 1 in
  for k = Array.length ext - 1 downto 0 do
    if g.Grid.strides.(k) <> !len then
      invalid_arg (what ^ ": grid is not dense row-major");
    len := !len * ext.(k)
  done;
  if Buf.len g.Grid.buf <> !len then
    invalid_arg (what ^ ": buffer does not cover the extents")

let check_pair what ~name a b =
  if a.Grid.extents <> b.Grid.extents then
    invalid_arg (Printf.sprintf "%s: v and %s extents differ" what name);
  check what a;
  check what b

(* 2d·c minus each neighbour in turn, dimension by dimension: a fixed
   operation order, so the result is bit-identical to a per-point
   evaluation in the same order (the oracle in test_mg). *)
let lap2 v o s0 =
  (4.0 *. get v o) -. get v (o - s0) -. get v (o + s0) -. get v (o - 1)
  -. get v (o + 1)
[@@inline]

let lap3 v o s0 s1 =
  (6.0 *. get v o) -. get v (o - s0) -. get v (o + s0) -. get v (o - s1)
  -. get v (o + s1) -. get v (o - 1) -. get v (o + 1)
[@@inline]

let apply_poisson ~n ~v ~out =
  let what = "Verify.apply_poisson" in
  check_pair what ~name:"out" v out;
  let invhsq = float_of_int (n * n) in
  let ext = v.Grid.extents in
  let vd = v.Grid.buf.Buf.data and od = out.Grid.buf.Buf.data in
  match Array.length ext with
  | 2 ->
    let s0 = ext.(1) in
    for i = 1 to ext.(0) - 2 do
      for o = (i * s0) + 1 to (i * s0) + s0 - 2 do
        set od o (invhsq *. lap2 vd o s0)
      done
    done
  | 3 ->
    let s1 = ext.(2) in
    let s0 = ext.(1) * s1 in
    for i = 1 to ext.(0) - 2 do
      for j = 1 to ext.(1) - 2 do
        let row = (i * s0) + (j * s1) in
        for o = row + 1 to row + s1 - 2 do
          set od o (invhsq *. lap3 vd o s0 s1)
        done
      done
    done
  | _ -> invalid_arg (what ^ ": rank must be 2 or 3")

(* One fused pass: Σ (f − invhsq·lap v)² in row-major order, the same
   accumulation order as summing over a materialized [A_h v]. *)
let residual_l2 ~n ~v ~f =
  let what = "Verify.residual_l2" in
  check_pair what ~name:"f" v f;
  let invhsq = float_of_int (n * n) in
  let ext = v.Grid.extents in
  let vd = v.Grid.buf.Buf.data and fd = f.Grid.buf.Buf.data in
  let sum = ref 0.0 in
  (match Array.length ext with
   | 2 ->
     let s0 = ext.(1) in
     for i = 1 to ext.(0) - 2 do
       for o = (i * s0) + 1 to (i * s0) + s0 - 2 do
         let r = get fd o -. (invhsq *. lap2 vd o s0) in
         sum := !sum +. (r *. r)
       done
     done
   | 3 ->
     let s1 = ext.(2) in
     let s0 = ext.(1) * s1 in
     for i = 1 to ext.(0) - 2 do
       for j = 1 to ext.(1) - 2 do
         let row = (i * s0) + (j * s1) in
         for o = row + 1 to row + s1 - 2 do
           let r = get fd o -. (invhsq *. lap3 vd o s0 s1) in
           sum := !sum +. (r *. r)
         done
       done
     done
   | _ -> invalid_arg (what ^ ": rank must be 2 or 3"));
  let count = Array.fold_left (fun acc e -> acc * (e - 2)) 1 ext in
  sqrt (!sum /. float_of_int count)

let error_l2 ~v ~exact =
  let sum = ref 0.0 and count = ref 0 in
  Grid.iter_interior v ~f:(fun idx value ->
      let e = value -. exact idx in
      sum := !sum +. (e *. e);
      incr count);
  if !count = 0 then 0.0 else sqrt (!sum /. float_of_int !count)

(* --- Method-of-manufactured-solutions convergence verification --- *)

let convergence_study ~solve ~exact ~ns =
  List.map
    (fun n ->
      let v = solve ~n in
      (n, error_l2 ~v ~exact:(exact ~n)))
    ns

let pairwise_orders samples =
  let rec go = function
    | (nc, ec) :: ((nf, ef) :: _ as rest) ->
      if nf <= nc then invalid_arg "Verify: ns must be strictly increasing";
      if ec <= 0.0 || ef <= 0.0 then
        invalid_arg "Verify: non-positive error in convergence study";
      (* e ∝ h^p = n^{-p}  ⇒  p = log(e_c/e_f) / log(n_f/n_c) *)
      (log (ec /. ef) /. log (float_of_int nf /. float_of_int nc)) :: go rest
    | _ -> []
  in
  go samples

let observed_order samples =
  match pairwise_orders samples with
  | [] -> invalid_arg "Verify.observed_order: need at least two samples"
  | orders ->
    List.fold_left ( +. ) 0.0 orders /. float_of_int (List.length orders)
