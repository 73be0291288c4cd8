module Grid = Repro_grid.Grid
module Buf = Repro_grid.Buf

(* The operator, the residual sum and the rim scan are C walks over the
   grids' bigarrays (verify_stubs.c), so the residual the guard checks
   after every cycle allocates nothing; the sum runs in eight vector
   lanes in a fixed order ([residual_l2]).  The stubs index unchecked, so
   every entry point first validates the layout they walk ([check]). *)
external c_residual_sum :
  (int[@untagged]) -> Buf.data -> Buf.data -> (float[@unboxed]) -> int array ->
  (float[@unboxed])
  = "polymg_verify_residual_sum_byte" "polymg_verify_residual_sum"
[@@noalloc]

external c_paths : unit -> int = "polymg_verify_paths"

external c_apply_poisson :
  Buf.data -> Buf.data -> (float[@unboxed]) -> int array -> unit
  = "polymg_verify_apply_poisson_byte" "polymg_verify_apply_poisson"
[@@noalloc]

external c_rim_finite : Buf.data -> int array -> bool
  = "polymg_verify_rim_finite"
[@@noalloc]

(* Grids carry one ghost layer per side, so the interior along dim k is
   [1 .. extents.(k) - 2]; rectangular interiors are supported
   throughout.  A grid of rank other than 2 or 3 is rejected, and so is
   one with any extent < 3 (no interior, rather than silently looped
   over) and storage that is not the dense row-major layout of
   [Grid.create] (last stride 1, buffer exactly covering the
   extents). *)
let check what (g : Grid.t) =
  let ext = g.Grid.extents in
  let rank = Array.length ext in
  if rank <> 2 && rank <> 3 then invalid_arg (what ^ ": rank must be 2 or 3");
  Array.iter
    (fun e ->
      if e < 3 then
        invalid_arg
          (Printf.sprintf "Verify: extent %d leaves no interior" e))
    ext;
  let len = ref 1 in
  for k = rank - 1 downto 0 do
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

let apply_poisson ~n ~v ~out =
  check_pair "Verify.apply_poisson" ~name:"out" v out;
  c_apply_poisson v.Grid.buf.Buf.data out.Grid.buf.Buf.data
    (float_of_int (n * n)) v.Grid.extents

(* One fused pass: Σ (f − invhsq·lap v)² in eight lanes, a point at
   column offset j of its row into lane j mod 8, rows in row-major
   order, the lanes combined as ((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7)).
   The same order on every code path (baseline, AVX-512), and the
   order [test_mg]'s per-point oracle sums over a materialized [A_h v]. *)
let rms sum ext =
  let count = Array.fold_left (fun acc e -> acc * (e - 2)) 1 ext in
  sqrt (sum /. float_of_int count)

(* the code paths of the sum (0 the baseline, 1 AVX-512), as a bit mask
   of those this build and host run, read once; the widest is used *)
let paths = c_paths ()
let widest = if paths land 2 <> 0 then 1 else 0

let residual_on what path ~n ~v ~f =
  check_pair what ~name:"f" v f;
  let ext = v.Grid.extents in
  rms
    (c_residual_sum path v.Grid.buf.Buf.data f.Grid.buf.Buf.data
       (float_of_int (n * n)) ext)
    ext

let residual_l2 ~n ~v ~f = residual_on "Verify.residual_l2" widest ~n ~v ~f

let residual_l2_paths ~n ~v ~f =
  List.filter_map
    (fun (p, name) ->
      if paths land (1 lsl p) = 0 then None
      else Some (name, residual_on "Verify.residual_l2_paths" p ~n ~v ~f))
    [ (0, "baseline"); (1, "avx512f") ]

let rim_finite v =
  check "Verify.rim_finite" v;
  c_rim_finite v.Grid.buf.Buf.data v.Grid.extents

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
