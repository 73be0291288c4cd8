(* The float state lives in a flat float array so updates are in-place
   unboxed stores, never boxed allocations (a mutable float field in a
   mixed record would box). *)

let nbuckets = 64

let bucket_of v =
  if not (v >= 2.0) then 0
  else Int.min (nbuckets - 1) (int_of_float (Float.log2 v))

let bucket_hi k = Float.of_int (1 lsl (k + 1))
let bucket_lo k = if k = 0 then 0.0 else Float.of_int (1 lsl k)

type t = {
  mutable n : int;
  q : float array; (* sum; min; max; mean; m2 *)
  counts : int array;
}

let create () =
  { n = 0;
    q = [| 0.0; infinity; neg_infinity; 0.0; 0.0 |];
    counts = Array.make nbuckets 0 }

let clear t =
  t.n <- 0;
  t.q.(0) <- 0.0;
  t.q.(1) <- infinity;
  t.q.(2) <- neg_infinity;
  t.q.(3) <- 0.0;
  t.q.(4) <- 0.0;
  Array.fill t.counts 0 nbuckets 0

let record t v =
  let v = if v >= 0.0 then v else 0.0 in
  let q = t.q in
  t.n <- t.n + 1;
  q.(0) <- q.(0) +. v;
  if v < q.(1) then q.(1) <- v;
  if v > q.(2) then q.(2) <- v;
  let delta = v -. q.(3) in
  q.(3) <- q.(3) +. (delta /. float_of_int t.n);
  q.(4) <- q.(4) +. (delta *. (v -. q.(3)));
  let k = bucket_of v in
  t.counts.(k) <- t.counts.(k) + 1

let merge_into ~into t =
  if t.n > 0 then begin
    let a = into.q and b = t.q in
    let na = float_of_int into.n and nb = float_of_int t.n in
    let n = na +. nb in
    let delta = b.(3) -. a.(3) in
    a.(4) <- a.(4) +. b.(4) +. (delta *. delta *. na *. nb /. n);
    a.(3) <- a.(3) +. (delta *. nb /. n);
    a.(0) <- a.(0) +. b.(0);
    if b.(1) < a.(1) then a.(1) <- b.(1);
    if b.(2) > a.(2) then a.(2) <- b.(2);
    into.n <- into.n + t.n;
    Array.iteri (fun k c -> into.counts.(k) <- into.counts.(k) + c) t.counts
  end

let merge ts =
  let h = create () in
  List.iter (merge_into ~into:h) ts;
  h

let copy t = merge [ t ]
let count t = t.n
let sum t = t.q.(0)
let min t = t.q.(1)
let max t = t.q.(2)
let mean t = t.q.(3)
let variance t = if t.n < 2 then 0.0 else t.q.(4) /. float_of_int (t.n - 1)

let percentile t q =
  if t.n = 0 then Float.nan
  else begin
    let target = Float.min 1.0 (Float.max 0.0 q) *. float_of_int t.n in
    let rec walk k cum =
      if k >= nbuckets then bucket_hi (nbuckets - 1)
      else begin
        let c = t.counts.(k) in
        let cum' = cum +. float_of_int c in
        if c > 0 && cum' >= target then
          let frac = Float.max 0.0 (target -. cum) /. float_of_int c in
          bucket_lo k +. (frac *. (bucket_hi k -. bucket_lo k))
        else walk (k + 1) cum'
      end
    in
    Float.min (max t) (Float.max (min t) (walk 0 0.0))
  end

let cumulative t =
  let lastk = ref (-1) in
  Array.iteri (fun k c -> if c > 0 then lastk := k) t.counts;
  let cum = ref 0 in
  List.init (!lastk + 1) (fun k ->
      cum := !cum + t.counts.(k);
      (bucket_hi k, !cum))
