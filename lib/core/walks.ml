(* Innermost-loop kernels in "walk" form: one cursor advancing through a
   shared producer buffer with constant per-term deltas, plus one stream
   term read through a cursor of its own.  This is the register-level
   shape of the C loops the paper's backend generates (Fig. 8): a k-point
   stencil on one array plus the rhs array.  The stream term is the
   auxiliary buffer's term when a case reads a second buffer, and the
   walk's own last term when it reads one buffer only, so every multiply
   is a term of the stencil.

   Each kernel sums in the one order the emitted C sums ([C_emit] prints
   [Compile.Lin]'s terms left to right): [base], then the terms in case
   order, with the stream term at its own position.  For n1 points, the
   [lastN] kernels (N terms, the stream last) compute

     dst[di] = base + Σ_{t<N-1} c_t · main[b + d_t] + ac · aux[a]

   and the [firstN] kernels (the stream first)

     dst[di] = base + ac · aux[a] + Σ_{t<N-1} c_t · main[b + d_t]

   with d_0 = 0, advancing di += dstep; b += step; a += astep.  Only the
   term counts some stage reaches have a fixed-arity kernel; [kn] runs
   any count.                                                            *)

module Buf = Repro_grid.Buf

let last1 ~n1 ~base ~(dst : Buf.data) ~didx0 ~dstep ~(aux : Buf.data) ~ac ~a0
    ~astep =
  let a = ref a0 and di = ref didx0 in
  for _ = 1 to n1 do
    Bigarray.Array1.unsafe_set dst !di
      (base +. (ac *. Bigarray.Array1.unsafe_get aux !a));
    a := !a + astep;
    di := !di + dstep
  done

let last2 ~n1 ~base ~(dst : Buf.data) ~didx0 ~dstep ~(main : Buf.data) ~b0
    ~step ~c0 ~(aux : Buf.data) ~ac ~a0 ~astep =
  let b = ref b0 and a = ref a0 and di = ref didx0 in
  for _ = 1 to n1 do
    Bigarray.Array1.unsafe_set dst !di
      (base
       +. (c0 *. Bigarray.Array1.unsafe_get main !b)
       +. (ac *. Bigarray.Array1.unsafe_get aux !a));
    b := !b + step;
    a := !a + astep;
    di := !di + dstep
  done

let last4 ~n1 ~base ~(dst : Buf.data) ~didx0 ~dstep ~(main : Buf.data) ~b0
    ~step ~c0 ~c1 ~d1 ~c2 ~d2 ~(aux : Buf.data) ~ac ~a0 ~astep =
  let b = ref b0 and a = ref a0 and di = ref didx0 in
  for _ = 1 to n1 do
    let p = !b in
    Bigarray.Array1.unsafe_set dst !di
      (base
       +. (c0 *. Bigarray.Array1.unsafe_get main p)
       +. (c1 *. Bigarray.Array1.unsafe_get main (p + d1))
       +. (c2 *. Bigarray.Array1.unsafe_get main (p + d2))
       +. (ac *. Bigarray.Array1.unsafe_get aux !a));
    b := p + step;
    a := !a + astep;
    di := !di + dstep
  done

let last6 ~n1 ~base ~(dst : Buf.data) ~didx0 ~dstep ~(main : Buf.data) ~b0
    ~step ~c0 ~c1 ~d1 ~c2 ~d2 ~c3 ~d3 ~c4 ~d4 ~(aux : Buf.data) ~ac ~a0
    ~astep =
  let b = ref b0 and a = ref a0 and di = ref didx0 in
  for _ = 1 to n1 do
    let p = !b in
    Bigarray.Array1.unsafe_set dst !di
      (base
       +. (c0 *. Bigarray.Array1.unsafe_get main p)
       +. (c1 *. Bigarray.Array1.unsafe_get main (p + d1))
       +. (c2 *. Bigarray.Array1.unsafe_get main (p + d2))
       +. (c3 *. Bigarray.Array1.unsafe_get main (p + d3))
       +. (c4 *. Bigarray.Array1.unsafe_get main (p + d4))
       +. (ac *. Bigarray.Array1.unsafe_get aux !a));
    b := p + step;
    a := !a + astep;
    di := !di + dstep
  done

let last8 ~n1 ~base ~(dst : Buf.data) ~didx0 ~dstep ~(main : Buf.data) ~b0
    ~step ~c0 ~c1 ~d1 ~c2 ~d2 ~c3 ~d3 ~c4 ~d4 ~c5 ~d5 ~c6 ~d6
    ~(aux : Buf.data) ~ac ~a0 ~astep =
  let b = ref b0 and a = ref a0 and di = ref didx0 in
  for _ = 1 to n1 do
    let p = !b in
    Bigarray.Array1.unsafe_set dst !di
      (base
       +. (c0 *. Bigarray.Array1.unsafe_get main p)
       +. (c1 *. Bigarray.Array1.unsafe_get main (p + d1))
       +. (c2 *. Bigarray.Array1.unsafe_get main (p + d2))
       +. (c3 *. Bigarray.Array1.unsafe_get main (p + d3))
       +. (c4 *. Bigarray.Array1.unsafe_get main (p + d4))
       +. (c5 *. Bigarray.Array1.unsafe_get main (p + d5))
       +. (c6 *. Bigarray.Array1.unsafe_get main (p + d6))
       +. (ac *. Bigarray.Array1.unsafe_get aux !a));
    b := p + step;
    a := !a + astep;
    di := !di + dstep
  done

let last9 ~n1 ~base ~(dst : Buf.data) ~didx0 ~dstep ~(main : Buf.data) ~b0
    ~step ~c0 ~c1 ~d1 ~c2 ~d2 ~c3 ~d3 ~c4 ~d4 ~c5 ~d5 ~c6 ~d6 ~c7 ~d7
    ~(aux : Buf.data) ~ac ~a0 ~astep =
  let b = ref b0 and a = ref a0 and di = ref didx0 in
  for _ = 1 to n1 do
    let p = !b in
    Bigarray.Array1.unsafe_set dst !di
      (base
       +. (c0 *. Bigarray.Array1.unsafe_get main p)
       +. (c1 *. Bigarray.Array1.unsafe_get main (p + d1))
       +. (c2 *. Bigarray.Array1.unsafe_get main (p + d2))
       +. (c3 *. Bigarray.Array1.unsafe_get main (p + d3))
       +. (c4 *. Bigarray.Array1.unsafe_get main (p + d4))
       +. (c5 *. Bigarray.Array1.unsafe_get main (p + d5))
       +. (c6 *. Bigarray.Array1.unsafe_get main (p + d6))
       +. (c7 *. Bigarray.Array1.unsafe_get main (p + d7))
       +. (ac *. Bigarray.Array1.unsafe_get aux !a));
    b := p + step;
    a := !a + astep;
    di := !di + dstep
  done

let first6 ~n1 ~base ~(dst : Buf.data) ~didx0 ~dstep ~(main : Buf.data) ~b0
    ~step ~c0 ~c1 ~d1 ~c2 ~d2 ~c3 ~d3 ~c4 ~d4 ~(aux : Buf.data) ~ac ~a0
    ~astep =
  let b = ref b0 and a = ref a0 and di = ref didx0 in
  for _ = 1 to n1 do
    let p = !b in
    Bigarray.Array1.unsafe_set dst !di
      (base
       +. (ac *. Bigarray.Array1.unsafe_get aux !a)
       +. (c0 *. Bigarray.Array1.unsafe_get main p)
       +. (c1 *. Bigarray.Array1.unsafe_get main (p + d1))
       +. (c2 *. Bigarray.Array1.unsafe_get main (p + d2))
       +. (c3 *. Bigarray.Array1.unsafe_get main (p + d3))
       +. (c4 *. Bigarray.Array1.unsafe_get main (p + d4)));
    b := p + step;
    a := !a + astep;
    di := !di + dstep
  done

let first8 ~n1 ~base ~(dst : Buf.data) ~didx0 ~dstep ~(main : Buf.data) ~b0
    ~step ~c0 ~c1 ~d1 ~c2 ~d2 ~c3 ~d3 ~c4 ~d4 ~c5 ~d5 ~c6 ~d6
    ~(aux : Buf.data) ~ac ~a0 ~astep =
  let b = ref b0 and a = ref a0 and di = ref didx0 in
  for _ = 1 to n1 do
    let p = !b in
    Bigarray.Array1.unsafe_set dst !di
      (base
       +. (ac *. Bigarray.Array1.unsafe_get aux !a)
       +. (c0 *. Bigarray.Array1.unsafe_get main p)
       +. (c1 *. Bigarray.Array1.unsafe_get main (p + d1))
       +. (c2 *. Bigarray.Array1.unsafe_get main (p + d2))
       +. (c3 *. Bigarray.Array1.unsafe_get main (p + d3))
       +. (c4 *. Bigarray.Array1.unsafe_get main (p + d4))
       +. (c5 *. Bigarray.Array1.unsafe_get main (p + d5))
       +. (c6 *. Bigarray.Array1.unsafe_get main (p + d6)));
    b := p + step;
    a := !a + astep;
    di := !di + dstep
  done

(* generic walk: coefficient/delta arrays over the main terms, the stream
   term first or last, for wide stencils (19-, 21- and 27-point) *)
let kn ~first ~n1 ~base ~(dst : Buf.data) ~didx0 ~dstep ~(main : Buf.data)
    ~b0 ~step ~(coef : float array) ~(delta : int array) ~(aux : Buf.data) ~ac
    ~a0 ~astep =
  let k = Array.length coef in
  let b = ref b0 and a = ref a0 and di = ref didx0 in
  for _ = 1 to n1 do
    let p = !b in
    let s = ac *. Bigarray.Array1.unsafe_get aux !a in
    let acc = ref base in
    if first then acc := !acc +. s;
    for t = 0 to k - 1 do
      acc :=
        !acc
        +. (Array.unsafe_get coef t
            *. Bigarray.Array1.unsafe_get main (p + Array.unsafe_get delta t))
    done;
    if not first then acc := !acc +. s;
    Bigarray.Array1.unsafe_set dst !di !acc;
    b := p + step;
    a := !a + astep;
    di := !di + dstep
  done
