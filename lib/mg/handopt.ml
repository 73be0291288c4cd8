module Buf = Repro_grid.Buf
module Grid = Repro_grid.Grid
module Parallel = Repro_runtime.Parallel
module Diamond = Repro_poly.Diamond
module K = Kernels

type smoothing = Plain | Pluto of { sigma : int }

type phase = Entry | Pre_smoothed | Corrected

type probe = level:int -> phase -> K.buf option -> K.buf -> unit

(* dimension-dispatched kernel table *)
type ops = {
  jacobi :
    n:int -> w:float -> invhsq:float -> src:K.buf -> frhs:K.buf ->
    dst:K.buf -> rlo:int -> rhi:int -> unit;
  scalef : n:int -> w:float -> frhs:K.buf -> dst:K.buf -> rlo:int -> rhi:int -> unit;
  resid :
    n:int -> invhsq:float -> v:K.buf -> frhs:K.buf -> dst:K.buf ->
    rlo:int -> rhi:int -> unit;
  restr : nc:int -> fine:K.buf -> dst:K.buf -> rlo:int -> rhi:int -> unit;
  interp_correct : nc:int -> coarse:K.buf -> v:K.buf -> rlo:int -> rhi:int -> unit;
  copy : n:int -> src:K.buf -> dst:K.buf -> rlo:int -> rhi:int -> unit;
}

let ops2 =
  { jacobi = K.jacobi2d;
    scalef = K.scalef2d;
    resid = K.resid2d;
    restr = K.restrict2d;
    interp_correct = K.interp_correct2d;
    copy = K.copy2d }

let ops3 =
  { jacobi = K.jacobi3d;
    scalef = K.scalef3d;
    resid = K.resid3d;
    restr = K.restrict3d;
    interp_correct = K.interp_correct3d;
    copy = K.copy3d }

type level = {
  ln : int;  (* interior size *)
  invhsq : float;
  w : float;
  ebuf : K.buf;  (* iterate buffer (unused at the finest level) *)
  tmp : K.buf;  (* the second modulo buffer *)
  frhs : K.buf;  (* level rhs (unused at the finest level) *)
}

type t = {
  cfg : Cycle.config;
  n : int;
  par : Parallel.t;
  smoothing : smoothing;
  probe : probe option;
  ops : ops;
  levels : level array;  (* index 0 = coarsest *)
}

let create cfg ~n ~par ?(smoothing = Plain) ?probe () =
  (match cfg.Cycle.shape with
   | Cycle.V | Cycle.W -> ()
   | Cycle.F -> invalid_arg "Handopt.create: F-cycles not supported");
  (match cfg.Cycle.smoother with
   | Cycle.Jacobi -> ()
   | Cycle.Gsrb -> invalid_arg "Handopt.create: GSRB smoothing not supported");
  let nlev = cfg.Cycle.levels in
  if n mod (1 lsl (nlev - 1)) <> 0 then
    invalid_arg "Handopt.create: N must be divisible by 2^(levels-1)";
  let dims = cfg.Cycle.dims in
  let levels =
    Array.init nlev (fun l ->
        let nl = (n / (1 lsl (nlev - 1 - l))) - 1 in
        let len = int_of_float (float_of_int (nl + 2) ** float_of_int dims) in
        let invhsq = float_of_int ((nl + 1) * (nl + 1)) in
        { ln = nl;
          invhsq;
          w = cfg.Cycle.omega /. (float_of_int (2 * dims) *. invhsq);
          ebuf = (Buf.create len).Buf.data;
          tmp = (Buf.create len).Buf.data;
          frhs = (Buf.create len).Buf.data })
  in
  { cfg; n; par;
    smoothing;
    probe;
    ops = (if dims = 2 then ops2 else ops3);
    levels }

(* initial iterate for a smoothing phase *)
type init = Zero | From of K.buf

(* Modulo-buffer mapping: pick which of [a]/[b] holds iterate [t] such
   that (i) iterate 1 is not written into the buffer being read as the
   initial iterate, and (ii) when the initial iterate is external or
   zero, the final iterate lands in [a]. *)
let buffer_map ~steps ~init ~(a : K.buf) ~(b : K.buf) =
  match init with
  | From src when src == a -> fun t -> if t land 1 = 1 then b else a
  | From src when src == b -> fun t -> if t land 1 = 1 then a else b
  | From _ | Zero -> fun t -> if (steps - t) land 1 = 0 then a else b

let smooth t ~(lev : level) ~steps ~init ~(a : K.buf) ~(b : K.buf) : K.buf =
  let o = t.ops in
  let n = lev.ln in
  if steps = 0 then begin
    match init with
    | From src when src == a || src == b -> src
    | From src ->
      Parallel.parallel_for t.par ~lo:1 ~hi:n (fun i ->
          o.copy ~n ~src ~dst:a ~rlo:i ~rhi:i);
      a
    | Zero ->
      Parallel.parallel_for t.par ~lo:1 ~hi:n (fun i ->
          o.scalef ~n ~w:0.0 ~frhs:lev.frhs ~dst:a ~rlo:i ~rhi:i);
      a
  end
  else begin
    let buf_of = buffer_map ~steps ~init ~a ~b in
    let apply ~tstep ~rlo ~rhi =
      let dst = buf_of tstep in
      if tstep = 1 then
        match init with
        | Zero -> o.scalef ~n ~w:lev.w ~frhs:lev.frhs ~dst ~rlo ~rhi
        | From src ->
          o.jacobi ~n ~w:lev.w ~invhsq:lev.invhsq ~src ~frhs:lev.frhs ~dst
            ~rlo ~rhi
      else
        o.jacobi ~n ~w:lev.w ~invhsq:lev.invhsq ~src:(buf_of (tstep - 1))
          ~frhs:lev.frhs ~dst ~rlo ~rhi
    in
    (match t.smoothing with
     | Plain ->
       for tstep = 1 to steps do
         Parallel.parallel_for t.par ~lo:1 ~hi:n (fun i ->
             apply ~tstep ~rlo:i ~rhi:i)
       done
     | Pluto { sigma } ->
       let fronts = Diamond.wavefronts ~steps ~size:n ~sigma in
       Array.iter
         (fun front ->
           Parallel.parallel_for t.par ~lo:0 ~hi:(Array.length front - 1)
             (fun fi ->
               Diamond.iter_tile ~steps ~size:n ~sigma front.(fi)
                 ~f:(fun ~t:tstep ~xlo ~xhi ->
                   apply ~tstep ~rlo:xlo ~rhi:xhi)))
         fronts);
    buf_of steps
  end

(* Hands the iterate a phase left to the probe, if any.  The [Some] is
   built under the match, so an unprobed cycle allocates nothing. *)
let notify t ~level phase (iterate : K.buf) (frhs : K.buf) =
  match t.probe with
  | None -> ()
  | Some p -> p ~level phase (Some iterate) frhs

let rec go t ~level ~init ~(a : K.buf) ~(b : K.buf) : K.buf =
  let lev = t.levels.(level) in
  let o = t.ops in
  (match t.probe with
   | None -> ()
   | Some p ->
     p ~level Entry
       (match init with Zero -> None | From v -> Some v)
       lev.frhs);
  if level = 0 then begin
    let e = smooth t ~lev ~steps:t.cfg.Cycle.n2 ~init ~a ~b in
    notify t ~level Pre_smoothed e lev.frhs;
    e
  end
  else begin
    let s1 = smooth t ~lev ~steps:t.cfg.Cycle.n1 ~init ~a ~b in
    notify t ~level Pre_smoothed s1 lev.frhs;
    let other = if s1 == a then b else a in
    (* residual into the free modulo buffer, restrict into the coarse rhs *)
    Parallel.parallel_for t.par ~lo:1 ~hi:lev.ln (fun i ->
        o.resid ~n:lev.ln ~invhsq:lev.invhsq ~v:s1 ~frhs:lev.frhs ~dst:other
          ~rlo:i ~rhi:i);
    let coarse = t.levels.(level - 1) in
    Parallel.parallel_for t.par ~lo:1 ~hi:coarse.ln (fun i ->
        o.restr ~nc:coarse.ln ~fine:other ~dst:coarse.frhs ~rlo:i ~rhi:i);
    let recursions =
      match t.cfg.Cycle.shape with
      | Cycle.W when level >= 2 -> 2
      | Cycle.V | Cycle.W | Cycle.F -> 1
    in
    let e = ref Zero in
    for _ = 1 to recursions do
      let r = go t ~level:(level - 1) ~init:!e ~a:coarse.ebuf ~b:coarse.tmp in
      e := From r
    done;
    (match !e with
     | Zero -> ()
     | From ebuf ->
       Parallel.parallel_for t.par ~lo:0 ~hi:coarse.ln (fun i ->
           o.interp_correct ~nc:coarse.ln ~coarse:ebuf ~v:s1 ~rlo:i ~rhi:i));
    let post = smooth t ~lev ~steps:t.cfg.Cycle.n3 ~init:(From s1) ~a ~b in
    notify t ~level Corrected post lev.frhs;
    post
  end

let stepper t ~v ~f ~out =
  let dims = t.cfg.Cycle.dims in
  let finest = t.levels.(Array.length t.levels - 1) in
  let expect = Array.make dims (finest.ln + 2) in
  if Grid.extents v <> expect || Grid.extents f <> expect
     || Grid.extents out <> expect
  then invalid_arg "Handopt.stepper: grid extents mismatch";
  (* the finest level uses the caller's rhs and the [out] grid plus the
     finest tmp as modulo buffers *)
  let lev = { finest with frhs = f.Grid.buf.Buf.data } in
  let finest_level = Array.length t.levels - 1 in
  let t' =
    { t with
      levels =
        Array.mapi (fun i l -> if i = finest_level then lev else l) t.levels }
  in
  let a = out.Grid.buf.Buf.data and b = finest.tmp in
  let s1 = go t' ~level:finest_level ~init:(From v.Grid.buf.Buf.data) ~a ~b in
  if not (s1 == a) then
    Parallel.parallel_for t'.par ~lo:1 ~hi:lev.ln (fun i ->
        t'.ops.copy ~n:lev.ln ~src:s1 ~dst:a ~rlo:i ~rhi:i)
