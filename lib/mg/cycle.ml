open Repro_ir

type cycle_shape = V | W | F

type smoother_kind = Jacobi | Gsrb

type config = {
  dims : int;
  levels : int;
  n1 : int;
  n2 : int;
  n3 : int;
  shape : cycle_shape;
  omega : float;
  smoother : smoother_kind;
}

let default ~dims ~shape ~smoothing:(n1, n2, n3) =
  { dims; levels = 4; n1; n2; n3; shape; omega = 0.8; smoother = Jacobi }

let shape_name = function V -> "V" | W -> "W" | F -> "F"

let shape_of_string = function
  | "V" -> Some V
  | "W" -> Some W
  | "F" -> Some F
  | _ -> None

let min_n cfg = 1 lsl cfg.levels

let check_config cfg =
  if cfg.dims <> 2 && cfg.dims <> 3 then Error "dims must be 2 or 3"
  else if cfg.levels < 2 then Error "levels must be at least 2"
  else if cfg.n1 < 0 || cfg.n2 < 0 || cfg.n3 < 0 then
    Error "smoothing steps must be non-negative"
  else Ok ()

let check cfg ~n ~cycles =
  match check_config cfg with
  | Error _ as e -> e
  | Ok () ->
    let step = 1 lsl (cfg.levels - 1) in
    if n mod step <> 0 || n < min_n cfg then
      Error
        (Printf.sprintf "n must be a multiple of %d and at least %d" step
           (min_n cfg))
    else if cycles < 1 then Error "cycles must be at least 1"
    else Ok ()

(* interior size at level l: N / 2^(levels-1-l) − 1 *)
let size_at cfg l =
  Sizeexpr.add_const (Sizeexpr.n_over (1 lsl (cfg.levels - 1 - l))) (-1)

let sizes_at cfg l = Array.make cfg.dims (size_at cfg l)

let invhsq_name l = Printf.sprintf "invhsq_L%d" l
let weight_name l = Printf.sprintf "w_L%d" l

let params cfg ~n name =
  if n mod (1 lsl (cfg.levels - 1)) <> 0 then
    invalid_arg "Cycle.params: N must be divisible by 2^(levels-1)";
  let invhsq_of l =
    let nl = n / (1 lsl (cfg.levels - 1 - l)) in
    let h = 1.0 /. float_of_int nl in
    1.0 /. (h *. h)
  in
  let prefixed p =
    String.length name > String.length p
    && String.sub name 0 (String.length p) = p
  in
  let level_of p =
    int_of_string
      (String.sub name (String.length p) (String.length name - String.length p))
  in
  if prefixed "invhsq_L" then invhsq_of (level_of "invhsq_L")
  else if prefixed "w_L" then
    cfg.omega /. (float_of_int (2 * cfg.dims) *. invhsq_of (level_of "w_L"))
  else invalid_arg ("Cycle.params: unknown parameter " ^ name)

let a_weights dims = Stencils.laplacian ~dims

(* A stage value, or the implicit all-zero grid (Algorithm 1, e ← 0). *)
type value = Zero | Stage of Func.t

let jacobi_defn cfg ~level ~f ~v =
  let av =
    Dsl.stencil v (a_weights cfg.dims)
      ~factor:(Expr.param (invhsq_name level))
      ()
  in
  let zero = Array.make cfg.dims 0 in
  Expr.(
    load v.Func.id zero
    - (param (weight_name level) * (av - load f.Func.id zero)))

(* the smoother body with v = 0 folded in: v' = w·f *)
let jacobi_zero_defn cfg ~level ~f =
  let zero = Array.make cfg.dims 0 in
  Expr.(param (weight_name level) * load f.Func.id zero)

(* unique stage names: the same level is visited repeatedly by W/F
   cycles, so each name carries the build's visit serial *)
let fresh ctx tag level =
  Printf.sprintf "%s_L%d_i%d" tag level (Dsl.next_serial ctx)

(* GSRB: red points have even coordinate sum.  Each half-step is a
   parity-piecewise stage: updated colour gets the Gauss-Seidel formula,
   the other colour a pointwise copy of the previous iterate.  For a zero
   initial iterate the red half simplifies to ω·f/(2d·invhsq) at red
   points and 0 elsewhere. *)
let gsrb_update cfg ~level ~f ~v =
  let zero = Array.make cfg.dims 0 in
  let neighbours =
    (* the off-centre entries of A carry weight −1 *)
    List.init (2 * cfg.dims) (fun i ->
        let k = i / 2 and s = if i mod 2 = 0 then -1 else 1 in
        let off = Array.make cfg.dims 0 in
        off.(k) <- s;
        Expr.load v.Func.id (Array.copy off))
  in
  let sum = List.fold_left (fun a t -> Expr.(a + t)) (List.hd neighbours)
      (List.tl neighbours) in
  let diag = float_of_int (2 * cfg.dims) in
  (* c* = (f/invhsq + Σ neighbours)/2d; relaxed by ω *)
  let gs =
    Expr.(
      (load f.Func.id zero / (const diag * param (invhsq_name level)))
      + (sum / const diag))
  in
  Expr.(
    ((const 1.0 - const cfg.omega) * load v.Func.id zero)
    + (const cfg.omega * gs))

let gsrb_zero_update cfg ~level ~f =
  let zero = Array.make cfg.dims 0 in
  let diag = float_of_int (2 * cfg.dims) in
  Expr.(
    const cfg.omega
    * (load f.Func.id zero / (const diag * param (invhsq_name level))))

(* parity case p updates "red" iff the coordinate-parity sum is even *)
let parity_is_red cfg p =
  let bits = ref 0 in
  for k = 0 to cfg.dims - 1 do
    bits := !bits + ((p lsr k) land 1)
  done;
  !bits mod 2 = 0

let smoother ctx cfg ~level ~tag ~steps ~init ~f =
  if steps = 0 then init
  else
    match cfg.smoother with
    | Jacobi -> (
      let body ~v = jacobi_defn cfg ~level ~f ~v in
      match init with
      | Stage v ->
        Stage
          (Dsl.tstencil ctx ~name:(fresh ctx tag level) ~steps ~init:v body)
      | Zero ->
        Stage
          (Dsl.tstencil_from_zero ctx ~name:(fresh ctx tag level) ~steps
             ~sizes:(sizes_at cfg level)
             ~first:(jacobi_zero_defn cfg ~level ~f)
             body))
    | Gsrb ->
      let zero = Array.make cfg.dims 0 in
      let half ~red ~prev ~name_suffix =
        let update, keep =
          match prev with
          | Stage v ->
            (gsrb_update cfg ~level ~f ~v, Expr.load v.Func.id zero)
          | Zero -> (gsrb_zero_update cfg ~level ~f, Expr.const 0.0)
        in
        let cases =
          Array.init (1 lsl cfg.dims) (fun p ->
              if parity_is_red cfg p = red then update else keep)
        in
        Stage
          (Dsl.parity_func ctx
             ~name:(fresh ctx (tag ^ name_suffix) level)
             ~sizes:(sizes_at cfg level) cases)
      in
      let rec go prev step =
        if step = steps then prev
        else
          let r = half ~red:true ~prev ~name_suffix:"_red" in
          let b = half ~red:false ~prev:r ~name_suffix:"_blk" in
          go b (step + 1)
      in
      go init 0

let defect ctx cfg ~level ~v ~f =
  match v with
  | Zero -> f  (* r = f − A·0 = f *)
  | Stage v ->
    let av =
      Dsl.stencil v (a_weights cfg.dims)
        ~factor:(Expr.param (invhsq_name level))
        ()
    in
    let zero = Array.make cfg.dims 0 in
    Dsl.func ctx ~name:(fresh ctx "defect" level)
      ~sizes:(sizes_at cfg level)
      Expr.(load f.Func.id zero - av)

(* Interpolation of the implicit zero grid is materialized as a constant
   stage so that the DAG shape (and Table 3 stage counts) match the paper
   even for the 10-0-0 configuration where the coarsest level contributes
   no smoothing. *)
let interpolate ctx cfg ~level ~e =
  match e with
  | Zero ->
    Stage
      (Dsl.func ctx ~name:(fresh ctx "interp" level)
         ~sizes:(sizes_at cfg level) (Expr.const 0.0))
  | Stage e ->
    Stage (Dsl.interp_fn ctx ~name:(fresh ctx "interp" level) ~input:e ())

let correct ctx cfg ~level ~v ~e =
  match (v, e) with
  | Zero, e -> e
  | v, Zero -> v
  | Stage v, Stage e ->
    let zero = Array.make cfg.dims 0 in
    Stage
      (Dsl.func ctx ~name:(fresh ctx "correct" level)
         ~sizes:(sizes_at cfg level)
         Expr.(load v.Func.id zero + load e.Func.id zero))

let rec run_cycle ctx cfg ~shape ~level ~v ~f =
  if level = 0 then smoother ctx cfg ~level ~tag:"Tc" ~steps:cfg.n2 ~init:v ~f
  else begin
    let s1 = smoother ctx cfg ~level ~tag:"Tpre" ~steps:cfg.n1 ~init:v ~f in
    let r = defect ctx cfg ~level ~v:s1 ~f in
    let r2 =
      Dsl.restrict_fn ctx ~name:(fresh ctx "restrict" level) ~input:r ()
    in
    let recursions =
      match shape with
      | V | F -> 1
      | W -> if level >= 2 then 2 else 1
    in
    let rec descend k e =
      if k = 0 then e
      else
        descend (k - 1)
          (run_cycle ctx cfg ~shape ~level:(level - 1) ~v:e ~f:r2)
    in
    let e2 = descend recursions Zero in
    let e1 = interpolate ctx cfg ~level ~e:e2 in
    let vc = correct ctx cfg ~level ~v:s1 ~e:e1 in
    smoother ctx cfg ~level ~tag:"Tpost" ~steps:cfg.n3 ~init:vc ~f
  end

(* F-cycle: descend once to the coarsest, and on the way back up finish
   each level with a V-cycle from the corrected iterate. *)
let rec run_fcycle ctx cfg ~level ~v ~f =
  if level = 0 then smoother ctx cfg ~level ~tag:"Tc" ~steps:cfg.n2 ~init:v ~f
  else begin
    let s1 = smoother ctx cfg ~level ~tag:"Tpre" ~steps:cfg.n1 ~init:v ~f in
    let r = defect ctx cfg ~level ~v:s1 ~f in
    let r2 =
      Dsl.restrict_fn ctx ~name:(fresh ctx "restrict" level) ~input:r ()
    in
    let e2 = run_fcycle ctx cfg ~level:(level - 1) ~v:Zero ~f:r2 in
    let e1 = interpolate ctx cfg ~level ~e:e2 in
    let vc = correct ctx cfg ~level ~v:s1 ~e:e1 in
    run_cycle ctx cfg ~shape:V ~level ~v:vc ~f
  end

let bench_name cfg =
  Printf.sprintf "%s-%dD-%d-%d-%d" (shape_name cfg.shape) cfg.dims cfg.n1
    cfg.n2 cfg.n3

let build cfg =
  Result.iter_error
    (fun m -> invalid_arg ("Cycle.build: " ^ m))
    (check_config cfg);
  let ctx = Dsl.create (bench_name cfg) in
  let finest = cfg.levels - 1 in
  let v = Dsl.grid ctx "V" ~dims:cfg.dims ~sizes:(sizes_at cfg finest) in
  let f = Dsl.grid ctx "F" ~dims:cfg.dims ~sizes:(sizes_at cfg finest) in
  let result =
    match cfg.shape with
    | V | W ->
      run_cycle ctx cfg ~shape:cfg.shape ~level:finest ~v:(Stage v) ~f
    | F -> run_fcycle ctx cfg ~level:finest ~v:(Stage v) ~f
  in
  match result with
  | Zero -> invalid_arg "Cycle.build: cycle computes nothing (all steps 0)"
  | Stage out -> Dsl.finish ctx ~outputs:[ out ]

let find_input pipeline name =
  match
    List.find_opt
      (fun (f : Func.t) -> f.Func.name = name)
      (Pipeline.inputs pipeline)
  with
  | Some f -> f.Func.id
  | None -> invalid_arg ("Cycle: pipeline has no input " ^ name)

let input_v pipeline = find_input pipeline "V"
let input_f pipeline = find_input pipeline "F"

let output pipeline =
  match Pipeline.outputs pipeline with
  | [ o ] -> o
  | [] | _ :: _ -> invalid_arg "Cycle.output: expected exactly one output"
