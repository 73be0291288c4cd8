open Repro_ir

(* interior size at NAS level j (1 = coarsest, lt = finest): n/2^(lt-j) − 1 *)
let sizes_at ~lt j =
  Array.make 3
    (Sizeexpr.add_const (Sizeexpr.n_over (1 lsl (lt - j))) (-1))

let zero3 = [| 0; 0; 0 |]

let build ~cls =
  let n = Nas_coeffs.problem_n cls in
  let lt = Nas_coeffs.levels_for n in
  let aw = Nas_coeffs.weights27 Nas_coeffs.a in
  let cw = Nas_coeffs.weights27 (Nas_coeffs.c cls) in
  let rw = Nas_coeffs.weights27 Nas_coeffs.r in
  let ctx = Dsl.create (Printf.sprintf "NAS-MG-%s" (Nas_coeffs.cls_name cls)) in
  (* inputs named by the solver's convention: the iterate (NAS u) is
     "V", the right-hand side (NAS v) is "F" *)
  let u = Dsl.grid ctx "V" ~dims:3 ~sizes:(sizes_at ~lt lt) in
  let v = Dsl.grid ctx "F" ~dims:3 ~sizes:(sizes_at ~lt lt) in
  (* r = v − A·u at the finest level *)
  let resid ~name ~sizes ~rhs_load ~(iter : Func.t) =
    Dsl.func ctx ~name ~sizes
      Expr.(rhs_load - Dsl.stencil iter aw ())
  in
  let r_top =
    resid ~name:"resid_top" ~sizes:(sizes_at ~lt lt)
      ~rhs_load:(Expr.load v.Func.id zero3) ~iter:u
  in
  (* down: restrict the residual to every level *)
  let rs = Array.make (lt + 1) r_top in
  for j = lt - 1 downto 1 do
    rs.(j) <-
      Dsl.restrict_fn ctx
        ~name:(Printf.sprintf "rprj3_L%d" j)
        ~input:rs.(j + 1) ~weights:rw ()
  done;
  (* coarsest: u₁ = C·r₁ (psinv from a zero iterate) *)
  let u1 =
    Dsl.func ctx ~name:"psinv_L1" ~sizes:(sizes_at ~lt 1)
      (Dsl.stencil rs.(1) cw ())
  in
  let cur = ref u1 in
  for j = 2 to lt do
    let e =
      Dsl.interp_fn ctx ~name:(Printf.sprintf "interp_L%d" j) ~input:!cur ()
    in
    let base =
      if j = lt then
        Dsl.func ctx ~name:"correct_top" ~sizes:(sizes_at ~lt j)
          Expr.(load u.Func.id zero3 + load e.Func.id zero3)
      else e
    in
    let rhs_load =
      if j = lt then Expr.load v.Func.id zero3
      else Expr.load rs.(j).Func.id zero3
    in
    let r' =
      resid ~name:(Printf.sprintf "resid_L%d" j) ~sizes:(sizes_at ~lt j)
        ~rhs_load ~iter:base
    in
    let u' =
      Dsl.func ctx
        ~name:(Printf.sprintf "psinv_L%d" j)
        ~sizes:(sizes_at ~lt j)
        Expr.(load base.Func.id zero3 + Dsl.stencil r' cw ())
    in
    cur := u'
  done;
  Dsl.finish ctx ~outputs:[ !cur ]

let params ~cls name =
  ignore cls;
  invalid_arg ("Nas_pipeline.params: unknown parameter " ^ name)

let stepper ~cls ~opts ~rt =
  let n = Nas_coeffs.problem_n cls in
  Repro_mg.Solver.plan_stepper
    (Repro_core.Plan_check.build (build ~cls) ~opts ~n ~params:(params ~cls))
    ~rt
