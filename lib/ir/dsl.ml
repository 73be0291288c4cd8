type ctx = { builder : Pipeline.builder; mutable serial : int }

let create name = { builder = Pipeline.builder name; serial = 0 }

let next_serial ctx =
  ctx.serial <- ctx.serial + 1;
  ctx.serial

let grid ctx name ~dims ~sizes =
  Pipeline.add ctx.builder (fun ~id ->
      { Func.id; name; dims; sizes = Array.copy sizes;
        defn = Func.Undefined; boundary = Func.Ghost_input;
        kind = Func.Input })

let sum_terms terms =
  match terms with
  | [] -> invalid_arg "Dsl.stencil: all weights are zero"
  | first :: rest -> List.fold_left (fun acc t -> Expr.(acc + t)) first rest

let weighted_load (f : Func.t) ~scale (off, w) =
  let accs =
    Array.map
      (fun o ->
        match scale with
        | `Unit -> { Expr.mul = 1; add = 0; den = 1; off = o }
        | `Coarse_reads_fine -> { Expr.mul = 2; add = 0; den = 1; off = o })
      off
  in
  let l = Expr.load_at f.Func.id accs in
  if w = 1.0 then l else Expr.(const w * l)

let stencil_with ~scale (f : Func.t) w ?factor () =
  if Weights.dims w <> f.Func.dims then
    invalid_arg "Dsl.stencil: weight tensor rank mismatch";
  let terms = List.map (weighted_load f ~scale) (Weights.terms w) in
  let s = sum_terms terms in
  match factor with None -> s | Some k -> Expr.(k * s)

let stencil f w ?factor () = stencil_with ~scale:`Unit f w ?factor ()

let stencil_coarse f w ?factor () =
  stencil_with ~scale:`Coarse_reads_fine f w ?factor ()

let func ctx ~name ~sizes ?(boundary = 0.0) expr =
  Pipeline.add ctx.builder (fun ~id ->
      let dims = Array.length sizes in
      { Func.id; name; dims; sizes = Array.copy sizes;
        defn = Func.Def expr; boundary = Func.Dirichlet boundary;
        kind = Func.Pointwise })

let smooth_chain ctx ~name ~steps ~boundary ~first_step ~init defn =
  let rec go prev step =
    if step = steps then prev
    else
      let stage =
        Pipeline.add ctx.builder (fun ~id ->
            { Func.id;
              name = Printf.sprintf "%s_t%d" name step;
              dims = prev.Func.dims;
              sizes = Array.copy prev.Func.sizes;
              defn = Func.Def (defn ~v:prev);
              boundary = Func.Dirichlet boundary;
              kind = Func.Smooth { step; total = steps } })
      in
      go stage (step + 1)
  in
  go init first_step

let parity_func ctx ~name ~sizes ?(boundary = 0.0) cases =
  Pipeline.add ctx.builder (fun ~id ->
      let dims = Array.length sizes in
      { Func.id; name; dims; sizes = Array.copy sizes;
        defn = Func.Parity (Array.copy cases);
        boundary = Func.Dirichlet boundary;
        kind = Func.Pointwise })

let tstencil ctx ~name ~steps ~init ?(boundary = 0.0) defn =
  if steps < 0 then invalid_arg "Dsl.tstencil: negative step count";
  smooth_chain ctx ~name ~steps ~boundary ~first_step:0 ~init defn

let tstencil_from_zero ctx ~name ~steps ~sizes ?(boundary = 0.0) ~first defn =
  if steps < 1 then invalid_arg "Dsl.tstencil_from_zero: steps must be >= 1";
  let step0 =
    Pipeline.add ctx.builder (fun ~id ->
        { Func.id;
          name = Printf.sprintf "%s_t0" name;
          dims = Array.length sizes;
          sizes = Array.copy sizes;
          defn = Func.Def first;
          boundary = Func.Dirichlet boundary;
          kind = Func.Smooth { step = 0; total = steps } })
  in
  smooth_chain ctx ~name ~steps ~boundary ~first_step:1 ~init:step0 defn

(* d-dimensional tensor product of the 1-D full-weighting kernel
   [1; 2; 1]/4, i.e. divided by 4^d overall. *)
let full_weighting dims =
  let base = [| 1.0; 2.0; 1.0 |] in
  match dims with
  | 1 -> Weights.w1 (Array.map (fun a -> a /. 4.0) base)
  | 2 ->
    Weights.w2
      (Array.map (fun a -> Array.map (fun b -> a *. b /. 16.0) base) base)
  | 3 ->
    Weights.w3
      (Array.map
         (fun a ->
           Array.map (fun b -> Array.map (fun c -> a *. b *. c /. 64.0) base)
             base)
         base)
  | _ -> invalid_arg "Dsl.restrict_fn: only ranks 1-3 supported"

let restrict_fn ctx ~name ~input ?weights ?(factor = 1.0) ?(boundary = 0.0) () =
  let dims = input.Func.dims in
  let w = match weights with Some w -> w | None -> full_weighting dims in
  let body =
    stencil_coarse input w
      ?factor:(if factor = 1.0 then None else Some (Expr.const factor))
      ()
  in
  Pipeline.add ctx.builder (fun ~id ->
      { Func.id; name; dims;
        sizes = Array.map Sizeexpr.coarsen input.Func.sizes;
        defn = Func.Def body; boundary = Func.Dirichlet boundary;
        kind = Func.Restriction })

(* Parity case [p] of d-linear interpolation: in each dimension, an even
   output coordinate injects the coarse point x/2; an odd one averages
   (x-1)/2 and (x+1)/2. *)
let interp_case (input : Func.t) ~dims p =
  let dim_choices k =
    if (p lsr k) land 1 = 0 then
      [ ({ Expr.mul = 1; add = 0; den = 2; off = 0 }, 1.0) ]
    else
      [ ({ Expr.mul = 1; add = -1; den = 2; off = 0 }, 0.5);
        ({ Expr.mul = 1; add = 1; den = 2; off = 0 }, 0.5) ]
  in
  let rec combos k =
    if k = dims then [ ([], 1.0) ]
    else
      List.concat_map
        (fun (accs, w) ->
          List.map (fun (a, wk) -> (a :: accs, w *. wk)) (dim_choices k))
        (combos (k + 1))
  in
  let terms =
    List.map
      (fun (accs, w) ->
        let l = Expr.load_at input.Func.id (Array.of_list accs) in
        if w = 1.0 then l else Expr.(const w * l))
      (combos 0)
  in
  sum_terms terms

let interp_fn ctx ~name ~input ?(boundary = 0.0) () =
  let dims = input.Func.dims in
  let cases = Array.init (1 lsl dims) (fun p -> interp_case input ~dims p) in
  Pipeline.add ctx.builder (fun ~id ->
      { Func.id; name; dims;
        sizes = Array.map Sizeexpr.refine input.Func.sizes;
        defn = Func.Parity cases; boundary = Func.Dirichlet boundary;
        kind = Func.Interpolation })

let finish ctx ~outputs = Pipeline.finish ctx.builder ~outputs
