open Repro_ir
open Repro_poly
open Repro_core
module Buf = Repro_grid.Buf

let check_float = Alcotest.(check (float 1e-10))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let params_empty name = invalid_arg ("no param " ^ name)
let params name = if name = "w" then 0.25 else invalid_arg name

(* -------------------- linearize -------------------- *)

let test_linearize_const () =
  match Compile.linearize (Expr.const 3.0) ~params:params_empty with
  | Some (c, []) -> check_float "const" 3.0 c
  | _ -> Alcotest.fail "expected constant"

let test_linearize_param () =
  match Compile.linearize Expr.(param "w" * const 2.0) ~params with
  | Some (c, []) -> check_float "resolved" 0.5 c
  | _ -> Alcotest.fail "expected constant"

let test_linearize_jacobi_merges_duplicates () =
  (* v - w*(4v - n - s - e - w') : the two v(0,0) terms merge *)
  let v = 3 in
  let st =
    Expr.(
      (const 4.0 * load v [| 0; 0 |])
      - load v [| -1; 0 |] - load v [| 1; 0 |] - load v [| 0; -1 |]
      - load v [| 0; 1 |])
  in
  let e = Expr.(load v [| 0; 0 |] - (param "w" * st)) in
  match Compile.linearize e ~params with
  | Some (c, terms) ->
    check_float "no constant" 0.0 c;
    check_int "5 merged terms" 5 (List.length terms);
    let centre =
      List.find (fun (_, _, a) -> a = Expr.shifted_access [| 0; 0 |]) terms
    in
    let w, _, _ = centre in
    check_float "centre coef 1-4w" 0.0 (w -. 0.0);
    check_bool "value" true (Float.abs (w -. (1.0 -. (0.25 *. 4.0))) < 1e-12)
  | None -> Alcotest.fail "linear"

let test_linearize_div () =
  match Compile.linearize Expr.(load 0 [| 0 |] / const 4.0) ~params with
  | Some (_, [ (w, _, _) ]) -> check_float "quarter" 0.25 w
  | _ -> Alcotest.fail "div by const is linear"

let test_linearize_nonlinear () =
  check_bool "v*v" true
    (Compile.linearize Expr.(load 0 [| 0 |] * load 0 [| 0 |]) ~params = None);
  check_bool "min" true
    (Compile.linearize
       (Expr.Binop (Expr.Min, Expr.const 0.0, Expr.load 0 [| 0 |]))
       ~params
     = None);
  check_bool "coord" true
    (Compile.linearize (Expr.Coord 0) ~params = None);
  check_bool "div by load" true
    (Compile.linearize Expr.(const 1.0 / load 0 [| 0 |]) ~params = None)

(* -------------------- eval_expr -------------------- *)

let test_eval_expr () =
  let lookup f pc =
    check_int "func" 7 f;
    float_of_int (pc.(0) + (10 * pc.(1)))
  in
  let e = Expr.(load 7 [| 1; -1 |] + const 0.5) in
  check_float "eval" (3. +. 10. +. 0.5)
    (Compile.eval_expr e ~params ~lookup [| 2; 2 |])

let test_eval_ops () =
  let lookup _ _ = 4.0 in
  let f e = Compile.eval_expr e ~params ~lookup [| 0 |] in
  check_float "sqrt" 2.0 (f (Expr.Unop (Expr.Sqrt, Expr.load 0 [| 0 |])));
  check_float "abs" 3.0 (f (Expr.Unop (Expr.Abs, Expr.const (-3.0))));
  check_float "min" 2.0 (f (Expr.Binop (Expr.Min, Expr.const 2.0, Expr.const 5.0)));
  check_float "max" 5.0 (f (Expr.Binop (Expr.Max, Expr.const 2.0, Expr.const 5.0)))

(* -------------------- compiled stages -------------------- *)

let mk_func ?(dims = 2) ?(kind = Func.Pointwise) ?(boundary = 0.0) ~id ~name
    ~size defn =
  { Func.id; name; dims; sizes = Array.make dims (Sizeexpr.const size);
    defn; boundary = Func.Dirichlet boundary; kind }

let grid_source size =
  let buf = Buf.create ((size + 2) * (size + 2)) in
  ({ Compile.data = buf.Buf.data; strides = [| size + 2; 1 |]; org = [| 0; 0 |] },
   buf)

let fill_source (src : Compile.source) size f =
  for i = 0 to size + 1 do
    for j = 0 to size + 1 do
      Bigarray.Array1.set src.Compile.data
        (Compile.source_index src [| i; j |])
        (f i j)
    done
  done

let test_run_stencil_matches_reference () =
  let size = 8 in
  let v_src, _ = grid_source size in
  fill_source v_src size (fun i j -> float_of_int ((i * 17) + j));
  let defn =
    Expr.(
      (const 0.25
       * (load 0 [| -1; 0 |] + load 0 [| 1; 0 |] + load 0 [| 0; -1 |]
          + load 0 [| 0; 1 |]))
      - load 0 [| 0; 0 |])
  in
  let f = mk_func ~id:1 ~name:"s" ~size (Func.Def defn) ~boundary:(-7.0) in
  let compiled = Compile.compile f ~params in
  let dst, _ = grid_source size in
  let interior = Box.of_sizes [| size; size |] in
  let region = Box.with_ghost [| size; size |] in
  compiled.Compile.run ~srcs:[| v_src |] ~dst ~interior ~region;
  (* interior matches the interpreter *)
  let lookup _ pc =
    Bigarray.Array1.get v_src.Compile.data (Compile.source_index v_src pc)
  in
  for i = 1 to size do
    for j = 1 to size do
      check_float "point"
        (Compile.eval_expr defn ~params ~lookup [| i; j |])
        (Bigarray.Array1.get dst.Compile.data
           (Compile.source_index dst [| i; j |]))
    done
  done;
  (* ghost rim got the boundary value *)
  check_float "ghost corner" (-7.0)
    (Bigarray.Array1.get dst.Compile.data (Compile.source_index dst [| 0; 0 |]));
  check_float "ghost edge" (-7.0)
    (Bigarray.Array1.get dst.Compile.data
       (Compile.source_index dst [| 0; 5 |]))

let test_run_subregion_only () =
  let size = 8 in
  let v_src, _ = grid_source size in
  fill_source v_src size (fun _ _ -> 1.0);
  let f =
    mk_func ~id:1 ~name:"c" ~size (Func.Def (Expr.load 0 [| 0; 0 |]))
  in
  let compiled = Compile.compile f ~params in
  let dst, dbuf = grid_source size in
  Buf.fill dbuf Float.nan;
  let interior = Box.of_sizes [| size; size |] in
  let region = Box.v ~lo:[| 3; 2 |] ~hi:[| 5; 6 |] in
  compiled.Compile.run ~srcs:[| v_src |] ~dst ~interior ~region;
  check_float "inside" 1.0
    (Bigarray.Array1.get dst.Compile.data (Compile.source_index dst [| 4; 4 |]));
  check_bool "outside untouched" true
    (Float.is_nan
       (Bigarray.Array1.get dst.Compile.data
          (Compile.source_index dst [| 1; 1 |])))

let test_parity_cases () =
  (* interp-like stage: even -> 1.0, odd -> 2.0 per dimension product *)
  let size = 9 in
  let cases =
    Array.init 4 (fun p ->
        Expr.const (float_of_int (1 + (p land 1) + ((p lsr 1) land 1))))
  in
  let f =
    mk_func ~id:0 ~name:"i" ~size (Func.Parity cases) ~kind:Func.Interpolation
  in
  let compiled = Compile.compile f ~params in
  let dst, _ = grid_source size in
  let interior = Box.of_sizes [| size; size |] in
  compiled.Compile.run ~srcs:[||] ~dst ~interior ~region:interior;
  let get i j =
    Bigarray.Array1.get dst.Compile.data (Compile.source_index dst [| i; j |])
  in
  (* parity bit k set iff coordinate k odd: (2,2)->1, (2,3)->2, (3,2)->2, (3,3)->3 *)
  check_float "even-even" 1.0 (get 2 2);
  check_float "even-odd" 2.0 (get 2 3);
  check_float "odd-even" 2.0 (get 3 2);
  check_float "odd-odd" 3.0 (get 3 3)

let test_gen_fallback_minmax () =
  let size = 6 in
  let v_src, _ = grid_source size in
  fill_source v_src size (fun i j -> float_of_int (i - j));
  let defn =
    Expr.Binop (Expr.Max, Expr.load 0 [| 0; 0 |], Expr.const 0.0)
  in
  let f = mk_func ~id:3 ~name:"relu" ~size (Func.Def defn) in
  let compiled = Compile.compile f ~params in
  (match compiled.Compile.cases with
   | [ { Compile.kernel = Compile.Gen _; _ } ] -> ()
   | _ -> Alcotest.fail "expected Gen fallback");
  let dst, _ = grid_source size in
  let interior = Box.of_sizes [| size; size |] in
  compiled.Compile.run ~srcs:[| v_src |] ~dst ~interior ~region:interior;
  check_float "max applied" 0.0
    (Bigarray.Array1.get dst.Compile.data (Compile.source_index dst [| 1; 4 |]));
  check_float "positive kept" 3.0
    (Bigarray.Array1.get dst.Compile.data (Compile.source_index dst [| 4; 1 |]))

let test_compile_input_rejected () =
  let f =
    { Func.id = 0; name = "V"; dims = 2;
      sizes = Array.make 2 (Sizeexpr.const 4);
      defn = Func.Undefined; boundary = Func.Ghost_input; kind = Func.Input }
  in
  Alcotest.check_raises "input"
    (Invalid_argument "Compile.compile: cannot compile an input") (fun () ->
      ignore (Compile.compile f ~params))

(* The one summation order both engines share: [base], then each term of
   the compiled linear case, left to right (the order [C_emit] prints). *)
let in_lin_order (compiled : Compile.t) (srcs : Compile.source array) coords =
  match compiled.Compile.cases with
  | [ { Compile.kernel = Compile.Lin { base; terms }; parity = None } ] ->
    Array.fold_left
      (fun acc (t : Compile.term) ->
        let src = srcs.(t.Compile.pos) in
        let pc =
          Array.mapi
            (fun k (a : Expr.access) ->
              (((a.Expr.mul * coords.(k)) + a.Expr.add) / a.Expr.den)
              + a.Expr.off)
            t.Compile.accs
        in
        acc
        +. (t.Compile.coef
            *. Bigarray.Array1.get src.Compile.data
                 (Compile.source_index src pc)))
      base terms
  | _ -> Alcotest.fail "expected one linear case without parity"

let run_interior compiled srcs size =
  let dst, _ = grid_source size in
  let interior = Box.of_sizes [| size; size |] in
  compiled.Compile.run ~srcs ~dst ~interior ~region:interior;
  fun i j ->
    Bigarray.Array1.get dst.Compile.data (Compile.source_index dst [| i; j |])

(* The walk shapes the multigrid stages reach — the residual (rhs first),
   the Jacobi smoother (rhs last), interpolation- and restriction-like
   single-buffer stencils — sum exactly in case order.  A symmetric
   stencil's neighbours are not grouped under one multiply. *)
let test_walks_sum_in_case_order () =
  let size = 9 in
  let v = 0 and f = 1 in
  let bufs =
    Array.init 2 (fun b ->
        let src, _ = grid_source size in
        fill_source src size (fun i j ->
            Float.of_int (((i * 31) + (j * 7) + (b * 5)) mod 23) /. 3.7);
        src)
  in
  let at dx dy = Expr.load v [| dx; dy |] in
  let lap =
    Expr.(
      const 0.7
      * ((const 4.0 * at 0 0) - at (-1) 0 - at 1 0 - at 0 (-1) - at 0 1))
  in
  let nine =
    List.concat_map (fun dx -> List.map (fun dy -> (dx, dy)) [ -1; 0; 1 ])
      [ -1; 0; 1 ]
  in
  let sum_of offs =
    List.fold_left
      (fun acc (dx, dy) -> Expr.(acc + (const 0.3 * at dx dy)))
      (Expr.const 0.1) offs
  in
  List.iteri
    (fun k defn ->
      let fn = mk_func ~id:9 ~name:"w" ~size (Func.Def defn) in
      let compiled = Compile.compile fn ~params in
      let srcs = Array.map (fun b -> bufs.(b)) compiled.Compile.producers in
      let got = run_interior compiled srcs size in
      for i = 1 to size do
        for j = 1 to size do
          let expect = in_lin_order compiled srcs [| i; j |] in
          if Int64.bits_of_float (got i j) <> Int64.bits_of_float expect then
            Alcotest.failf "shape %d at (%d,%d): got %h, case order %h" k i j
              (got i j) expect
        done
      done)
    [ Expr.(load f [| 0; 0 |] - lap);
      Expr.(at 0 0 - (param "w" * (lap - load f [| 0; 0 |])));
      Expr.(at 0 0 + load f [| 0; 0 |]);
      sum_of [ (0, 0); (0, 1); (1, 0); (1, 1) ];
      sum_of (List.filter (fun o -> o <> (0, 0)) nine);
      sum_of nine ]

(* A walk over one buffer reads only its own terms: no zero-weighted
   stand-in for a missing rhs stream, so a non-finite value at buffer
   index 0 (ghost corner (0,0), which no term below reads) cannot turn
   every point into NaN. *)
let test_single_buffer_walk_reads_own_terms () =
  let size = 6 in
  let v_src, _ = grid_source size in
  fill_source v_src size (fun _ _ -> 0.0);
  Bigarray.Array1.set v_src.Compile.data 0 infinity;
  let offs = [ (0, 0); (1, 0); (-1, 0); (0, 1); (0, -1); (1, 1); (1, -1); (-1, 1) ] in
  List.iter
    (fun k ->
      let defn =
        List.fold_left
          (fun acc (dx, dy) -> Expr.(acc + (const 0.25 * load 0 [| dx; dy |])))
          (Expr.const 0.0)
          (List.filteri (fun i _ -> i < k) offs)
      in
      let compiled =
        Compile.compile (mk_func ~id:1 ~name:"s" ~size (Func.Def defn)) ~params
      in
      let got = run_interior compiled [| v_src |] size in
      for i = 1 to size do
        for j = 1 to size do
          if got i j <> 0.0 then
            Alcotest.failf "%d-point walk at (%d,%d): %g, expected 0" k i j
              (got i j)
        done
      done)
    [ 1; 2; 4; 5; 8 ]

(* random linear stencils over up to three source buffers: compiled kernels
   vs the interpreter (within rounding) and vs the one summation order
   (exactly).  A case whose terms but its first or its last share one
   buffer runs as a walk; any other (the odd term in the middle, or two
   or more off the shared buffer) runs the per-term-cursor loop. *)
let prop_lin_matches_interpreter =
  QCheck.Test.make ~name:"linear kernels match the interpreter (nt 1..10)"
    ~count:80
    QCheck.(
      pair (int_range 1 10)
        (list_of_size (Gen.return 10)
           (pair (int_range 0 2)
              (triple (int_range (-1) 1) (int_range (-1) 1)
                 (float_range (-2.0) 2.0)))))
    (fun (nt, offsets) ->
      let size = 7 in
      let bufs =
        Array.init 3 (fun b ->
            let src, _ = grid_source size in
            fill_source src size (fun i j ->
                float_of_int (((i * 31) + (j * 7) + (b * 5)) mod 23) /. 3.0);
            src)
      in
      let terms = List.filteri (fun i _ -> i < nt) offsets in
      let defn =
        List.fold_left
          (fun acc (b, (oi, oj, w)) ->
            Expr.(acc + (const w * load b [| oi; oj |])))
          (Expr.const 0.125) terms
      in
      let f = mk_func ~id:9 ~name:"r" ~size (Func.Def defn) in
      let compiled = Compile.compile f ~params in
      let srcs = Array.map (fun b -> bufs.(b)) compiled.Compile.producers in
      let got = run_interior compiled srcs size in
      let lookup b pc =
        Bigarray.Array1.get bufs.(b).Compile.data
          (Compile.source_index bufs.(b) pc)
      in
      let ok = ref true in
      for i = 1 to size do
        for j = 1 to size do
          let expect = Compile.eval_expr defn ~params ~lookup [| i; j |] in
          if Float.abs (expect -. got i j) > 1e-9 then ok := false;
          if got i j <> in_lin_order compiled srcs [| i; j |] then ok := false
        done
      done;
      !ok)

let test_fill_rim_3d () =
  let size = 4 in
  let buf = Buf.create ((size + 2) * (size + 2) * (size + 2)) in
  let src =
    { Compile.data = buf.Buf.data;
      strides = [| (size + 2) * (size + 2); size + 2; 1 |];
      org = [| 0; 0; 0 |] }
  in
  Buf.fill buf Float.nan;
  Compile.fill_rim src
    ~region:(Box.with_ghost [| size; size; size |])
    ~interior:(Box.of_sizes [| size; size; size |])
    5.0;
  check_float "face" 5.0
    (Bigarray.Array1.get src.Compile.data
       (Compile.source_index src [| 0; 2; 2 |]));
  check_bool "interior untouched" true
    (Float.is_nan
       (Bigarray.Array1.get src.Compile.data
          (Compile.source_index src [| 2; 2; 2 |])))

let () =
  Alcotest.run "compile"
    [ ( "linearize",
        [ Alcotest.test_case "const" `Quick test_linearize_const;
          Alcotest.test_case "param" `Quick test_linearize_param;
          Alcotest.test_case "jacobi merge" `Quick
            test_linearize_jacobi_merges_duplicates;
          Alcotest.test_case "div" `Quick test_linearize_div;
          Alcotest.test_case "nonlinear" `Quick test_linearize_nonlinear ] );
      ( "eval",
        [ Alcotest.test_case "loads" `Quick test_eval_expr;
          Alcotest.test_case "ops" `Quick test_eval_ops ] );
      ( "run",
        [ Alcotest.test_case "stencil vs reference" `Quick
            test_run_stencil_matches_reference;
          Alcotest.test_case "subregion" `Quick test_run_subregion_only;
          Alcotest.test_case "parity cases" `Quick test_parity_cases;
          Alcotest.test_case "gen fallback" `Quick test_gen_fallback_minmax;
          Alcotest.test_case "input rejected" `Quick test_compile_input_rejected;
          Alcotest.test_case "fill_rim 3d" `Quick test_fill_rim_3d;
          Alcotest.test_case "walks sum in case order" `Quick
            test_walks_sum_in_case_order;
          Alcotest.test_case "single-buffer walk reads own terms" `Quick
            test_single_buffer_walk_reads_own_terms ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_lin_matches_interpreter ] ) ]
