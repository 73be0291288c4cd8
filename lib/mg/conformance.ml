module Grid = Repro_grid.Grid
module Json = Repro_runtime.Json
open Repro_core
module Pipeline = Repro_ir.Pipeline
module Func = Repro_ir.Func
module Sizeexpr = Repro_ir.Sizeexpr

(* ------------------------------------------------------------------ *)
(* Difference metrics                                                   *)

let ulps a b =
  if a = b then 0.0
  else if Float.is_nan a || Float.is_nan b then infinity
  else
    (* map bit patterns to an order-preserving integer line, so the ULP
       distance is a plain subtraction even across zero *)
    let key x =
      let bits = Int64.bits_of_float x in
      if Int64.compare bits 0L >= 0 then bits else Int64.sub Int64.min_int bits
    in
    Int64.to_float (Int64.abs (Int64.sub (key a) (key b)))

type diff = { max_abs : float; max_ulp : float; worst : int }

let no_diff = { max_abs = 0.0; max_ulp = 0.0; worst = -1 }

let grid_diff (a : Grid.t) (b : Grid.t) =
  if Grid.extents a <> Grid.extents b then
    invalid_arg "Conformance.grid_diff: extents differ";
  let d = ref no_diff in
  for i = 0 to Repro_grid.Buf.len a.Grid.buf - 1 do
    let x = Repro_grid.Buf.get a.Grid.buf i and y = Repro_grid.Buf.get b.Grid.buf i in
    let abs = Repro_grid.Buf.point_diff x y in
    if abs > !d.max_abs then d := { max_abs = abs; max_ulp = ulps x y; worst = i }
  done;
  !d

(* ------------------------------------------------------------------ *)
(* Tolerance budgets (documented in TESTING.md)                         *)

type budgets = { vs_plan : float; vs_handopt : float; vs_c : float }

let default_budgets = { vs_plan = 0.0; vs_handopt = 1e-9; vs_c = 0.0 }

(* ------------------------------------------------------------------ *)
(* Deterministic input fill for a native pair's cycle 0: FNV-1a over
   (input index, multi-index), folded to [-0.5, 0.5) with a 20-bit
   mantissa so every value is exact in double. *)

let fill_val ~input idx =
  let step h x = Int.logxor h x * 16777619 land 0xFFFFFFFF in
  let h = step 0x811c9dc5 input in
  let h = Array.fold_left step h idx in
  (float_of_int (h land 0xFFFFF) /. 1048576.0) -. 0.5

(* ------------------------------------------------------------------ *)
(* Stage drilldown: on a variant mismatch, re-run the cycle pipeline
   truncated after each stage (in topological order) under both plans on
   the same inputs, and report the first stage whose values diverge. *)

let with_output pipe id =
  let b = Pipeline.builder (Pipeline.name pipe) in
  Array.iter
    (fun (f : Func.t) ->
      ignore (Pipeline.add b (fun ~id ->
          assert (id = f.Func.id);
          f)))
    (Pipeline.funcs pipe);
  Pipeline.finish b ~outputs:[ Pipeline.func pipe id ]

let stage_grid pipe ~n id =
  let f = Pipeline.func pipe id in
  Grid.create
    (Array.map (fun s -> Sizeexpr.eval ~n s + 2) f.Func.sizes)

let drilldown cfg ~n ~opts ~v ~f ~budget =
  let pipe = Cycle.build cfg in
  let params = Cycle.params cfg ~n in
  let vin = Cycle.input_v pipe and fin = Cycle.input_f pipe in
  let nfuncs = Array.length (Pipeline.funcs pipe) in
  let run_stage id opts =
    let truncated = with_output pipe id in
    let plan = Plan.build truncated ~opts ~n ~params in
    let g = stage_grid pipe ~n id in
    Exec.with_runtime (fun rt ->
        Exec.run plan rt ~inputs:[ (vin, v); (fin, f) ] ~outputs:[ (id, g) ]);
    g
  in
  let rec scan id =
    if id >= nfuncs then None
    else
      let fn = Pipeline.func pipe id in
      if Func.is_input fn then scan (id + 1)
      else
        let d = grid_diff (run_stage id Options.naive) (run_stage id opts) in
        if d.max_abs > budget then Some (fn.Func.name, d.max_abs)
        else scan (id + 1)
  in
  scan 0

(* ------------------------------------------------------------------ *)
(* Differential oracle                                                  *)

type pair = {
  candidate : string;
  domains : int;
  max_abs : float;
  max_ulp : float;
  worst_cycle : int;  (* 1-based; 0 when no difference at all *)
  budget : float;
  pass : bool;
  first_bad_stage : (string * float) option;
}

type case = {
  bench : string;
  n : int;
  cycles : int;
  pairs : pair list;
}

let case_pass c = List.for_all (fun p -> p.pass) c.pairs

(* Lockstep comparison: every candidate cycle starts from the
   {e reference} iterate of the previous cycle, so each comparison
   isolates exactly one cycle's worth of divergence on identical
   inputs — differences cannot compound across cycles. *)
let lockstep ~refs ~f ~cycles step =
  let worst = ref no_diff and worst_cycle = ref 0 in
  for c = 1 to cycles do
    let out = Grid.create (Grid.extents refs.(0)) in
    step ~v:refs.(c - 1) ~f ~out;
    let d = grid_diff refs.(c) out in
    if d.max_abs > !worst.max_abs then begin
      worst := d;
      worst_cycle := c
    end
  done;
  (!worst, !worst_cycle)

let plan_variants =
  [ ("opt", Options.opt);
    ("opt+", Options.opt_plus);
    ("dtile-opt+", Options.dtile_opt_plus) ]

let oracle_case ?(quick = false) cfg ~n ~cycles () =
  let dims = cfg.Cycle.dims in
  let prob = Problem.poisson ~dims ~n in
  let f = prob.Problem.f in
  (* reference: the naive plan on one domain, iterates v0..v_cycles *)
  let refs = Array.make (cycles + 1) prob.Problem.v in
  Exec.with_runtime (fun rt ->
      let step =
        Solver.plan_stepper (Solver.polymg_plan cfg ~n ~opts:Options.naive) ~rt
      in
      for c = 1 to cycles do
        let out = Grid.create (Grid.extents prob.Problem.v) in
        step ~v:refs.(c - 1) ~f ~out;
        refs.(c) <- out
      done);
  let pair ?(drill = None) candidate ~domains ~budget mk_step =
    let d, wc =
      Exec.with_runtime ~domains (fun rt ->
          lockstep ~refs ~f ~cycles (mk_step rt))
    in
    let pass = d.max_abs <= budget in
    let first_bad_stage =
      match (pass, drill) with
      | false, Some opts ->
        drilldown cfg ~n ~opts ~v:refs.(Int.max 0 (wc - 1)) ~f ~budget
      | _ -> None
    in
    { candidate; domains; max_abs = d.max_abs; max_ulp = d.max_ulp;
      worst_cycle = wc; budget; pass; first_bad_stage }
  in
  let domain_list = if quick then [ 1 ] else [ 1; 4 ] in
  let variant_pairs =
    List.concat_map
      (fun (vname, opts) ->
        List.map
          (fun domains ->
            pair vname ~drill:(Some opts) ~domains
              ~budget:default_budgets.vs_plan (fun rt ->
                Solver.plan_stepper (Solver.polymg_plan cfg ~n ~opts) ~rt))
          domain_list)
      plan_variants
  in
  (* the naive plan itself on 4 domains: same schedule, partitioned *)
  let naive_domains =
    if quick then []
    else
      [ pair "naive" ~domains:4 ~budget:default_budgets.vs_plan (fun rt ->
            Solver.plan_stepper
              (Solver.polymg_plan cfg ~n ~opts:Options.naive)
              ~rt) ]
  in
  let handopt_pairs =
    let smoothings =
      if quick then [ ("handopt", Handopt.Plain) ]
      else
        [ ("handopt", Handopt.Plain);
          ("handopt+pluto", Handopt.Pluto { sigma = 2 }) ]
    in
    List.map
      (fun (name, smoothing) ->
        pair name ~domains:1 ~budget:default_budgets.vs_handopt (fun rt ->
            Handopt.stepper
              (Handopt.create cfg ~n ~par:rt.Exec.par ~smoothing ())))
      smoothings
  in
  { bench = Cycle.bench_name cfg;
    n;
    cycles;
    pairs = variant_pairs @ naive_domains @ handopt_pairs }

let campaign_matrix ~quick =
  let smoothings = if quick then [ (4, 4, 4) ] else [ (4, 4, 4); (10, 0, 0) ] in
  let shapes = if quick then [ Cycle.V ] else [ Cycle.V; Cycle.W ] in
  List.concat_map
    (fun dims ->
      List.concat_map
        (fun shape ->
          List.map
            (fun sm ->
              (Cycle.default ~dims ~shape ~smoothing:sm,
               if dims = 2 then 32 else 16))
            smoothings)
        shapes)
    [ 2; 3 ]

let oracle_campaign ?(quick = false) () =
  List.map
    (fun (cfg, n) -> oracle_case ~quick cfg ~n ~cycles:3 ())
    (campaign_matrix ~quick)

(* ------------------------------------------------------------------ *)
(* Backend axis: interpreter vs native                                  *)

(* The plan's inputs filled with [fill_val], and fresh output grids. *)
let fill_io (plan : Plan.t) =
  let grid_of = stage_grid plan.Plan.pipeline ~n:plan.Plan.n in
  let inputs =
    List.mapi
      (fun i fid ->
        let g = grid_of fid in
        Grid.fill_interior g ~f:(fill_val ~input:i);
        (fid, g))
      (Array.to_list plan.Plan.inputs)
  in
  let outputs =
    List.map (fun (fid, _) -> (fid, grid_of fid)) plan.Plan.output_arrays
  in
  (inputs, outputs)

(* The one interpreter-vs-native comparison.  The interpreter is the
   reference and writes [outputs]; the candidate is the plan's native
   kernel, so the C runs through Native's one toolchain (compiler
   discovery, POLYMG_CC, and a cache that keeps each kernel's .c and
   compiler log).  Outputs are diffed whole, ghosts included.  The
   kernel writes its outputs in place, so their grids start as NaN: a
   cell it skips fails the pair instead of matching a fresh zero. *)
let vs_native ?(domains = 1) (plan : Plan.t) ~inputs ~outputs =
  match Native.load plan with
  | Error e -> Error ("cannot build the native kernel: " ^ e)
  | Ok kernel ->
    Exec.with_runtime ~domains (fun rt -> Exec.run plan rt ~inputs ~outputs);
    let native =
      List.map
        (fun (fid, g) ->
          let c = Grid.create (Grid.extents g) in
          Repro_grid.Buf.fill c.Grid.buf Float.nan;
          (fid, c))
        outputs
    in
    Native.run kernel ~inputs ~outputs:native;
    Ok
      (List.fold_left2
         (fun (worst : diff) (_, r) (_, c) ->
           let d = grid_diff r c in
           if d.max_abs > worst.max_abs then d else worst)
         no_diff outputs native)

(* For each plan variant, cycle 0 runs the plan on [fill_val] inputs;
   cycles 1.. run it in lockstep on the interpreter's own Poisson
   iterates (at 1 and 4 domains), so a mismatch is pinned to the
   backend, not to the schedule.  The native kernel is the emitted C,
   so it is judged against the [vs_c] budget. *)
let native_case ?(quick = false) ?variants cfg ~n ~cycles () =
  let prob = Problem.poisson ~dims:cfg.Cycle.dims ~n in
  let f = prob.Problem.f in
  let variants =
    match variants with
    | Some vs -> vs
    | None when quick ->
      [ ("naive", Options.naive); ("opt+", Options.opt_plus) ]
    | None -> ("naive", Options.naive) :: plan_variants
  in
  let domain_list = if quick then [ 1 ] else [ 1; 4 ] in
  let pair vname plan domains =
    let pipe = plan.Plan.pipeline in
    let vin = Cycle.input_v pipe and fin = Cycle.input_f pipe in
    let out_id = Cycle.output pipe in
    (* cycle c's reference output is cycle c+1's iterate *)
    let rec go c (inputs, outputs) ((worst : diff), wc) =
      match vs_native ~domains plan ~inputs ~outputs with
      | Error e -> Error (e, c)
      | Ok d ->
        let acc = if d.max_abs > worst.max_abs then (d, c) else (worst, wc) in
        if c = cycles then Ok acc
        else
          let v = if c = 0 then prob.Problem.v else List.assoc out_id outputs in
          go (c + 1)
            ( [ (vin, v); (fin, f) ],
              [ (out_id, Grid.create (Grid.extents v)) ] )
            acc
    in
    let d, wc, bad =
      match go 0 (fill_io plan) (no_diff, 0) with
      | Ok (d, wc) -> (d, wc, None)
      | Error (e, c) ->
        ( ({ max_abs = infinity; max_ulp = infinity; worst = -1 } : diff),
          c,
          Some (e, infinity) )
    in
    { candidate = "native:" ^ vname; domains; max_abs = d.max_abs;
      max_ulp = d.max_ulp; worst_cycle = wc; budget = default_budgets.vs_c;
      pass = d.max_abs <= default_budgets.vs_c; first_bad_stage = bad }
  in
  let pairs =
    List.concat_map
      (fun (vname, opts) ->
        let plan = Solver.polymg_plan cfg ~n ~opts in
        List.map (pair vname plan) domain_list)
      variants
  in
  { bench = Cycle.bench_name cfg; n; cycles; pairs }

let native_campaign ?(quick = false) () =
  let cases =
    List.map
      (fun (cfg, n) -> native_case ~quick cfg ~n ~cycles:3 ())
      (campaign_matrix ~quick)
  in
  match Native.cc () with
  | Some _ -> (cases, None)
  | None ->
    (* skipped: every pair stops at the load, and the one reason moves
       to the campaign, so the report has the same keys on every host *)
    let unrun p = { p with first_bad_stage = None } in
    ( List.map (fun c -> { c with pairs = List.map unrun c.pairs }) cases,
      Some "no C compiler found (tried gcc, cc)" )

(* ------------------------------------------------------------------ *)
(* Method-of-manufactured-solutions convergence order                   *)

type mms = {
  m_dims : int;
  m_samples : (int * float) list;
  m_order : float;
}

(* opt+ for 60 cycles: at the campaign's largest grids the V-cycle
   contraction is ~0.67/cycle, so the algebraic error lands around 1e-10
   — far below the ~1e-4 discretization error whose decay we are
   measuring. *)
let mms_study ~dims () =
  (* four levels in both ranks (coarsest interior stays valid down to
     n = 16): a shallower 3D hierarchy contracts at only ~0.9/cycle and
     never pushes the algebraic error below the discretization error,
     and an n = 8 sample is pre-asymptotic (observed order ~2.16) *)
  let levels = 4 in
  let ns = [ 16; 32; 64 ] in
  let cfg =
    { (Cycle.default ~dims ~shape:Cycle.V ~smoothing:(4, 4, 4)) with
      Cycle.levels }
  in
  let solve ~n =
    (Solver.solve cfg ~n ~opts:Options.opt_plus ~cycles:60 ~residuals:false ())
      .Solver.v
  in
  let exact ~n =
    let p = Problem.poisson ~dims ~n in
    p.Problem.exact
  in
  let samples = Verify.convergence_study ~solve ~exact ~ns in
  { m_dims = dims; m_samples = samples; m_order = Verify.observed_order samples }

let mms_pass m = Float.abs (m.m_order -. 2.0) <= 0.1

(* ------------------------------------------------------------------ *)
(* Reporting                                                            *)

let json_of_pair p =
  Json.Obj
    [ ("candidate", Json.Str p.candidate);
      ("domains", Json.num p.domains);
      ("max_abs", Json.Num p.max_abs);
      ("max_ulp", Json.Num p.max_ulp);
      ("worst_cycle", Json.num p.worst_cycle);
      ("budget", Json.Num p.budget);
      ("pass", Json.Bool p.pass);
      ( "first_bad_stage",
        match p.first_bad_stage with
        | None -> Json.Null
        | Some (stage, abs) ->
          Json.Obj [ ("stage", Json.Str stage); ("max_abs", Json.Num abs) ] )
    ]

let json_of_case c =
  Json.Obj
    [ ("bench", Json.Str c.bench);
      ("n", Json.num c.n);
      ("cycles", Json.num c.cycles);
      ("pass", Json.Bool (case_pass c));
      ("pairs", Json.Arr (List.map json_of_pair c.pairs)) ]

let json_of_mms m =
  Json.Obj
    [ ("dims", Json.num m.m_dims);
      ("order", Json.Num m.m_order);
      ("pass", Json.Bool (mms_pass m));
      ( "samples",
        Json.Arr
          (List.map
             (fun (n, e) ->
               Json.Obj [ ("n", Json.num n); ("error_l2", Json.Num e) ])
             m.m_samples) ) ]

let pp_pair fmt p =
  Format.fprintf fmt "%-18s dom=%d  max|Δ|=%.3e  ulp=%.1e  cycle=%d  %s" p.candidate
    p.domains p.max_abs p.max_ulp p.worst_cycle
    (if p.pass then "ok" else Printf.sprintf "FAIL (budget %.1e)" p.budget);
  match p.first_bad_stage with
  | Some (stage, abs) ->
    Format.fprintf fmt "@,    first diverging stage: %s (max|Δ|=%.3e)" stage abs
  | None -> ()

let pp_case fmt c =
  Format.fprintf fmt "@[<v2>%s (n=%d, %d cycles): %s@,%a@]" c.bench c.n
    c.cycles
    (if case_pass c then "PASS" else "FAIL")
    (Format.pp_print_list pp_pair)
    c.pairs

let pp_mms fmt m =
  Format.fprintf fmt "@[<v2>MMS %dD: observed order %.3f (%s)@,%a@]" m.m_dims
    m.m_order
    (if mms_pass m then "ok" else "FAIL, want 2.0 +/- 0.1")
    (Format.pp_print_list (fun fmt (n, e) ->
         Format.fprintf fmt "n=%-3d  error_l2=%.6e" n e))
    m.m_samples
