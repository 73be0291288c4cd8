open Repro_core
open Repro_mg

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let plan_of ?(opts = Options.opt_plus) ?(n = 32) cfg =
  Plan.build (Cycle.build cfg) ~opts ~n ~params:(Cycle.params cfg ~n)

let vcfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4)

let test_emit_markers () =
  let s = C_emit.to_string (plan_of vcfg) in
  List.iter
    (fun marker ->
      check_bool ("contains " ^ marker) true (contains s marker))
    [ "_arena + "; "for (int _t = 0; _t < "; "double _buf_"; "users:";
      "#pragma omp simd"; "void pipeline_V_2D_4_4_4" ]

let presets =
  [ Options.naive; Options.opt; Options.opt_plus; Options.dtile_opt_plus ]

(* The 4 presets × V/W × 2-D/3-D, with each plan's emitted C. *)
let each_emitted f =
  List.iter
    (fun (dims, shape, sm, n) ->
      let cfg = Cycle.default ~dims ~shape ~smoothing:sm in
      List.iter
        (fun opts ->
          let plan = plan_of ~opts ~n cfg in
          f (Cycle.bench_name cfg ^ " " ^ Options.name opts) plan
            (C_emit.to_string plan))
        presets)
    [ (2, Cycle.V, (4, 4, 4), 32); (2, Cycle.W, (4, 4, 4), 32);
      (3, Cycle.V, (4, 4, 4), 16); (3, Cycle.W, (10, 0, 0), 16) ]

(* The pipeline allocates and copies nothing: its memory is the
   caller's buffers and arena. *)
let test_no_allocator () =
  each_emitted (fun what _ s ->
      List.iter
        (fun call -> check_bool (what ^ ": no " ^ call) false (contains s call))
        [ "pool_allocate"; "pool_deallocate"; "malloc"; "calloc"; "free(";
          "memcpy" ])

(* [double *NAME = _arena + OFF;] lines: (NAME, OFF in doubles). *)
let arena_binds s =
  String.split_on_char '\n' s
  |> List.filter_map (fun l ->
         try Scanf.sscanf (String.trim l) "double *%[_a-z0-9] = _arena + %d;%!"
               (fun name off -> Some (name, off))
         with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)

(* The arena as emitted: one [_dtmp_G] bind per diamond group, every
   bind inside [C_emit.arena_bytes], and two binds share bytes only when
   their live windows (an array's [first_group..last_group], a modulo
   buffer's own group) are disjoint. *)
let test_arena_layout () =
  each_emitted (fun what plan s ->
      let diamonds =
        Array.to_list plan.Plan.groups
        |> List.filter_map (function
             | Plan.G_diamond dg -> Some dg
             | Plan.G_tiled _ -> None)
      in
      let binds =
        List.map
          (fun (name, off) ->
            let len, window =
              match Scanf.sscanf name "_dtmp_%d%!" Fun.id with
              | g ->
                let dg = List.find (fun dg -> dg.Plan.gid = g) diamonds in
                (Repro_grid.Grid.ghosted_len dg.Plan.sizes, (g, g))
              | exception Scanf.Scan_failure _ ->
                let info = plan.Plan.arrays.(Scanf.sscanf name "_arr_%d%!" Fun.id) in
                (info.Plan.len, (info.Plan.first_group, info.Plan.last_group))
            in
            (name, 8 * off, 8 * (off + len), window))
          (arena_binds s)
      in
      check_bool (what ^ ": one _dtmp_G bind per diamond group") true
        (List.sort compare
           (List.filter_map
              (fun (name, _, _, _) ->
                if String.starts_with ~prefix:"_dtmp_" name then Some name
                else None)
              binds)
        = List.sort compare
            (List.map (fun dg -> Printf.sprintf "_dtmp_%d" dg.Plan.gid) diamonds));
      let arena = C_emit.arena_bytes plan in
      List.iter
        (fun (name, lo, hi, (wlo, whi)) ->
          check_bool (what ^ ": " ^ name ^ " ends within the arena") true
            (0 <= lo && hi <= arena);
          List.iter
            (fun (name', lo', hi', (wlo', whi')) ->
              if name < name' && wlo <= whi' && wlo' <= whi then
                check_bool
                  (Printf.sprintf "%s: %s and %s, both live, share no byte" what
                     name name')
                  true
                  (hi <= lo' || hi' <= lo))
            binds)
        binds)

(* The pipeline's parameters are N, the inputs, the output arrays and
   the arena; every other array, and no output, is bound in the arena. *)
let test_outputs_are_parameters () =
  each_emitted (fun what plan s ->
      let signature =
        List.find
          (fun l -> String.starts_with ~prefix:"void pipeline_" l)
          (String.split_on_char '\n' s)
      in
      let outs =
        List.map (fun (_, a) -> Printf.sprintf "double *_arr_%d" a)
          plan.Plan.output_arrays
      in
      check_bool (what ^ ": outputs then arena close the signature") true
        (String.ends_with
           ~suffix:(String.concat ", " (outs @ [ "double *_arena)" ]))
           signature);
      let bound =
        List.filter_map
          (fun (name, _) ->
            Scanf.sscanf_opt name "_arr_%d%!" Fun.id)
          (arena_binds s)
        |> List.sort compare
      in
      let intermediates =
        List.filter
          (fun a -> not plan.Plan.arrays.(a).Plan.output)
          (List.init (Array.length plan.Plan.arrays) Fun.id)
      in
      check_bool (what ^ ": the arena binds exactly the non-output arrays")
        true (bound = intermediates))

let test_emit_scratch_reuse_visible () =
  (* with scratch reuse, some buffer serves several smoothing steps *)
  let s = C_emit.to_string (plan_of vcfg) in
  check_bool "a shared scratchpad exists" true
    (contains s "_t0; " || contains s "_t1; ")

let test_emit_diamond_marker () =
  let s = C_emit.to_string (plan_of ~opts:Options.dtile_opt_plus vcfg) in
  check_bool "diamond group" true (contains s "diamond time tiling")

(* The emitted groups in plan order: the lines after each
   [/* ---- group] header, up to the next. *)
let group_sections s =
  let rec go acc cur = function
    | [] -> List.rev (match cur with Some c -> List.rev c :: acc | None -> acc)
    | l :: rest when contains l "/* ---- group " ->
      go (match cur with Some c -> List.rev c :: acc | None -> acc) (Some []) rest
    | l :: rest -> go acc (Option.map (List.cons (String.trim l)) cur) rest
  in
  go [] None (String.split_on_char '\n' s)

(* [const int A = X, B = Y;] lines: (A, X) and (B, Y). *)
let hoisted lines =
  List.concat_map
    (fun l ->
      try
        Scanf.sscanf l "const int %[a-z_0-9] = %[^,], %[a-z_0-9] = %[^;];%!"
          (fun a x b y -> [ (a, x); (b, y) ])
      with Scanf.Scan_failure _ | End_of_file | Failure _ -> [])
    lines

(* Every overlapped group that [C_emit.wavefront] leaves tiled (all of
   [each_emitted]'s: their grids fit L1) is one flat loop over its
   tiles, with no tile nest and no parallel pragma; along a dimension
   that has a single tile extent, every hoisted demand-region and
   own-slice bound is an integer literal. *)
let test_flat_tile_loop () =
  each_emitted (fun what plan s ->
      check_bool (what ^ ": no T_0") false (contains s "T_0");
      check_bool (what ^ ": no omp parallel") false (contains s "omp parallel");
      let sections = group_sections s in
      check_int (what ^ ": one section per group")
        (Array.length plan.Plan.groups) (List.length sections);
      List.iteri
        (fun gi lines ->
          let loops =
            List.filter_map
              (fun l ->
                Scanf.sscanf_opt l "for (int _t = 0; _t < %d; _t++) {%!" Fun.id)
              lines
          in
          match plan.Plan.groups.(gi) with
          | Plan.G_diamond _ ->
            check_int (Printf.sprintf "%s: group %d has no _t loop" what gi) 0
              (List.length loops)
          | Plan.G_tiled _ as g when C_emit.wavefront g ->
            Alcotest.failf "%s: group %d of a small grid runs row by row" what gi
          | Plan.G_tiled tg ->
            check_bool
              (Printf.sprintf "%s: group %d is one _t loop over its %d tiles"
                 what gi (Array.length tg.Plan.tiles))
              true
              (loops = [ Array.length tg.Plan.tiles ]);
            let t0 = tg.Plan.tiles.(0) in
            let one_extent k =
              Array.for_all
                (fun (t : Repro_poly.Box.t) ->
                  t.lo.(k) = t0.lo.(k) && t.hi.(k) = t0.hi.(k))
                tg.Plan.tiles
            in
            List.iter
              (fun (var, e) ->
                (* VAR is PRE_MEMBER_DIM *)
                match String.split_on_char '_' var with
                | [ ("lb" | "ub" | "ol" | "oh"); _; k ]
                  when one_extent (int_of_string k) ->
                  check_bool
                    (Printf.sprintf "%s: group %d: %s = %s is a literal" what gi
                       var e)
                    true
                    (int_of_string_opt e <> None)
                | _ -> ())
              (hoisted lines))
        sections)

let swap_line = "double *_sw = _pin; _pin = _pout; _pout = _sw;"

(* What a diamond step computes, its previous iterate aside: two steps
   with equal shapes print the same body against [_pin]/[_pout]. *)
let step_shape (dg : Plan.diamond_group) i =
  let m = dg.Plan.steps.(i) in
  ( List.map
      (fun (c : Compile.case_t) ->
        match c.Compile.kernel with
        | Compile.Lin { base; terms } -> Some (c.Compile.parity, base, terms)
        | Compile.Gen _ -> None)
      m.Plan.compiled.Compile.cases,
    Array.mapi
      (fun j src -> if j = dg.Plan.prev_pos.(i) then None else Some src)
      m.Plan.src_of )

(* The array a line's store goes to: an assignment [NAME[...] = ...],
   or the row pointer [_w] bound by [double *_w = NAME + ...]. *)
let written l =
  match Scanf.sscanf_opt l "double *_w = %[_a-zA-Z0-9] " Fun.id with
  | Some name -> Some name
  | None -> (
    match String.index_opt l '[' with
    | Some i when contains l "] = " && not (String.starts_with ~prefix:"_w[" l) ->
      Some (String.sub l 0 i)
    | _ -> None)

(* The plans [test_chain_loop_order] reads: [each_emitted]'s, whose
   2-D grids all fit L1, and the 2-D dtile-opt+ shapes whose finest
   chains do not (65x65, 129x129 and, at 8 levels, 257x257 with
   ghosts). *)
let chain_plans f =
  each_emitted f;
  List.iter
    (fun ((cfg : Cycle.config), n) ->
      let plan = plan_of ~opts:Options.dtile_opt_plus ~n cfg in
      f
        (Printf.sprintf "%s L%d dtile-opt+ n=%d" (Cycle.bench_name cfg)
           cfg.Cycle.levels n)
        plan (C_emit.to_string plan))
    [ (vcfg, 64);
      (Cycle.default ~dims:2 ~shape:Cycle.W ~smoothing:(4, 4, 4), 128);
      ({ vcfg with Cycle.levels = 8 }, 256) ]

(* The steps of a row wavefront's lines, as (step, stores read, store
   written).  Each [const int i = ROW;] opens one step's row: [_p] is
   step 1, [_p - D] step D+1, and [_p - (_s - 1)] every step of the
   [_s] loop before it, whose buffers come from the [_s]-parity select
   of [_pin] and [_pout]. *)
let wave_steps ~w ~rows lines =
  let run = ref None and select = ref None and blocks = ref [] in
  List.iter
    (fun l ->
      match Scanf.sscanf_opt l "const int i = %[^;];%!" Fun.id with
      | Some row -> blocks := (row, !run, !select, ref []) :: !blocks
      | None ->
        Option.iter
          (fun (a, r, b) ->
            check_int (w ^ ": the _s loop keeps each row in the grid") (rows - 1) r;
            run := Some (a, b))
          (Scanf.sscanf_opt l
             "for (int _s = max(%d, _p - %d); _s <= min(%d, _p); _s++) {%!"
             (fun a r b -> (a, r, b)));
        Option.iter
          (fun sel -> select := Some sel)
          (Scanf.sscanf_opt l
             "double *_pin = (_s & 1) ? %[_a-z0-9] : %[_a-z0-9], *_pout = (_s & 1) ? %[_a-z0-9] : %[_a-z0-9];%!"
             (fun a b c d -> ((a, b), (c, d))));
        (match !blocks with (_, _, _, ls) :: _ -> ls := l :: !ls | [] -> ()))
    lines;
  List.concat_map
    (fun (row, run, select, ls) ->
      let ls = List.rev !ls in
      let reads =
        List.filter_map
          (fun l -> Scanf.sscanf_opt l "const double *_r%_d = %[_a-zA-Z0-9] " Fun.id)
          ls
      in
      let writes =
        match List.find_map written ls with
        | Some x -> x
        | None -> Alcotest.failf "%s: row %s writes nothing" w row
      in
      match (row, run, select) with
      | "_p - (_s - 1)", Some (a, b), Some ((pin_odd, pin_even), (pout_odd, pout_even))
        ->
        List.init (b - a + 1) (fun k ->
            let s = a + k in
            let pick odd even = if s land 1 = 1 then odd else even in
            let sub x =
              if x = "_pin" then pick pin_odd pin_even
              else if x = "_pout" then pick pout_odd pout_even
              else x
            in
            (s, List.map sub reads, sub writes))
      | "_p", _, _ -> [ (1, reads, writes) ]
      | _ -> (
        match Scanf.sscanf_opt row "_p - %d%!" Fun.id with
        | Some d -> [ (d + 1, reads, writes) ]
        | None -> Alcotest.failf "%s: a step at row %s" w row))
    (List.rev !blocks)

(* Every diamond chain runs in the loop order [C_emit.wavefront] picks:
   2-D chains of 65x65 (ghosts included) and larger as a row
   wavefront, the others as a step loop.  Either way its comments name
   every step's stage, and the steps 2..T that compute alike are one
   [_s] loop.
   - Row wavefront: one [for (int _p ...)] loop over R + T - 1
     positions, step s at row [_p - (s-1)], with no whole-grid nest
     and no pointer swap; step s writes iterate s's buffer (so step 1
     the modulo buffer and step T the output array) and reads iterate
     s-1's.
   - Step loop: step 1 unrolled, then each step writes through [_pout]
     and swaps the pointers, so with the pointers' first values step 1
     fills the modulo buffer and step T the chain's output array. *)
let test_chain_loop_order () =
  let waves = ref 0 and loops = ref 0 in
  chain_plans (fun what plan s ->
      let sections = group_sections s in
      Array.iteri
        (fun gi g ->
          match g with
          | Plan.G_tiled _ -> ()
          | Plan.G_diamond dg ->
            let lines = List.nth sections gi in
            let w = Printf.sprintf "%s: group %d" what gi in
            let nsteps = Array.length dg.Plan.steps in
            let rows = dg.Plan.sizes.(0) in
            let wave = C_emit.wavefront g in
            check_bool (w ^ ": a wavefront iff 2-D and at least 65x65")
              (Array.length dg.Plan.sizes = 2 && rows + 2 >= 65)
              wave;
            Array.iter
              (fun (m : Plan.member) ->
                check_bool (w ^ ": names stage " ^ m.Plan.func.Repro_ir.Func.name) true
                  (List.exists (fun l -> contains l m.Plan.func.Repro_ir.Func.name) lines))
              dg.Plan.steps;
            let s_loops = List.filter (String.starts_with ~prefix:"for (int _s") lines in
            let p_loops = List.filter (String.starts_with ~prefix:"for (int _p") lines in
            let alike =
              nsteps > 2
              && List.for_all
                   (fun i ->
                     let cases, _ = step_shape dg i in
                     step_shape dg i = step_shape dg 1
                     && List.for_all Option.is_some cases)
                   (List.init (nsteps - 1) (fun i -> i + 1))
            in
            let out =
              Printf.sprintf "_arr_%d"
                (Option.get dg.Plan.steps.(nsteps - 1).Plan.array_id)
            in
            let tmp = Printf.sprintf "_dtmp_%d" dg.Plan.gid in
            if wave then begin
              incr waves;
              check_bool (w ^ ": one _p loop over R + T - 1 positions") true
                (p_loops
                 = [ Printf.sprintf "for (int _p = 1; _p <= %d; _p++) {" (rows + nsteps - 1) ]);
              check_bool (w ^ ": every step computes one row, with no swap") false
                (List.exists (String.starts_with ~prefix:"for (int i ") lines
                 || List.mem swap_line lines);
              if alike then
                check_bool (w ^ ": steps 2..T are one _s loop") true
                  (s_loops
                   = [ Printf.sprintf
                         "for (int _s = max(2, _p - %d); _s <= min(%d, _p); _s++) {"
                         (rows - 1) nsteps ]);
              let steps = wave_steps ~w ~rows lines in
              check_bool (w ^ ": steps 1..T, each at one row") true
                (List.sort compare (List.map (fun (s, _, _) -> s) steps)
                 = List.init nsteps (fun i -> i + 1));
              (* iterate t's buffer: the last one lands in the output *)
              let buf t = if (nsteps - t) mod 2 = 0 then out else tmp in
              List.iter
                (fun (s, reads, writes) ->
                  check_bool (Printf.sprintf "%s: step %d writes %s" w s (buf s)) true
                    (writes = buf s);
                  if s > 1 then
                    check_bool
                      (Printf.sprintf "%s: step %d reads %s" w s (buf (s - 1)))
                      true
                      (List.mem (buf (s - 1)) reads))
                steps;
              check_bool (w ^ ": step 1 fills the modulo buffer") true
                (nsteps mod 2 = 1 || buf 1 = tmp)
            end
            else begin
              incr loops;
              check_int (w ^ ": no _p loop") 0 (List.length p_loops);
              if alike then
                check_bool (w ^ ": steps 2..T are one step loop") true
                  (s_loops = [ Printf.sprintf "for (int _s = 2; _s <= %d; _s++) {" nsteps ]);
              if nsteps > 1 then begin
                let pin, pout =
                  match
                    List.filter_map
                      (fun l ->
                        Scanf.sscanf_opt l "double *_pin = %[_a-z0-9], *_pout = %[_a-z0-9];%!"
                          (fun a b -> (a, b)))
                      lines
                  with
                  | [ p ] -> p
                  | _ -> Alcotest.failf "%s: no single pointer initialization" w
                in
                let step1 = List.find_map written lines in
                check_bool (w ^ ": step 1 fills the modulo buffer, _pin's first value")
                  true
                  (step1 = Some tmp && pin = tmp);
                check_bool (w ^ ": step T lands in the output array") true
                  ((if (nsteps - 2) mod 2 = 0 then pout else pin) = out);
                let events =
                  List.filter_map
                    (fun l ->
                      if l = swap_line then Some `Swap
                      else if written l = Some "_pout" then Some `Write
                      else None)
                    lines
                in
                let rec alternate = function
                  | `Write :: `Swap :: rest -> alternate rest
                  | [] -> true
                  | _ -> false
                in
                check_bool (w ^ ": each step writes _pout, then swaps") true
                  (events <> [] && alternate events)
              end
            end)
        plan.Plan.groups);
  check_bool "some chains run as row wavefronts, some as step loops" true
    (!waves > 0 && !loops > 0);
  (* the coarse chain's zero-guess first step reads no previous iterate:
     it stays unrolled before the loop over steps 2..4 *)
  let plan = plan_of ~opts:Options.dtile_opt_plus vcfg in
  let lines = String.split_on_char '\n' (C_emit.to_string plan) |> List.map String.trim in
  let rec after_tc = function
    | l :: rest when String.starts_with ~prefix:"{ /* t = 1: stage Tc_" l -> rest
    | _ :: rest -> after_tc rest
    | [] -> Alcotest.fail "no coarse Tc chain"
  in
  let rest = after_tc lines in
  let rec step1 = function
    | l :: _ when String.starts_with ~prefix:"double *_pin = " l -> []
    | l :: more -> l :: step1 more
    | [] -> []
  in
  let step1 = step1 rest in
  check_bool "Tc step 1 is unrolled, computing before the pointers exist" true
    (List.exists (fun l -> contains l "] = ") step1
     && not (List.exists (fun l -> contains l "_pin" || contains l "_pout") step1));
  check_bool "Tc steps 2..4 are one loop after it" true
    (List.find_opt (String.starts_with ~prefix:"for (int _s") rest
     = Some "for (int _s = 2; _s <= 4; _s++) {")

(* What a row pipeline's [_p] loop runs, read from its lines: [units]
   each stored stage's (name, k, lag, first row, last row), computing
   row i at [_p = k*i + lag]; [ghosts] the (name, row, position) of each
   ghost row filled; [rings] each ring's (member index, rows);
   [inlined] the inlined stages' names. *)
type pipeline_text = {
  units : (string * int * int * int * int) list;
  ghosts : (string * int * int) list;
  rings : (int * int) list;
  inlined : string list;
  p_loops : int;
}

let row_expr k lag =
  let p =
    if lag = 0 then "_p"
    else Printf.sprintf "_p %c %d" (if lag > 0 then '-' else '+') (abs lag)
  in
  if k = 1 then p else Printf.sprintf "(%s) / %d" p k

(* [l] from its first [/* stage ] on *)
let stage_comment l =
  let rec find i =
    if i + 9 > String.length l then None
    else if String.sub l i 9 = "/* stage " then Some (String.sub l i (String.length l - i))
    else find (i + 1)
  in
  find 0

let read_pipeline ~w lines =
  let chop s = String.sub s 0 (String.length s - 1) (* a trailing ':' *) in
  let rec go acc = function
    | [] -> acc
    | l :: rest -> (
      let guard =
        match
          ( Scanf.sscanf_opt l "if (LIKELY(_p >= %d && _p <= %d" (fun a b -> (a, b)),
            stage_comment l )
        with
        | Some (a, b), Some c ->
          Scanf.sscanf_opt c "/* stage %[^:(]%_[^:]: row i at _p = %d*i %c %d */%!"
            (fun name k sign lag ->
              (a, b, String.trim name, k, if sign = '-' then -lag else lag))
        | _ -> None
      in
      match (guard, rest) with
      | Some (a, b, name, k, lag), next :: rest ->
        let w = Printf.sprintf "%s: %s" w name in
        check_bool (w ^ "'s row is its lag's") true
          (next = Printf.sprintf "const int i = %s;" (row_expr k lag));
        check_bool (w ^ "'s guard starts and ends on rows") true
          ((a - lag) mod k = 0 && (b - lag) mod k = 0);
        let u = (name, k, lag, (a - lag) / k, (b - lag) / k) in
        go { acc with units = acc.units @ [ u ] } rest
      | _ -> (
        let ghost =
          Scanf.sscanf_opt l "if (_p == %d) { /* %s ghost row %d */%!" (fun p n r ->
              (chop n, r, p))
        and ring =
          Scanf.sscanf_opt l "double _ring_%_[0-9]_%[0-9][%d * %_d];%!" (fun p len ->
              (int_of_string p, len))
        and inl = Scanf.sscanf_opt l "/* %s inlined into %_s */%!" chop in
        match (ghost, ring, inl) with
        | Some g, _, _ -> go { acc with ghosts = g :: acc.ghosts } rest
        | _, Some r, _ -> go { acc with rings = r :: acc.rings } rest
        | _, _, Some n -> go { acc with inlined = n :: acc.inlined } rest
        | _ when String.starts_with ~prefix:"for (int _p = " l ->
          go { acc with p_loops = acc.p_loops + 1 } rest
        | _ -> go acc rest))
  in
  go { units = []; ghosts = []; rings = []; inlined = []; p_loops = 0 } lines

(* Every overlapped group [C_emit.wavefront] picks (2-D, 65x65 with
   ghosts and up, tiles spanning whole rows) is one row pipeline, read
   back from its C and checked against the plan's accesses:
   - one [_p] loop, no [_t] loop and no tile-sized [_buf_] scratchpad;
   - every member is either stored (a stage block computing one row per
     position) or inlined into its one reader, which reads it at offset
     0 only; an inlined member has no ring and no array;
   - each stored stage's row sits at its lag: every row it reads of an
     in-group stage is computed at or before its position, and its lag
     is the least that does this, so a restriction computes coarse row
     I at fine row 2I+1's position;
   - each ring keeps every row a reader needs until that read, and is
     no longer than its readers' row footprint. *)
let test_row_pipeline_order () =
  let pipelines = ref 0 and rings = ref 0 and inlined = ref 0 and restrictions = ref 0 in
  let plans f =
    chain_plans f;
    List.iter
      (fun ((cfg : Cycle.config), n) ->
        let plan = plan_of ~opts:Options.opt_plus ~n cfg in
        f (Printf.sprintf "%s opt+ n=%d" (Cycle.bench_name cfg) n) plan (C_emit.to_string plan))
      [ (vcfg, 64); (vcfg, 128);
        (Cycle.default ~dims:2 ~shape:Cycle.W ~smoothing:(4, 4, 4), 128) ]
  in
  plans (fun what plan s ->
      let sections = group_sections s in
      Array.iteri
        (fun gi g ->
          match g with
          | Plan.G_tiled tg when C_emit.wavefront g ->
            incr pipelines;
            let w = Printf.sprintf "%s: group %d" what gi in
            let lines = List.nth sections gi in
            let t = read_pipeline ~w lines in
            check_int (w ^ ": one _p loop") 1 t.p_loops;
            check_bool (w ^ ": no _t loop and no _buf_ scratchpad") false
              (List.exists
                 (fun l ->
                   String.starts_with ~prefix:"for (int _t" l
                   || String.starts_with ~prefix:"double _buf_" l)
                 lines);
            let ms = tg.Plan.members in
            let all = List.init (Array.length ms) Fun.id in
            let name p = ms.(p).Plan.func.Repro_ir.Func.name in
            let index n = List.find (fun p -> name p = n) all in
            let unit_of p = List.find_opt (fun (n, _, _, _, _) -> n = name p) t.units in
            let is_inlined p = List.mem (name p) t.inlined in
            inlined := !inlined + List.length t.inlined;
            rings := !rings + List.length t.rings;
            List.iter
              (fun p ->
                let w = Printf.sprintf "%s: %s" w (name p) in
                check_bool (w ^ " is stored or inlined") true (unit_of p <> None <> is_inlined p);
                if is_inlined p then begin
                  check_bool (w ^ " (inlined) has no ring or array") true
                    (ms.(p).Plan.array_id = None && not (List.mem_assoc p t.rings));
                  let readers =
                    List.filter (fun c -> Array.mem (Plan.P_member p) ms.(c).Plan.src_of) all
                  in
                  match readers with
                  | [ c ] ->
                    check_bool (w ^ "'s reader names it") true
                      (List.exists
                         (fun l -> contains l ("stage " ^ name c ^ " (") && contains l (name p))
                         lines);
                    List.iter
                      (fun (case : Compile.case_t) ->
                        match case.Compile.kernel with
                        | Compile.Lin { terms; _ } ->
                          Array.iter
                            (fun (tm : Compile.term) ->
                              if ms.(c).Plan.src_of.(tm.Compile.pos) = Plan.P_member p then
                                check_bool (w ^ " is read at offset 0") true
                                  (tm.Compile.accs = Repro_ir.Expr.id_access 2))
                            terms
                        | Compile.Gen _ -> Alcotest.failf "%s: a Gen reader" w)
                      ms.(c).Plan.compiled.Compile.cases
                  | rs -> Alcotest.failf "%s is inlined but has %d readers" w (List.length rs)
                end)
              all;
            (* the rows of stored stages that stage [c]'s row [r] reads,
               through what it inlines *)
            let rec reads c r =
              List.concat_map
                (fun (case : Compile.case_t) ->
                  match (case.Compile.parity, case.Compile.kernel) with
                  | Some pa, _ when pa.(0) <> r land 1 -> []
                  | _, Compile.Gen _ -> []
                  | _, Compile.Lin { terms; _ } ->
                    List.concat_map
                      (fun (tm : Compile.term) ->
                        match ms.(c).Plan.src_of.(tm.Compile.pos) with
                        | Plan.P_member q when is_inlined q -> reads q r
                        | Plan.P_member q ->
                          let { Repro_ir.Expr.mul; add; den; off } = tm.Compile.accs.(0) in
                          [ (q, Repro_poly.Box.fdiv ((mul * r) + add) den + off) ]
                        | _ -> [])
                      (Array.to_list terms))
                ms.(c).Plan.compiled.Compile.cases
            in
            (* the position of stage [q]'s row [r], if the loop computes it *)
            let position q r =
              match unit_of q with
              | Some (_, k, lag, lo, hi) when lo <= r && r <= hi -> Some ((k * r) + lag)
              | _ ->
                List.find_map (fun (n, gr, p) -> if n = name q && gr = r then Some p else None)
                  t.ghosts
            in
            List.iter
              (fun (n, k, lag, lo, hi) ->
                let w = Printf.sprintf "%s: %s" w n in
                let least = ref None in
                for r = lo to hi do
                  List.iter
                    (fun (q, rq) ->
                      let w = Printf.sprintf "%s row %d reads %s row %d" w r (name q) rq in
                      match position q rq with
                      | Some pq ->
                        check_bool (w ^ " computed first") true (pq <= (k * r) + lag);
                        least := Some (max (Option.value !least ~default:min_int) (pq - (k * r)))
                      | None ->
                        check_bool (w ^ ", a ghost row of its array") true
                          (ms.(q).Plan.array_id <> None
                           && (rq < 1 || rq > ms.(q).Plan.sizes.(0))))
                    (reads (index n) r)
                done;
                check_int (w ^ " at its lag") (Option.value !least ~default:0) lag;
                (* the restriction's rule, spelled out *)
                match Array.to_list ms.(index n).Plan.src_of with
                | [ Plan.P_member q ]
                  when Option.map (fun (_, kq, _, _, _) -> 2 * kq) (unit_of q) = Some k ->
                  incr restrictions;
                  for r = lo to hi do
                    check_bool (Printf.sprintf "%s row %d at %s row %d" w r (name q) ((2 * r) + 1))
                      true
                      (Some ((k * r) + lag) = position q ((2 * r) + 1))
                  done
                | _ -> ())
              t.units;
            (* each ring keeps a row until its last read, within the
               readers' footprint *)
            List.iter
              (fun (q, len) ->
                let w = Printf.sprintf "%s: %s's ring of %d" w (name q) len in
                let footprint = ref 0 in
                List.iter
                  (fun (n, k, lag, lo, hi) ->
                    for r = lo to hi do
                      let rows =
                        List.filter_map (fun (q', rq) -> if q' = q then Some rq else None)
                          (reads (index n) r)
                      in
                      if rows <> [] then begin
                        let a = List.fold_left min max_int rows in
                        footprint := max !footprint (List.fold_left max min_int rows - a + 1);
                        (* the last row [q] wrote by this read's position *)
                        let last = ref min_int in
                        for x = 0 to ms.(q).Plan.sizes.(0) + 1 do
                          match position q x with
                          | Some p when p <= (k * r) + lag -> last := max !last x
                          | _ -> ()
                        done;
                        check_bool (Printf.sprintf "%s keeps row %d for %s" w a n) true
                          (!last - a < len)
                      end
                    done)
                  t.units;
                check_bool (Printf.sprintf "%s within its readers' %d rows" w !footprint) true
                  (len <= !footprint))
              t.rings
          | _ -> ())
        plan.Plan.groups);
  check_bool
    (Printf.sprintf "row pipelines (%d), rings (%d), inlined stages (%d), restrictions (%d)"
       !pipelines !rings !inlined !restrictions)
    true
    (!pipelines > 0 && !rings > 0 && !inlined > 0 && !restrictions > 0)

(* A stage with no linear form (a max) prints as a #error naming it, so
   its C fails to compile loudly; [runnable] refuses the plan. *)
let test_gen_case_is_error () =
  let open Repro_ir in
  let ctx = Dsl.create "relu" in
  let sizes = [| Sizeexpr.n; Sizeexpr.n |] in
  let v = Dsl.grid ctx "V" ~dims:2 ~sizes in
  let relu =
    Dsl.func ctx ~name:"relu" ~sizes
      Expr.(Binop (Max, load v.Func.id [| 0; 0 |], const 0.0))
  in
  let plan =
    Plan.build (Dsl.finish ctx ~outputs:[ relu ]) ~opts:Options.opt_plus
      ~n:16 ~params:invalid_arg
  in
  let s = C_emit.to_string plan in
  check_bool "#error names the stage" true
    (contains s "#error \"stage relu: non-affine definition (Gen kernel)\"");
  check_bool "no eval_point" false (contains s "eval_point");
  check_bool "not runnable" true (Result.is_error (C_emit.runnable plan))

let test_line_counts_ordering () =
  (* W-cycle code is larger than V-cycle code (Table 3 trend) *)
  let v = C_emit.line_count (plan_of vcfg) in
  let w =
    C_emit.line_count
      (plan_of (Cycle.default ~dims:2 ~shape:Cycle.W ~smoothing:(4, 4, 4)))
  in
  check_bool (Printf.sprintf "W (%d) > V (%d) > 100" w v) true
    (w > v && v > 100)

let test_emit_all_benchmarks () =
  List.iter
    (fun (dims, shape, sm) ->
      let cfg = Cycle.default ~dims ~shape ~smoothing:sm in
      let n = if dims = 2 then 32 else 16 in
      List.iter
        (fun opts ->
          let s = C_emit.to_string (plan_of ~opts ~n cfg) in
          check_bool (Cycle.bench_name cfg) true (String.length s > 500))
        [ Options.naive; Options.opt; Options.opt_plus; Options.dtile_opt_plus ])
    [ (2, Cycle.V, (4, 4, 4)); (2, Cycle.V, (10, 0, 0));
      (2, Cycle.W, (4, 4, 4)); (3, Cycle.V, (4, 4, 4));
      (3, Cycle.W, (10, 0, 0)) ]

(* Compile-and-run promotion of the old -fsyntax-only check: the
   emitted C is compiled into a native kernel, run on filled inputs and
   diffed against the engine through the conformance harness's one
   interpreter-vs-native comparison.  Skips visibly when no C compiler
   exists. *)
let test_emitted_c_runs () =
  match Native.cc () with
  | None ->
    Printf.printf "compile-and-run skipped: no C compiler (tried gcc, cc)\n%!";
    Alcotest.skip ()
  | Some _ ->
    List.iter
      (fun (dims, shape, sm, opts, n) ->
        let cfg = Cycle.default ~dims ~shape ~smoothing:sm in
        let plan =
          Plan.build (Cycle.build cfg) ~opts ~n ~params:(Cycle.params cfg ~n)
        in
        let what =
          Printf.sprintf "%s %s computes what the engine computes"
            (Cycle.bench_name cfg) (Options.name opts)
        in
        let inputs, outputs = Conformance.fill_io plan in
        match Conformance.vs_native plan ~inputs ~outputs with
        | Ok d when d.Conformance.max_abs <= Conformance.default_budgets.vs_c -> ()
        | Ok d ->
          Alcotest.failf "%s: max_abs=%.3e, max_ulp=%.1e" what
            d.Conformance.max_abs d.Conformance.max_ulp
        | Error e -> Alcotest.failf "%s: %s" what e)
      [ (2, Cycle.V, (4, 4, 4), Options.opt_plus, 32);
        (2, Cycle.W, (10, 0, 0), Options.opt, 32);
        (3, Cycle.V, (4, 4, 4), Options.opt_plus, 16);
        (2, Cycle.V, (10, 0, 0), Options.dtile_opt_plus, 32);
        (2, Cycle.V, (2, 2, 2), Options.naive, 32) ]

let test_parity_cases_emitted () =
  let s = C_emit.to_string (plan_of vcfg) in
  check_bool "parity comment" true (contains s "parity case")

(* [#pragma omp simd] lines each directly followed by a [for]. *)
let rec simd_on_for = function
  | "#pragma omp simd" :: next :: rest ->
    String.starts_with ~prefix:"for (" next && simd_on_for rest
  | [ "#pragma omp simd" ] -> false
  | _ :: rest -> simd_on_for rest
  | [] -> true

(* Every preset's inner loops are vectorizable as emitted: ghost rims
   go through the rank's rim helper instead of a per-point rim test in
   a full-box nest, and every [#pragma omp simd] sits directly on a
   loop (an OpenMP requirement gcc enforces). *)
let test_simd_loops () =
  each_emitted (fun what _ s ->
      let lines = String.split_on_char '\n' s |> List.map String.trim in
      check_bool (what ^ ": no per-point rim test") false
        (List.exists (fun l -> contains l "if (i < 1 ||") lines);
      check_bool (what ^ ": every omp simd line precedes a for") true
        (simd_on_for lines))

let () =
  Alcotest.run "c_emit"
    [ ( "emission",
        [ Alcotest.test_case "markers" `Quick test_emit_markers;
          Alcotest.test_case "no allocator" `Quick test_no_allocator;
          Alcotest.test_case "arena layout" `Quick test_arena_layout;
          Alcotest.test_case "outputs are parameters" `Quick
            test_outputs_are_parameters;
          Alcotest.test_case "scratch reuse" `Quick test_emit_scratch_reuse_visible;
          Alcotest.test_case "diamond" `Quick test_emit_diamond_marker;
          Alcotest.test_case "flat tile loop" `Quick test_flat_tile_loop;
          Alcotest.test_case "chain loop order" `Quick test_chain_loop_order;
          Alcotest.test_case "row pipeline order" `Quick test_row_pipeline_order;
          Alcotest.test_case "non-affine stage is a #error" `Quick
            test_gen_case_is_error;
          Alcotest.test_case "line counts" `Quick test_line_counts_ordering;
          Alcotest.test_case "all benchmarks emit" `Quick test_emit_all_benchmarks;
          Alcotest.test_case "parity cases" `Quick test_parity_cases_emitted;
          Alcotest.test_case "simd loops" `Quick test_simd_loops;
          Alcotest.test_case "compile and run vs engine" `Quick
            test_emitted_c_runs ] ) ]
