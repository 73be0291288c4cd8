(* Cost-model calibration: join Cost's predicted per-stage DRAM bytes /
   FLOPs with profiler-measured per-stage times, across a sweep of
   shapes x plan variants.  Reports per-stage model error (ratio of
   measured to roofline-predicted time), names the stages that drift
   beyond a threshold, and computes the Spearman rank correlation of
   predicted-vs-measured plan ordering — the number the ROADMAP's
   autotuning item needs before the cost model can steer a search. *)

open Repro_core
module Json = Repro_runtime.Json
module Profile = Repro_runtime.Profile
module Roofline = Repro_runtime.Roofline
module Telemetry = Repro_runtime.Telemetry

(* ------------------------------------------------------------------ *)
(* Roofline prediction: GB/s is numerically bytes/ns, GFLOP/s is
   FLOPs/ns, so the per-stage prediction needs no unit shuffling. *)

let predicted_stage_ns (r : Roofline.t) (s : Cost.stage) =
  let bytes = float_of_int (Cost.stage_bytes s) in
  Float.max (bytes /. r.Roofline.bandwidth_gbs) (s.Cost.flops /. r.Roofline.gflops)

(* ------------------------------------------------------------------ *)
(* Spearman rank correlation: Pearson on average ranks (tie-safe). *)

let ranks xs =
  let n = Array.length xs in
  let idx = Array.init n Fun.id in
  Array.sort (fun a b -> compare xs.(a) xs.(b)) idx;
  let r = Array.make n 0.0 in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && xs.(idx.(!j + 1)) = xs.(idx.(!i)) do
      incr j
    done;
    let avg = (float_of_int (!i + !j) /. 2.0) +. 1.0 in
    for k = !i to !j do
      r.(idx.(k)) <- avg
    done;
    i := !j + 1
  done;
  r

let pearson a b =
  let n = Array.length a in
  if n < 2 then Float.nan
  else begin
    let mean xs = Array.fold_left ( +. ) 0.0 xs /. float_of_int n in
    let ma = mean a and mb = mean b in
    let num = ref 0.0 and da = ref 0.0 and db = ref 0.0 in
    for i = 0 to n - 1 do
      let xa = a.(i) -. ma and xb = b.(i) -. mb in
      num := !num +. (xa *. xb);
      da := !da +. (xa *. xa);
      db := !db +. (xb *. xb)
    done;
    if !da = 0.0 || !db = 0.0 then Float.nan
    else !num /. Float.sqrt (!da *. !db)
  end

let spearman a b =
  if Array.length a <> Array.length b then
    invalid_arg "Calibrate.spearman: length mismatch";
  pearson (ranks a) (ranks b)

(* ------------------------------------------------------------------ *)
(* The per-stage join *)

type stage_cal = {
  sc_name : string;
  sc_gid : int;
  sc_predicted_ns : float;  (* per plan execution *)
  sc_measured_ns : float;  (* per plan execution *)
  sc_ratio : float;  (* measured / predicted; nan without data *)
  sc_attributed : bool;  (* diamond: flops-share attribution *)
  sc_drift : bool;  (* ratio outside [1/factor, factor] *)
}

let join ~(roofline : Roofline.t) ~drift_factor ~(cost : Cost.t) ~measured_ns =
  Array.to_list cost.Cost.stages
  |> List.map (fun (s : Cost.stage) ->
         let predicted = predicted_stage_ns roofline s in
         let measured, attributed = measured_ns s in
         let ratio =
           if measured > 0.0 && predicted > 0.0 then measured /. predicted
           else Float.nan
         in
         let drift =
           Float.is_finite ratio
           && (ratio > drift_factor || ratio < 1.0 /. drift_factor)
         in
         { sc_name = s.Cost.name;
           sc_gid = s.Cost.gid;
           sc_predicted_ns = predicted;
           sc_measured_ns = measured;
           sc_ratio = ratio;
           sc_attributed = attributed;
           sc_drift = drift })

let stage_spearman stages =
  let usable =
    List.filter
      (fun sc -> sc.sc_measured_ns > 0.0 && sc.sc_predicted_ns > 0.0)
      stages
  in
  spearman
    (Array.of_list (List.map (fun sc -> sc.sc_predicted_ns) usable))
    (Array.of_list (List.map (fun sc -> sc.sc_measured_ns) usable))

let fnum f = if Float.is_finite f then Json.Num f else Json.Null

let stage_json sc =
  Json.Obj
    [ ("name", Json.Str sc.sc_name);
      ("gid", Json.num sc.sc_gid);
      ("predicted_ns", fnum sc.sc_predicted_ns);
      ("measured_ns", fnum sc.sc_measured_ns);
      ("ratio", fnum sc.sc_ratio);
      ("attributed", Json.Bool sc.sc_attributed);
      ("drift", Json.Bool sc.sc_drift) ]

(* One calibration block for a single executed plan (the [mg_solve
   --metrics] surface): per-stage join + stage-rank correlation. *)
let calibration_block ~(roofline : Roofline.t) ?(drift_factor = 4.0)
    ~(cost : Cost.t) ~measured_ns () =
  let stages = join ~roofline ~drift_factor ~cost ~measured_ns in
  let predicted_total =
    List.fold_left (fun acc sc -> acc +. sc.sc_predicted_ns) 0.0 stages
  in
  let measured_total =
    List.fold_left (fun acc sc -> acc +. sc.sc_measured_ns) 0.0 stages
  in
  Json.Obj
    [ ("drift_factor", Json.Num drift_factor);
      ("predicted_total_ns", fnum predicted_total);
      ("measured_total_ns", fnum measured_total);
      ("stage_rank_spearman", fnum (stage_spearman stages));
      ( "drifting_stages",
        Json.Arr
          (List.filter_map
             (fun sc -> if sc.sc_drift then Some (Json.Str sc.sc_name) else None)
             stages) );
      ("stages", Json.Arr (List.map stage_json stages)) ]

(* ------------------------------------------------------------------ *)
(* Stats-side measurement: per-stage ns per plan execution, read back
   from the probe's stats sink after instrumented cycles (this run's
   calibration block and the mg_solve --metrics stages alike).  Diamond
   groups expose one front site per gid; stage time is attributed by
   flops share. *)

let profile_measured_ns (cost : Cost.t) =
  let execs =
    match Profile.stats (Telemetry.site "exec.run") with
    | Some st -> st.Profile.count
    | None -> 0
  in
  let kinds = Hashtbl.create 8 in
  Array.iter
    (fun (g : Cost.group) -> Hashtbl.replace kinds g.Cost.g_gid g.Cost.kind)
    cost.Cost.groups;
  let group_flops = Hashtbl.create 8 in
  Array.iter
    (fun (s : Cost.stage) ->
      let t = Option.value (Hashtbl.find_opt group_flops s.Cost.gid) ~default:0.0 in
      Hashtbl.replace group_flops s.Cost.gid (t +. s.Cost.flops))
    cost.Cost.stages;
  fun (s : Cost.stage) ->
    if execs = 0 then (0.0, false)
    else begin
      let per_exec total = total /. float_of_int execs in
      match Hashtbl.find_opt kinds s.Cost.gid with
      | Some `Diamond ->
        let front =
          match
            Profile.stats
              (Telemetry.site (Printf.sprintf "diamond.front.g%d" s.Cost.gid))
          with
          | Some st -> st.Profile.total
          | None -> 0.0
        in
        let total =
          Option.value (Hashtbl.find_opt group_flops s.Cost.gid) ~default:0.0
        in
        let share = if total > 0.0 then s.Cost.flops /. total else 0.0 in
        (per_exec (front *. share), true)
      | _ -> (
        match Profile.stats (Telemetry.site ("stage:" ^ s.Cost.name)) with
        | Some st -> (per_exec st.Profile.total, false)
        | None -> (0.0, false))
    end

(* ------------------------------------------------------------------ *)
(* The sweep *)

type cell = {
  cell_n : int;
  cell_variant : string;
  cell_predicted_ns : float;  (* per cycle: sum of stage predictions *)
  cell_measured_ns : float;  (* per cycle: mean of solver.cycle *)
  cell_stages : stage_cal list;
}

type t = {
  bench : string;
  cycles : int;
  domains : int;
  drift_factor : float;
  roofline : Roofline.t;
  cells : cell list;
  spearman_by_n : (int * float) list;
      (* predicted-vs-measured plan ordering, per shape *)
}

let default_variants () =
  [ Options.naive; Options.opt; Options.opt_plus; Options.dtile_opt_plus ]

let measure_cell ~roofline ~drift_factor ~cycles ~domains cfg ~n opts =
  Exec.with_runtime ~domains (fun rt ->
      let plan = Solver.polymg_plan cfg ~n ~opts in
      let cost = Cost.of_plan plan in
      let stepper = Solver.plan_stepper plan ~rt in
      let problem = Problem.poisson ~dims:cfg.Cycle.dims ~n in
      (* one unprofiled warmup cycle: page faults and pool growth are
         not model error *)
      ignore (Solver.iterate stepper ~problem ~cycles:1 ~residuals:false ());
      let was = Profile.enabled () in
      Profile.reset ();
      Profile.set_enabled true;
      ignore (Solver.iterate stepper ~problem ~cycles ~residuals:false ());
      Profile.set_enabled was;
      let stages =
        join ~roofline ~drift_factor ~cost ~measured_ns:(profile_measured_ns cost)
      in
      let measured =
        match Profile.stats (Telemetry.site "solver.cycle") with
        | Some st -> st.Profile.mean
        | None -> Float.nan
      in
      Profile.reset ();
      { cell_n = n;
        cell_variant = Options.name opts;
        cell_predicted_ns =
          List.fold_left (fun acc sc -> acc +. sc.sc_predicted_ns) 0.0 stages;
        cell_measured_ns = measured;
        cell_stages = stages })

let run ?variants ?shapes ?(cycles = 3) ?(domains = 1) ?(drift_factor = 4.0)
    cfg ~n =
  let variants =
    match variants with Some v -> v | None -> default_variants ()
  in
  let shapes = match shapes with Some s -> s | None -> [ n ] in
  let roofline = Roofline.get () in
  let cells =
    List.concat_map
      (fun n ->
        List.map
          (measure_cell ~roofline ~drift_factor ~cycles ~domains cfg ~n)
          variants)
      shapes
  in
  let spearman_by_n =
    List.map
      (fun n ->
        let cs = List.filter (fun c -> c.cell_n = n) cells in
        ( n,
          spearman
            (Array.of_list (List.map (fun c -> c.cell_predicted_ns) cs))
            (Array.of_list (List.map (fun c -> c.cell_measured_ns) cs)) ))
      shapes
  in
  { bench = Cycle.bench_name cfg;
    cycles;
    domains;
    drift_factor;
    roofline;
    cells;
    spearman_by_n }

let drifting t =
  List.concat_map
    (fun c ->
      List.filter_map
        (fun sc ->
          if sc.sc_drift then Some (c.cell_n, c.cell_variant, sc) else None)
        c.cell_stages)
    t.cells

(* ------------------------------------------------------------------ *)
(* Sinks *)

let pp fmt t =
  Format.fprintf fmt "@[<v>== calibration: %s ==@," t.bench;
  Format.fprintf fmt
    "roofline %.2f GB/s, %.2f GFLOP/s; %d cycle(s)/cell, %d domain(s), drift \
     threshold %.1fx@,"
    t.roofline.Roofline.bandwidth_gbs t.roofline.Roofline.gflops t.cycles
    t.domains t.drift_factor;
  List.iter
    (fun (n, rho) ->
      let cs = List.filter (fun c -> c.cell_n = n) t.cells in
      Format.fprintf fmt "@,n=%d: plan-order spearman %s over %d variants@," n
        (if Float.is_finite rho then Printf.sprintf "%.3f" rho else "nan")
        (List.length cs);
      Format.fprintf fmt "  %-12s %14s %14s %8s@," "variant" "predicted ms"
        "measured ms" "ratio";
      List.iter
        (fun c ->
          Format.fprintf fmt "  %-12s %14.3f %14.3f %8.2f@," c.cell_variant
            (c.cell_predicted_ns /. 1e6)
            (c.cell_measured_ns /. 1e6)
            (if c.cell_predicted_ns > 0.0 then
               c.cell_measured_ns /. c.cell_predicted_ns
             else Float.nan))
        cs)
    t.spearman_by_n;
  let drifts = drifting t in
  if drifts = [] then
    Format.fprintf fmt "@,no stage drifts beyond %.1fx@," t.drift_factor
  else begin
    Format.fprintf fmt "@,stages drifting beyond %.1fx (measured/predicted):@,"
      t.drift_factor;
    List.iter
      (fun (n, v, sc) ->
        Format.fprintf fmt "  n=%d %-12s %-24s pred %10.1f us meas %10.1f us \
                            ratio %8.2fx%s@,"
          n v sc.sc_name
          (sc.sc_predicted_ns /. 1e3)
          (sc.sc_measured_ns /. 1e3)
          sc.sc_ratio
          (if sc.sc_attributed then " (attributed)" else ""))
      drifts
  end;
  Format.fprintf fmt "@]"

let to_json t =
  Json.Obj
    [ ("schema", Json.Str "polymg.calibrate/1");
      ("bench", Json.Str t.bench);
      ("cycles", Json.num t.cycles);
      ("domains", Json.num t.domains);
      ("drift_factor", Json.Num t.drift_factor);
      ( "roofline",
        Json.Obj
          [ ("bandwidth_gbs", Json.Num t.roofline.Roofline.bandwidth_gbs);
            ("gflops", Json.Num t.roofline.Roofline.gflops) ] );
      ( "spearman_by_n",
        Json.Arr
          (List.map
             (fun (n, rho) ->
               Json.Obj [ ("n", Json.num n); ("spearman", fnum rho) ])
             t.spearman_by_n) );
      ( "cells",
        Json.Arr
          (List.map
             (fun c ->
               Json.Obj
                 [ ("n", Json.num c.cell_n);
                   ("variant", Json.Str c.cell_variant);
                   ("predicted_ns_per_cycle", fnum c.cell_predicted_ns);
                   ("measured_ns_per_cycle", fnum c.cell_measured_ns);
                   ("stages", Json.Arr (List.map stage_json c.cell_stages)) ])
             t.cells) ) ]
