open Repro_core
module Json = Repro_runtime.Json
module Telemetry = Repro_runtime.Telemetry
module Metrics = Repro_runtime.Metrics
module Profile = Repro_runtime.Profile
module Roofline = Repro_runtime.Roofline

let plan_digest = Plan.digest

let fnum f = if Float.is_finite f then Json.Num f else Json.Null

(* [measured] is the stats-sink attribution (ns per plan execution) *)
let stage_json ~execs ~measured ~(roofline : Roofline.t) (s : Cost.stage) =
  let ai = Cost.stage_intensity s in
  let ns_per_exec, attributed = measured s in
  let achieved_gbs =
    if ns_per_exec > 0.0 then float_of_int (Cost.stage_bytes s) /. ns_per_exec
    else nan
  in
  let achieved_gflops =
    if ns_per_exec > 0.0 then s.Cost.flops /. ns_per_exec else nan
  in
  let roof =
    if Float.is_finite ai then Roofline.roof_gflops roofline ~intensity:ai
    else roofline.Roofline.gflops
  in
  Json.Obj
    [ ("name", Json.Str s.Cost.name);
      ("gid", Json.num s.Cost.gid);
      ( "predicted",
        Json.Obj
          [ ("points", Json.num s.Cost.points);
            ("domain", Json.num s.Cost.domain);
            ("flops_per_point", Json.Num s.Cost.flops_per_point);
            ("flops", Json.Num s.Cost.flops);
            ("dram_read_bytes", Json.num s.Cost.dram_read);
            ("dram_write_bytes", Json.num s.Cost.dram_write);
            ("scratch_read_bytes", Json.num s.Cost.scratch_read);
            ("scratch_write_bytes", Json.num s.Cost.scratch_write);
            ("intensity", fnum ai) ] );
      ( "measured",
        Json.Obj
          [ ("ns", Json.Num (ns_per_exec *. float_of_int execs));
            ("execs", Json.num execs);
            ("attributed", Json.Bool attributed);
            ("achieved_gbs", fnum achieved_gbs);
            ("achieved_gflops", fnum achieved_gflops);
            ("roof_gflops", fnum roof);
            ( "roofline_fraction",
              fnum
                (if roof > 0.0 && Float.is_finite achieved_gflops then
                   achieved_gflops /. roof
                 else nan) ) ] ) ]

let status_str (s : Solver.cycle_stats) = Solver.status_name s.Solver.status

let build ~health ~cfg ~n ~variant ~domains ~cost ~plan ~stats ~total_seconds
    ~counters ~(roofline : Roofline.t) =
  let execs =
    match Profile.stats (Telemetry.site "exec.run") with
    | Some st -> st.Profile.count
    | None -> 0
  in
  let plan_json =
    match plan with
    | None -> Json.Null
    | Some p ->
      Json.Obj
        [ ("digest", Json.Str (plan_digest p));
          ("groups", Json.num (Plan.group_count p));
          ("members", Json.num (Plan.member_count p));
          ("arrays", Json.num (Plan.array_count p));
          ("array_bytes", Json.num (Plan.total_array_bytes p));
          ( "scratch_bytes_per_thread",
            Json.num (Plan.scratch_bytes_per_thread p) ) ]
  in
  let cost_json, stages_json, groups_json, calibration_json =
    match cost with
    | None -> (Json.Null, Json.Arr [], Json.Arr [], Json.Null)
    | Some c ->
      let measured = Calibrate.profile_measured_ns c in
      ( Json.Obj
          [ ("dram_read_bytes", Json.num c.Cost.dram_read);
            ("dram_write_bytes", Json.num c.Cost.dram_write);
            ("scratch_traffic_bytes", Json.num c.Cost.scratch_traffic);
            ("flops", Json.Num c.Cost.flops);
            ("useful_flops", Json.Num c.Cost.useful_flops);
            ("intensity", fnum c.Cost.intensity) ],
        Json.Arr
          (Array.to_list
             (Array.map
                (stage_json ~execs ~measured ~roofline)
                c.Cost.stages)),
        Json.Arr
          (Array.to_list
             (Array.map
                (fun (g : Cost.group) ->
                  Json.Obj
                    [ ("gid", Json.num g.Cost.g_gid);
                      ( "kind",
                        Json.Str
                          (match g.Cost.kind with
                           | `Tiled -> "tiled"
                           | `Diamond -> "diamond") );
                      ("working_set_bytes", Json.num g.Cost.working_set);
                      ("fits_in", Json.Str g.Cost.fits_in);
                      ("redundancy", Json.Num g.Cost.redundancy);
                      ( "stages",
                        Json.Arr
                          (List.map (fun s -> Json.Str s) g.Cost.stage_names)
                      ) ])
                c.Cost.groups)),
        Calibrate.calibration_block ~roofline ~cost:c ~measured_ns:measured ()
      )
  in
  let cycles_json =
    Json.Arr
      (List.map
         (fun (s : Solver.cycle_stats) ->
           Json.Obj
             [ ("cycle", Json.num s.Solver.cycle);
               ("residual", fnum s.Solver.residual);
               ("seconds", Json.Num s.Solver.seconds);
               ("status", Json.Str (status_str s)) ])
         stats)
  in
  Json.Obj
    [ ("schema", Json.Str "polymg.metrics/1");
      ( "config",
        Json.Obj
          [ ("bench", Json.Str (Cycle.bench_name cfg));
            ("dims", Json.num cfg.Cycle.dims);
            ("n", Json.num n);
            ("levels", Json.num cfg.Cycle.levels);
            ("variant", Json.Str variant);
            ("domains", Json.num domains);
            ("cycles", Json.num (List.length stats)) ] );
      ( "roofline",
        Json.Obj
          [ ("bandwidth_gbs", Json.Num roofline.Roofline.bandwidth_gbs);
            ("gflops", Json.Num roofline.Roofline.gflops) ] );
      ("plan", plan_json);
      ("cost", cost_json);
      ("stages", stages_json);
      ("groups", groups_json);
      ("calibration", calibration_json);
      ("cycles", cycles_json);
      ("total_seconds", Json.Num total_seconds);
      ( "health",
        match health with
        | Some h -> Health.to_json h
        | None -> Json.Null );
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.num v)) counters) );
      ("metrics", Metrics.to_json ()) ]

let write ~path doc =
  (* atomic replacement (temp + fsync + rename): a crash mid-dump can
     not leave a torn metrics document for compare.exe to trip on *)
  Repro_runtime.Snapshot.atomic_write_string ~path (Json.to_string doc ^ "\n")
