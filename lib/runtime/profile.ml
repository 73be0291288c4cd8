(* The stats sink: merges the probe's per-domain site accumulators. *)

let set_enabled b = Telemetry.set_sink Telemetry.Stats b
let enabled () = Telemetry.sink_on Telemetry.Stats

(* The sink's counter mirrors, registered in the audited
   [Telemetry.counter "NAME"] form next to the sink they describe;
   Telemetry's record path bumps the same counters (they intern by
   name). *)
let _ = Telemetry.counter "profile.samples"
let _ = Telemetry.counter "profile.sites"

type stats = {
  count : int;
  mean : float;
  variance : float;
  min : float;
  max : float;
  total : float;
}

let hist s = Hist.merge (Telemetry.site_hists s)

let of_hist h =
  if Hist.count h = 0 then None
  else
    Some
      { count = Hist.count h;
        mean = Hist.mean h;
        variance = Hist.variance h;
        min = Hist.min h;
        max = Hist.max h;
        total = Hist.sum h }

let stats s = of_hist (hist s)
let percentile s q = Hist.percentile (hist s) q

let histograms () =
  List.filter_map
    (fun s ->
      let h = hist s in
      if Hist.count h = 0 then None else Some (Telemetry.site_name s, h))
    (Telemetry.all_sites ())

let sites () =
  List.filter_map
    (fun (name, h) -> Option.map (fun st -> (name, st)) (of_hist h))
    (histograms ())

let reset = Telemetry.reset_stats

let report fmt =
  let rows =
    List.sort (fun (_, a) (_, b) -> compare b.total a.total) (sites ())
  in
  let wall =
    match List.assoc_opt "solver.cycle" rows with
    | Some st -> st.total
    | None ->
      List.fold_left (fun acc (_, st) -> Float.max acc st.total) 0.0 rows
  in
  Format.fprintf fmt "@[<v>== profile: per-site streaming stats ==@,";
  Format.fprintf fmt "%-36s %8s %10s %10s %10s %10s %10s %6s@," "site" "count"
    "total ms" "mean us" "sd us" "min us" "max us" "wall";
  List.iter
    (fun (name, st) ->
      Format.fprintf fmt
        "%-36s %8d %10.3f %10.2f %10.2f %10.2f %10.2f %5.1f%%@," name st.count
        (st.total /. 1e6) (st.mean /. 1e3)
        (Float.sqrt st.variance /. 1e3)
        (st.min /. 1e3) (st.max /. 1e3)
        (if wall = 0.0 then 0.0 else 100.0 *. st.total /. wall))
    rows;
  Format.fprintf fmt "@]"
