module Telemetry = Repro_runtime.Telemetry
module Json = Repro_runtime.Json
module Flightrec = Repro_runtime.Flightrec

let c_demotions = Telemetry.counter "govern.demotions"
let c_infeasible = Telemetry.counter "govern.infeasible"

type rung = {
  rname : string;
  ropts : Options.t;
  plan : Plan.t;
  pool_peak_bytes : int;
  scratch_bytes : int;
  peak_bytes : int;
  dram_traffic : int;
  flops : float;
  fits : bool;
}

type demotion = {
  from_rung : string;
  to_rung : string;
  over_bytes : int;
  traffic_delta : int;
  flops_delta : float;
}

type report = {
  budget : int option;
  domains : int;
  requested : string;
  ladder : rung array;
  chosen : int;
  demotions : demotion list;
}

type infeasible = {
  inf_budget : int;
  floor_bytes : int;
  floor_rung : string;
  inf_ladder : rung array;
}

(* ------------------------------------------------------------------ *)
(* The ladder                                                           *)

(* Each feature step removes one layer of storage optimization while
   keeping every non-preset knob (thresholds, check_plan, budget,
   deadline) so the demoted plan still runs under the same governance
   regime.  The chain mirrors the paper's variant stack in reverse. *)
let demote (o : Options.t) =
  match o.Options.smoother with
  | Options.Diamond_smoother _ | Options.Skewed_smoother _ ->
    Some { o with Options.smoother = Options.Overlapped_smoother }
  | Options.Overlapped_smoother ->
    if o.Options.pool || o.Options.array_reuse || o.Options.scratch_reuse then
      Some
        { o with
          Options.pool = false;
          array_reuse = false;
          scratch_reuse = false }
    else if o.Options.fuse then
      Some { o with Options.fuse = false; group_size_limit = 1 }
    else None

let min_tile = 8

let shrink_tiles = Array.map (fun t -> max min_tile (t / 2))

(* The ladder interleaves two degradation axes.  Tile shrinking comes
   first: halving the overlapped tile sizes shrinks the per-thread
   scratch working set at a pure redundant-compute cost — the cheapest
   trade, since it keeps the variant's math and storage mapping.  Only
   when the tiles bottom out does the feature chain remove optimization
   layers; those rungs usually have *larger* footprints (the paper's
   storage optimizations shrink memory and time together), so under a
   tight budget they are reported but rarely chosen — they exist for
   runtime demotion, where the model proved optimistic and any
   different storage layout is worth attempting. *)
let ladder_of opts =
  let rec walk (o : Options.t) shrink acc =
    let base = Options.name o in
    let rname =
      if shrink = 0 || not o.Options.fuse then base
      else Printf.sprintf "%s~tiles/%d" base (1 lsl shrink)
    in
    let acc = (rname, o) :: acc in
    let t2 = shrink_tiles o.Options.tile_2d in
    let t3 = shrink_tiles o.Options.tile_3d in
    if
      o.Options.fuse && (t2 <> o.Options.tile_2d || t3 <> o.Options.tile_3d)
    then walk { o with Options.tile_2d = t2; tile_3d = t3 } (shrink + 1) acc
    else
      match demote o with
      | Some o' -> walk o' shrink acc
      | None -> List.rev acc
  in
  walk opts 0 []

(* ------------------------------------------------------------------ *)
(* Footprint model                                                      *)

let word = 8

(* Bytes of the modulo buffer a diamond/skewed group allocates (Exec
   sizes it as the ghosted box of the chain). *)
let diamond_tmp_bytes (dg : Plan.diamond_group) =
  word * Repro_grid.Grid.ghosted_len dg.Plan.sizes

let model_peak_bytes (plan : Plan.t) =
  let arrays = plan.Plan.arrays in
  let abytes (a : Plan.array_info) = word * a.Plan.len in
  let tmp_at gi =
    match plan.Plan.groups.(gi) with
    | Plan.G_diamond dg -> diamond_tmp_bytes dg
    | Plan.G_tiled _ -> 0
  in
  let ngroups = Array.length plan.Plan.groups in
  if plan.Plan.opts.Options.pool then begin
    (* Windowed liveness: array [a] occupies pool memory from its
       acquire group through its release group; the modulo buffer is
       acquired and released within its own group.  Each attempt has a
       fresh pool, whose buffers are allocated at the length of one of
       the plan's requests, and a request is served only from a buffer
       that {!Repro_runtime.Mempool.serves} it: so a request holds at
       most the longest of the plan's request lengths that may serve
       it, whatever the pool's history.  Under a budget of at least
       this peak the pool never overruns: a fresh allocation that does
       not fit trims the free buffers first, and what stays live plus
       the new request is within its group's sum. *)
    let lens =
      Array.fold_left
        (fun acc (a : Plan.array_info) ->
          if a.Plan.output then acc else a.Plan.len :: acc)
        (Array.fold_left
           (fun acc -> function
             | Plan.G_diamond dg ->
               Repro_grid.Grid.ghosted_len dg.Plan.sizes :: acc
             | Plan.G_tiled _ -> acc)
           [] plan.Plan.groups)
        arrays
    in
    (* the most bytes the pool may hand a request of [bytes] *)
    let held bytes =
      let need = bytes / word in
      word
      * List.fold_left
          (fun m l ->
            if Repro_runtime.Mempool.serves ~buffer:l ~need then max m l
            else m)
          need lens
    in
    let peak = ref 0 in
    for gi = 0 to ngroups - 1 do
      let live = ref (held (tmp_at gi)) in
      Array.iter
        (fun (a : Plan.array_info) ->
          if
            (not a.Plan.output)
            && a.Plan.first_group <= gi
            && gi <= a.Plan.last_group
          then live := !live + held (abytes a))
        arrays;
      if !live > !peak then peak := !live
    done;
    !peak
  end
  else begin
    (* No pool: every non-output array is heap-allocated up front and
       never reclaimed during the execution; the worst diamond buffer
       coexists with all of them. *)
    let fixed =
      Array.fold_left
        (fun acc (a : Plan.array_info) ->
          if a.Plan.output then acc else acc + abytes a)
        0 arrays
    in
    let worst_tmp = ref 0 in
    for gi = 0 to ngroups - 1 do
      if tmp_at gi > !worst_tmp then worst_tmp := tmp_at gi
    done;
    fixed + !worst_tmp
  end

(* A native kernel keeps every intermediate in its arena for the whole
   call and takes nothing from the pool; an [Auto] rung may run either
   way, so it budgets for both. *)
let pool_peak_bytes (plan : Plan.t) =
  match plan.Plan.opts.Options.backend with
  | Options.Interp -> model_peak_bytes plan
  | Options.Native -> C_emit.arena_bytes plan
  | Options.Auto -> max (model_peak_bytes plan) (C_emit.arena_bytes plan)

(* ------------------------------------------------------------------ *)
(* Decision                                                             *)

let build_rung ~domains ~budget pipeline ~n ~params (rname, ropts) =
  let plan = Plan_check.build pipeline ~opts:ropts ~n ~params in
  let pool_peak = pool_peak_bytes plan in
  let scratch = domains * Plan.scratch_bytes_per_thread plan in
  let peak = pool_peak + scratch in
  let cost = Cost.of_plan plan in
  { rname;
    ropts;
    plan;
    pool_peak_bytes = pool_peak;
    scratch_bytes = scratch;
    peak_bytes = peak;
    dram_traffic = Cost.total_bytes cost;
    flops = cost.Cost.flops;
    fits = (match budget with None -> true | Some b -> peak <= b) }

let chosen r = r.ladder.(r.chosen)

(* The refusal: the ladder's smallest footprint is the floor the budget
   failed to reach, recorded as an event and an incident. *)
let refuse ?(detail = []) ~budget ladder =
  let floor =
    Array.fold_left
      (fun best r ->
        match best with
        | Some b when b.peak_bytes <= r.peak_bytes -> best
        | _ -> Some r)
      None ladder
    |> Option.get
  in
  if Flightrec.on () then begin
    Flightrec.emit
      (Flightrec.Infeasible
         { budget_bytes = budget;
           floor_bytes = floor.peak_bytes;
           floor_rung = floor.rname });
    Flightrec.note_plan ~digest:(Plan.digest floor.plan) ~variant:floor.rname;
    ignore
      (Flightrec.incident ~kind:"budget-infeasible"
         ~detail:
           ([ ("budget_bytes", Json.num budget);
              ("floor_bytes", Json.num floor.peak_bytes);
              ("floor_rung", Json.Str floor.rname) ]
           @ detail
           @ [ ( "ladder",
                 Json.Arr
                   (Array.to_list
                      (Array.map (fun r -> Json.Str r.rname) ladder)) ) ])
         ())
  end;
  { inf_budget = budget;
    floor_bytes = floor.peak_bytes;
    floor_rung = floor.rname;
    inf_ladder = ladder }

let decide ?(domains = 1) pipeline ~(opts : Options.t) ~n ~params =
  let budget = opts.Options.mem_budget in
  let ladder =
    ladder_of opts
    |> List.map (build_rung ~domains ~budget pipeline ~n ~params)
    |> Array.of_list
  in
  let requested = ladder.(0).rname in
  let first_fit =
    let rec find i =
      if i >= Array.length ladder then None
      else if ladder.(i).fits then Some i
      else find (i + 1)
    in
    find 0
  in
  match first_fit with
  | Some chosen ->
    let b = match budget with Some b -> b | None -> max_int in
    let demotions =
      List.init chosen (fun j ->
          let from = ladder.(j) and into = ladder.(j + 1) in
          { from_rung = from.rname;
            to_rung = into.rname;
            over_bytes = from.peak_bytes - b;
            traffic_delta = into.dram_traffic - from.dram_traffic;
            flops_delta = into.flops -. from.flops })
    in
    Telemetry.add c_demotions (List.length demotions);
    if Flightrec.on () then begin
      List.iter
        (fun d ->
          Flightrec.emit
            (Flightrec.Demotion
               { from_rung = d.from_rung;
                 to_rung = d.to_rung;
                 over_bytes = d.over_bytes }))
        demotions;
      if demotions <> [] then begin
        Flightrec.note_plan
          ~digest:(Plan.digest ladder.(chosen).plan)
          ~variant:ladder.(chosen).rname;
        ignore
          (Flightrec.incident ~kind:"demotion"
             ~detail:
               [ ( "budget_bytes",
                   match budget with
                   | Some b -> Json.num b
                   | None -> Json.Null );
                 ("requested", Json.Str requested);
                 ("chosen", Json.Str ladder.(chosen).rname);
                 ( "demotions",
                   Json.Arr
                     (List.map
                        (fun d ->
                          Json.Obj
                            [ ("from", Json.Str d.from_rung);
                              ("to", Json.Str d.to_rung);
                              ("over_bytes", Json.num d.over_bytes) ])
                        demotions) ) ]
             ())
      end
    end;
    Ok { budget; domains; requested; ladder; chosen; demotions }
  | None ->
    Telemetry.add c_infeasible 1;
    Error (refuse ~budget:(Option.get budget) ladder)

(* The guard's fallback is the naive plan on the interpreter, whatever
   the requested backend: the interpreter's model of the ladder's last,
   naive rung. *)
let fallback_fits r =
  match r.budget with
  | None -> true
  | Some b ->
    let last = r.ladder.(Array.length r.ladder - 1) in
    model_peak_bytes last.plan + last.scratch_bytes <= b

let exhausted r ~runtime_demotions =
  refuse
    ~budget:(Option.value r.budget ~default:0)
    ~detail:[ ("runtime_demotions", Json.num runtime_demotions) ]
    r.ladder

(* ------------------------------------------------------------------ *)
(* Parsing and printing                                                 *)

let bytes_of_string s =
  let s = String.trim s in
  let len = String.length s in
  if len = 0 then None
  else
    let mult, digits =
      match s.[len - 1] with
      | 'k' | 'K' -> (1024, String.sub s 0 (len - 1))
      | 'm' | 'M' -> (1024 * 1024, String.sub s 0 (len - 1))
      | 'g' | 'G' -> (1024 * 1024 * 1024, String.sub s 0 (len - 1))
      | _ -> (1, s)
    in
    match int_of_string_opt (String.trim digits) with
    | Some v when v > 0 -> Some (v * mult)
    | Some _ | None -> None

let pp_bytes ppf b =
  let fb = float_of_int b in
  if b >= 1 lsl 30 then Format.fprintf ppf "%.1f GiB" (fb /. 1073741824.)
  else if b >= 1 lsl 20 then Format.fprintf ppf "%.1f MiB" (fb /. 1048576.)
  else if b >= 1 lsl 10 then Format.fprintf ppf "%.1f KiB" (fb /. 1024.)
  else Format.fprintf ppf "%d B" b

let pp_flops ppf f =
  if f >= 1e9 then Format.fprintf ppf "%.2f GFLOP" (f /. 1e9)
  else if f >= 1e6 then Format.fprintf ppf "%.2f MFLOP" (f /. 1e6)
  else Format.fprintf ppf "%.0f FLOP" f

let pp_report ppf r =
  (match r.budget with
   | Some b ->
     Format.fprintf ppf "budget %a (%d B), requested %s, chosen %s@,"
       pp_bytes b b r.requested (chosen r).rname
   | None ->
     Format.fprintf ppf "no budget, requested %s (ladder modelled only)@,"
       r.requested);
  Array.iteri
    (fun i rg ->
      Format.fprintf ppf "  %c %-10s footprint %a (arrays %a + scratch %a \
                          x%d)  traffic %a  %a%s@,"
        (if i = r.chosen then '*' else ' ')
        rg.rname pp_bytes rg.peak_bytes pp_bytes rg.pool_peak_bytes pp_bytes
        (if r.domains = 0 then 0 else rg.scratch_bytes / r.domains)
        r.domains pp_bytes rg.dram_traffic pp_flops rg.flops
        (if rg.fits then "" else "  OVER BUDGET"))
    r.ladder;
  List.iter
    (fun d ->
      Format.fprintf ppf
        "  demoted %s -> %s: %a over budget; traffic %+d B, flops %+.0f@,"
        d.from_rung d.to_rung pp_bytes d.over_bytes d.traffic_delta
        d.flops_delta)
    r.demotions

let pp_infeasible ppf i =
  if i.inf_budget < i.floor_bytes then
    Format.fprintf ppf
      "budget %a infeasible: floor is %a (rung %s); no ladder rung fits"
      pp_bytes i.inf_budget pp_bytes i.floor_bytes i.floor_rung
  else
    (* above the modelled floor: refused by the pool, not the model *)
    Format.fprintf ppf
      "budget %a infeasible: every fitting rung overran it at run time \
       (modelled floor %a, rung %s)"
      pp_bytes i.inf_budget pp_bytes i.floor_bytes i.floor_rung

let rung_json rg =
  Json.Obj
    [ ("name", Json.Str rg.rname);
      ("peak_bytes", Json.num rg.peak_bytes);
      ("pool_peak_bytes", Json.num rg.pool_peak_bytes);
      ("scratch_bytes", Json.num rg.scratch_bytes);
      ("dram_traffic", Json.num rg.dram_traffic);
      ("flops", Json.Num rg.flops);
      ("fits", Json.Bool rg.fits) ]

let report_json r =
  Json.Obj
    [ ("budget",
       match r.budget with None -> Json.Null | Some b -> Json.num b);
      ("domains", Json.num r.domains);
      ("requested", Json.Str r.requested);
      ("chosen", Json.Str (chosen r).rname);
      ("ladder", Json.Arr (Array.to_list (Array.map rung_json r.ladder)));
      ("demotions",
       Json.Arr
         (List.map
            (fun d ->
              Json.Obj
                [ ("from", Json.Str d.from_rung);
                  ("to", Json.Str d.to_rung);
                  ("over_bytes", Json.num d.over_bytes);
                  ("traffic_delta", Json.num d.traffic_delta);
                  ("flops_delta", Json.Num d.flops_delta) ])
            r.demotions)) ]
