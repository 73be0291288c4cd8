module Buf = Repro_grid.Buf
module Grid = Repro_grid.Grid
module Parallel = Repro_runtime.Parallel
module Json = Repro_runtime.Json

type visit = { cycle : int; pre : float; mid : float; post : float }

type level_diag = {
  level : int;
  nl : int;
  visits : visit array;
  smoothing_rate : float;
  level_factor : float;
  stalled_at : int option;
}

type report = {
  bench : string;
  dims : int;
  n : int;
  levels : int;
  cycles : int;
  residual0 : float;
  residuals : float array;
  cycle_factors : float array;
  asymptotic_factor : float;
  level_diags : level_diag array;
  stalled_level : int option;
}

(* Relative improvement below this counts as "not improving" for stall
   attribution, and residuals below [floor_rel * r0] are considered at
   the round-off floor (no factor or stall is derived from them). *)
let stall_eps = 1e-3
let floor_rel = 1e-12

(* ------------------------------------------------------------------ *)
(* Statistics *)

let geo_mean ratios =
  let usable = List.filter (fun x -> Float.is_finite x && x > 0.0) ratios in
  match usable with
  | [] -> Float.nan
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
      /. float_of_int (List.length xs))

(* Per-cycle improvement series -> first cycle of a terminal non-improving
   streak (>= 2 cycles, still above the floor). *)
let stall_of_series p =
  let c = Array.length p in
  if c < 3 then None
  else begin
    let floor = floor_rel *. Float.max p.(0) 1e-300 in
    (* j = smallest index such that every step from p.(j-1) to p.(c-1)
       fails to improve by stall_eps *)
    let j = ref c in
    while
      !j > 1 && p.(!j - 1) >= (1.0 -. stall_eps) *. p.(!j - 2) && p.(!j - 2) > floor
    do
      decr j
    done;
    if c - !j >= 2 then Some (!j + 1) else None
  end

let diag_of_level ~level ~nl seen =
  let visits = Array.of_list (List.rev seen) in
  let ratios sel =
    Array.to_list visits
    |> List.filter_map (fun v ->
           let num, den = sel v in
           if den > 0.0 && Float.is_finite num then Some (num /. den)
           else None)
  in
  (* per-cycle last-visit post norms, for stall attribution *)
  let by_cycle = Hashtbl.create 16 in
  Array.iter (fun v -> Hashtbl.replace by_cycle v.cycle v.post) visits;
  let cycles = Hashtbl.fold (fun c _ acc -> Int.max c acc) by_cycle 0 in
  let series =
    Array.init cycles (fun i ->
        Option.value (Hashtbl.find_opt by_cycle (i + 1)) ~default:Float.nan)
  in
  { level;
    nl;
    visits;
    smoothing_rate = geo_mean (ratios (fun v -> (v.mid, v.pre)));
    level_factor = geo_mean (ratios (fun v -> (v.post, v.pre)));
    stalled_at = stall_of_series series }

let asymptotic ~residual0 ~residuals =
  let floor = floor_rel *. Float.max residual0 1e-300 in
  let factors = ref [] in
  let prev = ref residual0 in
  Array.iter
    (fun r ->
      if r > floor && !prev > floor && Float.is_finite r && r > 0.0 then
        factors := (r /. !prev) :: !factors;
      prev := r)
    residuals;
  let usable = List.rev !factors in
  let k = List.length usable in
  if k = 0 then Float.nan
  else
    (* last half: early cycles flatter the factor *)
    let last_half = List.filteri (fun i _ -> i >= k / 2) usable in
    geo_mean last_half

let observe cfg ~n ~cycles ?problem () =
  if cycles < 1 then invalid_arg "Health.observe: cycles must be >= 1";
  (match cfg.Cycle.shape with
  | Cycle.V | Cycle.W -> ()
  | Cycle.F -> invalid_arg "Health.observe: F-cycles not supported");
  (match cfg.Cycle.smoother with
  | Cycle.Jacobi -> ()
  | Cycle.Gsrb -> invalid_arg "Health.observe: GSRB smoothing not supported");
  let nlev = cfg.Cycle.levels in
  if n mod (1 lsl (nlev - 1)) <> 0 then
    invalid_arg "Health.observe: N must be divisible by 2^(levels-1)";
  let dims = cfg.Cycle.dims in
  let problem =
    match problem with Some p -> p | None -> Problem.poisson ~dims ~n
  in
  let expect = Array.make dims (n + 1) in
  if
    Grid.extents problem.Problem.v <> expect
    || Grid.extents problem.Problem.f <> expect
  then invalid_arg "Health.observe: problem extents mismatch";
  (* Verify reads grids and the probe's buffers belong to the cycle, so
     each phase copies the level's iterate and right-hand side into
     level-sized grids and takes the norm there. *)
  let nls = Array.init nlev (fun l -> (n / (1 lsl (nlev - 1 - l))) - 1) in
  let iterates = Array.map (Grid.interior ~dims) nls in
  let rhss = Array.map (Grid.interior ~dims) nls in
  let pre = Array.make nlev Float.nan and mid = Array.make nlev Float.nan in
  let seen = Array.make nlev [] in
  let cycle = ref 0 in
  let probe ~level phase iterate frhs =
    let v = iterates.(level) and f = rhss.(level) in
    (match iterate with
    | Some e -> Bigarray.Array1.blit e v.Grid.buf.Buf.data
    | None -> Grid.fill v 0.0);
    Bigarray.Array1.blit frhs f.Grid.buf.Buf.data;
    let r = Verify.residual_l2 ~n:(nls.(level) + 1) ~v ~f in
    let record post =
      seen.(level) <-
        { cycle = !cycle; pre = pre.(level); mid = mid.(level); post }
        :: seen.(level)
    in
    match phase with
    | Handopt.Entry -> pre.(level) <- r
    | Handopt.Pre_smoothed ->
      mid.(level) <- r;
      if level = 0 then record r
    | Handopt.Corrected -> record r
  in
  let step =
    Handopt.stepper
      (Handopt.create cfg ~n ~par:Parallel.sequential ~probe ())
  in
  let v = Grid.copy problem.Problem.v and out = Grid.copy problem.Problem.v in
  let f = problem.Problem.f in
  let residual0 = Verify.residual_l2 ~n ~v ~f in
  let residuals =
    Array.init cycles (fun c ->
        cycle := c + 1;
        let v, out = if c land 1 = 0 then (v, out) else (out, v) in
        step ~v ~f ~out;
        (List.hd seen.(nlev - 1)).post)
  in
  let cycle_factors =
    Array.mapi
      (fun c r ->
        let prev = if c = 0 then residual0 else residuals.(c - 1) in
        if prev > 0.0 then r /. prev else Float.nan)
      residuals
  in
  let level_diags =
    Array.init nlev (fun l -> diag_of_level ~level:l ~nl:nls.(l) seen.(l))
  in
  let stalled_level =
    Array.to_list level_diags
    |> List.filter_map (fun d ->
           match d.stalled_at with Some c -> Some (d.level, c) | None -> None)
    |> List.fold_left
         (fun best (l, c) ->
           match best with
           | Some (_, bc) when bc < c -> best
           | Some (bl, bc) when bc = c && bl > l -> best
           | _ -> Some (l, c))
         None
    |> Option.map fst
  in
  { bench = Cycle.bench_name cfg;
    dims = cfg.Cycle.dims;
    n;
    levels = cfg.Cycle.levels;
    cycles;
    residual0;
    residuals;
    cycle_factors;
    asymptotic_factor = asymptotic ~residual0 ~residuals;
    level_diags;
    stalled_level }

(* ------------------------------------------------------------------ *)
(* Sinks *)

let pp ppf r =
  let final =
    if Array.length r.residuals = 0 then r.residual0
    else r.residuals.(Array.length r.residuals - 1)
  in
  Format.fprintf ppf "@[<v>== health: %s n=%d, %d cycles ==@," r.bench r.n
    r.cycles;
  Format.fprintf ppf
    "residual %.3e -> %.3e; asymptotic convergence factor %.3f@," r.residual0
    final r.asymptotic_factor;
  Format.fprintf ppf "cycle factors:";
  Array.iter (fun f -> Format.fprintf ppf " %.3f" f) r.cycle_factors;
  Format.fprintf ppf "@,%-10s %6s %7s %10s %8s  %s@," "level" "nl" "visits"
    "smoothing" "factor" "stall";
  for l = Array.length r.level_diags - 1 downto 0 do
    let d = r.level_diags.(l) in
    Format.fprintf ppf "%-10s %6d %7d %10.3f %8.3f  %s@,"
      (Printf.sprintf "L%d%s" d.level
         (if l = Array.length r.level_diags - 1 then " (fine)" else ""))
      d.nl
      (Array.length d.visits)
      d.smoothing_rate d.level_factor
      (match d.stalled_at with
      | Some c -> Printf.sprintf "cycle %d" c
      | None -> "-")
  done;
  (match r.stalled_level with
  | Some l ->
    let d = r.level_diags.(l) in
    Format.fprintf ppf
      "stall attribution: level %d stopped reducing its residual at cycle %d@,"
      l
      (Option.value d.stalled_at ~default:0)
  | None -> Format.fprintf ppf "stall attribution: no stalls@,");
  Format.fprintf ppf "@]"

let fnum x = if Float.is_finite x then Json.Num x else Json.Null

let to_json r =
  Json.Obj
    [ ("bench", Json.Str r.bench);
      ("dims", Json.num r.dims);
      ("n", Json.num r.n);
      ("levels", Json.num r.levels);
      ("cycles", Json.num r.cycles);
      ("residual0", fnum r.residual0);
      ( "residuals",
        Json.Arr (Array.to_list (Array.map fnum r.residuals)) );
      ( "cycle_factors",
        Json.Arr (Array.to_list (Array.map fnum r.cycle_factors)) );
      ("asymptotic_factor", fnum r.asymptotic_factor);
      ( "levels_diag",
        Json.Arr
          (Array.to_list
             (Array.map
                (fun d ->
                  Json.Obj
                    [ ("level", Json.num d.level);
                      ("nl", Json.num d.nl);
                      ( "visits",
                        Json.Arr
                          (Array.to_list
                             (Array.map
                                (fun v ->
                                  Json.Obj
                                    [ ("cycle", Json.num v.cycle);
                                      ("pre", fnum v.pre);
                                      ("mid", fnum v.mid);
                                      ("post", fnum v.post) ])
                                d.visits)) );
                      ("smoothing_rate", fnum d.smoothing_rate);
                      ("level_factor", fnum d.level_factor);
                      ( "stalled_at",
                        match d.stalled_at with
                        | Some c -> Json.num c
                        | None -> Json.Null ) ])
                r.level_diags)) );
      ( "stalled_level",
        match r.stalled_level with
        | Some l -> Json.num l
        | None -> Json.Null ) ]

let healthy ?(max_factor = 0.75) r =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  (if not (Float.is_finite r.asymptotic_factor) || r.asymptotic_factor <= 0.0
   then err "asymptotic convergence factor is not a positive finite number"
   else if r.asymptotic_factor > max_factor then
     err "asymptotic convergence factor %.3f exceeds %.3f"
       r.asymptotic_factor max_factor);
  let final =
    if Array.length r.residuals = 0 then r.residual0
    else r.residuals.(Array.length r.residuals - 1)
  in
  if not (final < r.residual0) then
    err "residual did not decrease (%.3e -> %.3e)" r.residual0 final;
  (match r.stalled_level with
  | Some l -> err "level %d stalled above the round-off floor" l
  | None -> ());
  match !errs with [] -> Ok () | es -> Error (List.rev es)
