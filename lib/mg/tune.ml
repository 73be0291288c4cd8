open Repro_core

let seconds_per_cycle ?(reps = 2) ~cycles stepper (problem : Problem.t) =
  let run () =
    (Solver.iterate stepper ~problem ~cycles ~residuals:false ())
      .Solver.total_seconds
  in
  ignore (run ());
  let best = ref infinity in
  for _ = 1 to reps do
    best := Float.min !best (run ())
  done;
  !best /. float_of_int cycles

let rec pow2s lo hi = if lo > hi then [] else lo :: pow2s (2 * lo) hi

let tiles ~dims =
  (* the paper's (lo, hi) range per dimension, outermost first *)
  let ranges =
    match dims with
    | 2 -> [ (8, 64); (64, 512) ]
    | 3 -> [ (8, 32); (8, 32); (64, 256) ]
    | _ -> invalid_arg "Tune.tiles: dims must be 2 or 3"
  in
  List.fold_right
    (fun (lo, hi) inner ->
      List.concat_map (fun x -> List.map (fun t -> x :: t) inner) (pow2s lo hi))
    ranges [ [] ]
  |> List.map Array.of_list

let space base ~dims ~limits =
  List.concat_map
    (fun limit ->
      List.map
        (fun tile ->
          if dims = 2 then
            { base with Options.tile_2d = tile; group_size_limit = limit }
          else { base with Options.tile_3d = tile; group_size_limit = limit })
        (tiles ~dims))
    limits

let label ~dims (o : Options.t) =
  let tile = if dims = 2 then o.Options.tile_2d else o.Options.tile_3d in
  Printf.sprintf "limit=%d tile=%s" o.Options.group_size_limit
    (String.concat "x" (Array.to_list (Array.map string_of_int tile)))

let time ?(reps = 1) ?(cycles = 1) ~make problem opts =
  Exec.with_runtime @@ fun rt ->
  match seconds_per_cycle ~reps ~cycles (make opts ~rt) problem with
  | t -> Some t
  | exception Invalid_argument _ -> None

let best entries =
  List.fold_left
    (fun acc (x, t) ->
      match (acc, t) with
      | None, Some t -> Some (x, t)
      | Some (_, tb), Some t when t < tb -> Some (x, t)
      | _ -> acc)
    None entries
