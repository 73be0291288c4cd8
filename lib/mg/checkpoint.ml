module Grid = Repro_grid.Grid
module Snapshot = Repro_runtime.Snapshot
module Telemetry = Repro_runtime.Telemetry
module Flightrec = Repro_runtime.Flightrec
module Json = Repro_runtime.Json

type state = {
  cycle : int;
  residual : float;
  dims : int;
  n : int;
  variant : string;
  plan_digest : string;
  seed : int;
  history : Solver.cycle_stats list;
  v : Grid.t;
}

type config = { dir : string; every : int; keep : int }

let default_keep = 3

let effective_every ~every ~deadline =
  if every < 1 then invalid_arg "Checkpoint: every must be >= 1";
  match deadline with Some _ -> 1 | None -> every

let c_writes = Telemetry.counter "guard.checkpoint_writes"
let c_restores = Telemetry.counter "guard.checkpoint_restores"
let c_rejected = Telemetry.counter "guard.checkpoint_rejected"
let c_pruned = Telemetry.counter "guard.checkpoint_pruned"

let gen_path ~dir g = Filename.concat dir (Printf.sprintf "ckpt-%06d.snap" g)

let gen_of_name name =
  if String.length name > 10
     && String.sub name 0 5 = "ckpt-"
     && Filename.check_suffix name ".snap"
  then int_of_string_opt (String.sub name 5 (String.length name - 10))
  else None

let generations_of entries =
  Array.to_list entries |> List.filter_map gen_of_name |> List.sort_uniq compare

let generations ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries -> generations_of entries

(* The one file rotation recycles: not a generation, and not a temp
   dropping either. *)
let spare_name = "ckpt-spare"

let spare_path ~dir = Filename.concat dir spare_name

(* ------------------------------------------------------------------ *)
(* Serialization *)

let status_name_of = Solver.status_name

let status_of_name = function
  | "ok" -> Some Solver.Ok
  | "nan" -> Some Solver.Nan
  | "diverged" -> Some Solver.Diverged
  | "stagnated" -> Some Solver.Stagnated
  | _ -> None

let meta_of_state st =
  let fnum x = if Float.is_finite x then Json.Num x else Json.Null in
  Json.Obj
    [ ("kind", Json.Str "mg-checkpoint");
      ("cycle", Json.num st.cycle);
      ("residual", fnum st.residual);
      ("dims", Json.num st.dims);
      ("n", Json.num st.n);
      ("variant", Json.Str st.variant);
      ("plan_digest", Json.Str st.plan_digest);
      ("seed", Json.num st.seed);
      ( "extents",
        Json.Arr
          (Array.to_list
             (Array.map (fun e -> Json.num e) (Grid.extents st.v))) );
      ( "history",
        Json.Arr
          (List.map
             (fun (s : Solver.cycle_stats) ->
               Json.Obj
                 [ ("cycle", Json.num s.Solver.cycle);
                   ("residual", fnum s.Solver.residual);
                   ("seconds", Json.Num s.Solver.seconds);
                   ("status", Json.Str (status_name_of s.Solver.status)) ])
             st.history) ) ]

let ensure_dir dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      let parent = Filename.dirname d in
      if parent <> d then go parent;
      try Unix.mkdir d 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let is_regular path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_REG; _ } -> true
  | _ | (exception Unix.Unix_error _) -> false

(* Only after the newest generation is durably in place: retire
   generations beyond [keep], oldest first and never [newest], and
   remove the temp droppings of writers killed mid-write.  [entries] is
   the directory as listed before the write.  The first retired
   generation that is a regular file is renamed to the spare for the
   next save to overwrite; the directory is synced before that save can
   start, so a power cut never shows the overwrite under a generation
   name.  The others are removed. *)
let rotate config entries ~newest =
  let dir = config.dir in
  let gens = List.sort_uniq compare (newest :: generations_of entries) in
  let excess = List.length gens - max 1 config.keep in
  let remove path =
    match Sys.remove path with () -> true | exception Sys_error _ -> false
  in
  let try_spare = ref true and spared = ref false in
  List.iteri
    (fun i g ->
      if i < excess && g <> newest then begin
        let path = gen_path ~dir g in
        let retired =
          if !try_spare && is_regular path then begin
            try_spare := false;
            match Unix.rename path (spare_path ~dir) with
            | () ->
              spared := true;
              true
            | exception Unix.Unix_error _ -> remove path
          end
          else remove path
        in
        if retired then Telemetry.add c_pruned 1
      end)
    gens;
  if !spared then Snapshot.fsync_dir dir;
  (* droppings look like ckpt-NNNNNN.snap.tmp.PID, left by writers
     killed mid-write; only one process writes a checkpoint dir at a
     time and this process is between writes, so removal is safe *)
  Array.iter
    (fun name ->
      if
        String.length name > 5
        && String.sub name 0 5 = "ckpt-"
        && (not (Filename.check_suffix name ".snap"))
        && name <> spare_name
      then
        try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
    entries

let save config st =
  ensure_dir config.dir;
  let entries = try Sys.readdir config.dir with Sys_error _ -> [||] in
  let path = gen_path ~dir:config.dir st.cycle in
  Snapshot.write
    ?reuse:
      (if Array.mem spare_name entries then Some (spare_path ~dir:config.dir)
       else None)
    ~path ~meta:(meta_of_state st)
    [ Snapshot.Floats st.v.Grid.buf ];
  Telemetry.add c_writes 1;
  if Flightrec.on () then
    Flightrec.emit
      (Flightrec.Checkpoint_write { gen = st.cycle; cycle = st.cycle });
  rotate config entries ~newest:st.cycle;
  path

let mem k d = Option.value (Json.member k d) ~default:Json.Null

(* A history entry that does not parse is an [Error], never dropped: a
   resumed run must not silently carry a shorter history. *)
let history_of j =
  let entry h =
    match (Json.to_int (mem "cycle" h), Json.to_str (mem "status" h)) with
    | Some cycle, Some name -> (
      match status_of_name name with
      | Some status ->
        Some
          { Solver.cycle;
            residual =
              Option.value (Json.to_float (mem "residual" h))
                ~default:Float.nan;
            seconds =
              Option.value (Json.to_float (mem "seconds" h)) ~default:0.0;
            status }
      | None -> None)
    | _ -> None
  in
  let entries = Json.to_list j in
  let history = List.filter_map entry entries in
  if List.length history = List.length entries then Ok history
  else Error "metadata: unparsable history entry"

(* Extents are checked before anything is allocated from them: one
   integer per dimension, each at least 1, and exactly [len] payload
   bytes between them.  The product is bounded step by step, so a huge
   extent can neither overflow it nor size an allocation. *)
let extents_of ~dims ~len j =
  let rec bytes acc = function
    | [] -> Some acc
    | e :: rest -> if e < 1 || e > len / acc then None else bytes (acc * e) rest
  in
  let items = Json.to_list j in
  let ints = List.filter_map Json.to_int items in
  if items = [] then Error "metadata: missing extents"
  else if List.length ints <> List.length items || List.length ints <> dims
  then Error (Printf.sprintf "metadata: extents are not %d integers" dims)
  else
    match bytes 8 ints with
    | Some b when b = len -> Ok (Array.of_list ints)
    | _ ->
      Error
        (Printf.sprintf "metadata: extents [%s] do not match the %d-byte \
                         grid payload"
           (String.concat "," (List.map string_of_int ints))
           len)

let load ~path =
  let ( let* ) = Result.bind in
  let* meta, payloads = Snapshot.read ~path in
  let int k = Json.to_int (mem k meta) in
  let str k = Json.to_str (mem k meta) in
  match (str "kind", int "cycle", int "dims", int "n") with
  | Some "mg-checkpoint", Some cycle, Some dims, Some n ->
    let* payload =
      match payloads with
      | [ p ] -> Ok p
      | ps ->
        Error
          (Printf.sprintf "expected 1 grid payload, found %d"
             (List.length ps))
    in
    let* extents =
      extents_of ~dims ~len:payload.Snapshot.len (mem "extents" meta)
    in
    let* history = history_of (mem "history" meta) in
    let v = Grid.create extents in
    let* () =
      Snapshot.read_floats payload v.Grid.buf
      |> Result.map_error (fun m -> "grid payload: " ^ m)
    in
    Ok
      { cycle;
        residual =
          Option.value (Json.to_float (mem "residual" meta)) ~default:Float.nan;
        dims;
        n;
        variant = Option.value (str "variant") ~default:"";
        plan_digest = Option.value (str "plan_digest") ~default:"";
        seed = Option.value (int "seed") ~default:0;
        history;
        v }
  | _ -> Error "metadata: not an mg-checkpoint"

type resume = {
  gen : int;
  state : state;
  rejected : (int * string) list;
}

let load_latest ~dir =
  let gens = List.rev (generations ~dir) in
  if gens = [] then
    Error (Printf.sprintf "no checkpoint generation in %s" dir)
  else
    let rec walk rejected = function
      | [] ->
        Error
          (Printf.sprintf
             "no usable checkpoint generation in %s (%d present, all \
              rejected: %s)"
             dir
             (List.length gens)
             (String.concat "; "
                (List.rev_map
                   (fun (g, m) -> Printf.sprintf "gen %d: %s" g m)
                   rejected)))
      | g :: older -> (
        match load ~path:(gen_path ~dir g) with
        | Ok state ->
          Telemetry.add c_restores 1;
          Ok { gen = g; state; rejected = List.rev rejected }
        | Error m ->
          Telemetry.add c_rejected 1;
          if Flightrec.on () then begin
            Flightrec.emit (Flightrec.Checkpoint_reject { gen = g; reason = m });
            ignore
              (Flightrec.incident ~kind:"checkpoint-rejected"
                 ~detail:
                   [ ("generation", Json.num g);
                     ("reason", Json.Str m);
                     ("dir", Json.Str dir);
                     ( "older_generations",
                       Json.Arr (List.map (fun g -> Json.num g) older) ) ]
                 ())
          end;
          walk ((g, m) :: rejected) older)
    in
    walk [] gens

(* ------------------------------------------------------------------ *)
(* Periodic sink *)

type sink = {
  on_accept :
    cycle:int -> residual:float -> v:Grid.t ->
    stats:Solver.cycle_stats list -> unit;
  flush : unit -> string option;
  restore : unit -> (int * float * Grid.t) option;
}

let sink config ~dims ~n ~variant ~plan_digest ?(history_prefix = []) () =
  let every = max 1 config.every in
  let last : state option ref = ref None in
  let spare : Grid.t option ref = ref None in
  let last_saved = ref min_int in
  let state_of ~cycle ~residual ~v ~stats =
    { cycle;
      residual;
      dims;
      n;
      variant;
      plan_digest;
      seed = 0;
      history = history_prefix @ stats;
      v }
  in
  let save_state st =
    let path = save config st in
    last_saved := st.cycle;
    path
  in
  { on_accept =
      (fun ~cycle ~residual ~v ~stats ->
        if cycle mod every = 0 then begin
          let st = state_of ~cycle ~residual ~v ~stats in
          last := Some st;
          ignore (save_state st)
        end
        else begin
          (* off-cadence: the solve loop ping-pongs [v], so a deferred
             flush must snapshot its own copy, not the live buffer; one
             spare grid, retained across cycles, holds it *)
          let copy =
            match !spare with
            | Some g when Grid.extents g = Grid.extents v ->
              Grid.blit ~src:v ~dst:g;
              g
            | _ ->
              let g = Grid.copy v in
              spare := Some g;
              g
          in
          last := Some (state_of ~cycle ~residual ~v:copy ~stats)
        end);
    flush =
      (fun () ->
        match !last with
        | Some st when st.cycle > !last_saved ->
          (* the signal handler runs at a safe point in the solving
             thread, so [st.v] is a settled accepted iterate *)
          Some (save_state st)
        | Some _ | None -> None);
    restore =
      (fun () ->
        match load_latest ~dir:config.dir with
        | Ok { state; _ } -> Some (state.cycle, state.residual, state.v)
        | Error _ -> None) }
