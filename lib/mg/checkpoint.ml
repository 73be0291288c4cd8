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

(* The cycle a generation file's header holds, read without its grid. *)
let header_cycle ~path =
  match Snapshot.read_meta ~path with
  | Error m -> Error m
  | Ok meta -> (
    match Option.bind (Json.member "cycle" meta) Json.to_int with
    | Some c -> Ok c
    | None -> Error "metadata: missing cycle")

(* The generation files [gens] of [dir], ordered by the cycle their
   headers hold, highest first, and loaded in full in that order until
   one verifies: the newest generation.  A power cut can undo an in-place
   rewrite's unsynced rename, so the header, not the name, orders them.
   Returns the newest (its state), the files rejected on the way or whose
   header does not read (the number in the name and the reason, newest
   name first), and the cycle each file holds: [None] for a rejected one,
   the header's for one older than the newest, which is not loaded. *)
let survey ~dir gens =
  let headed =
    List.map (fun g -> (g, header_cycle ~path:(gen_path ~dir g))) gens
  in
  let by_header =
    List.filter_map (function g, Ok c -> Some (g, c) | _, Error _ -> None)
      headed
    |> List.stable_sort (fun (g, c) (g', c') -> compare (c', g') (c, g))
  in
  let rec walk failed = function
    | [] -> (None, failed)
    | (g, _) :: older -> (
      match load ~path:(gen_path ~dir g) with
      | Ok st -> (Some st, failed)
      | Error m -> walk ((g, m) :: failed) older)
  in
  let newest, failed = walk [] by_header in
  let rejected =
    List.filter_map (function g, Error m -> Some (g, m) | _, Ok _ -> None)
      headed
    @ failed
    |> List.sort (fun (g, _) (g', _) -> compare g' g)
  in
  let held g =
    if List.mem_assoc g rejected then None else List.assoc_opt g by_header
  in
  (newest, rejected, held)

(* ------------------------------------------------------------------ *)
(* The ring of generation files *)

(* A generation file: its name and the cycle it holds, read on first
   need by [survey] ([None]: the survey rejected it).  A power cut can undo the
   unsynced rename of an in-place rewrite and leave the newer bytes under
   the older name, so the header, not the name, orders generations. *)
type slot = { name : string; held : int option Lazy.t }

(* The generation files of [dir] as the saves left them: a sink lists
   the directory once and keeps its ring across saves. *)
type ring = { dir : string; mutable slots : slot list }

let held s = Lazy.force s.held

let open_ring dir =
  ensure_dir dir;
  let entries = try Sys.readdir dir with Sys_error _ -> [||] in
  (* droppings: temp files of writers killed mid-write
     (ckpt-NNNNNN.snap.tmp.PID) and an older writer's ckpt-spare.  Only
     one process writes a checkpoint dir at a time and this one is
     between writes, so removal is safe. *)
  Array.iter
    (fun name ->
      if String.starts_with ~prefix:"ckpt-" name
         && not (Filename.check_suffix name ".snap")
      then try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
    entries;
  let gens = generations_of entries in
  let held = lazy (let _, _, held = survey ~dir gens in held) in
  { dir;
    slots =
      List.map
        (fun g ->
          { name = Filename.basename (gen_path ~dir g);
            held = lazy ((Lazy.force held) g) })
        gens }

(* The slots a save may retire, in the order it retires them: files
   the survey rejected first, then generations oldest by header; never one
   holding the newest generation, nor the one named [spared]. *)
let retirable ?(spared = "") slots =
  let newest =
    List.fold_left
      (fun acc s -> match held s with Some c -> max acc c | None -> acc)
      min_int slots
  in
  List.filter (fun s -> s.name <> spared && held s <> Some newest) slots
  |> List.stable_sort (fun a b -> compare (held a) (held b))

(* Writes generation [st.cycle] into the ring.  The file already under
   its name, or once the ring holds [keep + 1] files its first retirable
   one, is rewritten in place (Snapshot.rewrite: one fsync, no directory
   sync) unless it holds the newest generation or is not eligible;
   otherwise the save goes through temp + fsync + rename + directory
   sync.  Files beyond [keep + 1] are then removed in retirable order.
   [scratch] is the file buffer: a sink keeps one across its saves. *)
let save_into ~scratch ring ~keep st =
  let path = gen_path ~dir:ring.dir st.cycle in
  let name = Filename.basename path in
  let meta = meta_of_state st and payloads = [ Snapshot.Floats st.v.Grid.buf ] in
  (* the file this save rewrites in place *)
  let victim =
    if List.exists (fun s -> s.name = name) ring.slots then
      List.find_opt (fun s -> s.name = name) (retirable ring.slots)
    else if List.length ring.slots > keep then
      List.nth_opt (retirable ring.slots) 0
    else None
  in
  let rewritten =
    match victim with
    | Some v ->
      Snapshot.rewrite ~scratch ~over:(Filename.concat ring.dir v.name) ~path
        ~meta payloads
    | None -> false
  in
  if not rewritten then Snapshot.write ~scratch ~path ~meta payloads;
  (* a rewritten file, or one the rename replaced, leaves the ring *)
  let rewrote s =
    rewritten && match victim with Some v -> v == s | None -> false
  in
  if List.exists (fun s -> rewrote s && s.name <> name) ring.slots then
    Telemetry.add c_pruned 1;
  ring.slots <-
    { name; held = Lazy.from_val (Some st.cycle) }
    :: List.filter (fun s -> not (rewrote s || s.name = name)) ring.slots;
  let rec trim excess = function
    | s :: rest when excess > 0 -> (
      match Sys.remove (Filename.concat ring.dir s.name) with
      | () ->
        ring.slots <- List.filter (( != ) s) ring.slots;
        Telemetry.add c_pruned 1;
        trim (excess - 1) rest
      | exception Sys_error _ -> trim excess rest)
    | _ -> ()
  in
  let excess = List.length ring.slots - (keep + 1) in
  if excess > 0 then trim excess (retirable ~spared:name ring.slots);
  Telemetry.add c_writes 1;
  if Flightrec.on () then
    Flightrec.emit
      (Flightrec.Checkpoint_write { gen = st.cycle; cycle = st.cycle });
  path

let save (config : config) st =
  save_into ~scratch:(ref Bytes.empty) (open_ring config.dir)
    ~keep:(max 1 config.keep) st

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
    let newest, rejected, _ = survey ~dir gens in
    List.iter
      (fun (g, m) ->
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
                     Json.Arr
                       (List.filter_map
                          (fun g' -> if g' < g then Some (Json.num g') else None)
                          gens) ) ]
               ())
        end)
      rejected;
    match newest with
    | Some state ->
      Telemetry.add c_restores 1;
      Ok { gen = state.cycle; state; rejected }
    | None ->
      Error
        (Printf.sprintf
           "no usable checkpoint generation in %s (%d present, all \
            rejected: %s)"
           dir (List.length gens)
           (String.concat "; "
              (List.map (fun (g, m) -> Printf.sprintf "gen %d: %s" g m)
                 rejected)))

(* ------------------------------------------------------------------ *)
(* Periodic sink *)

type sink = {
  on_accept :
    cycle:int -> residual:float -> v:Grid.t ->
    stats:Solver.cycle_stats list -> unit;
  flush : unit -> string option;
  restore : unit -> (int * float * Grid.t) option;
}

let sink (config : config) ~dims ~n ~variant ~plan_digest ?(history_prefix = []) () =
  let every = max 1 config.every in
  let last : state option ref = ref None in
  let spare : Grid.t option ref = ref None in
  let last_saved = ref min_int in
  let scratch = ref Bytes.empty in
  (* the directory's ring, listed at the first save; dropped on a failed
     save, whose files the next save must list and read again *)
  let ring = ref None in
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
    let r =
      match !ring with Some r -> r | None -> open_ring config.dir
    in
    ring := None;
    let path = save_into ~scratch r ~keep:(max 1 config.keep) st in
    ring := Some r;
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
