(* Campaign kit: what every bench campaign shares — the command line,
   the PASS/FAIL verdicts, the pools-quiescent teardown case, the JSON
   report, the exit status, and the one validator of polymg.incident/1
   flight-recorder reports.

   A campaign parses its flags with [parse], records each case with
   [check], and ends with [finish], which writes the report envelope

     {schema, quick, cases[], failures}

   (or {schema, <body>, failures} for a campaign with its own report
   shape) atomically to --out, prints the summary, and exits 0 when
   every case passed, 1 otherwise.  Flag errors exit 2 with the usage
   text.  A process runs one campaign, so the state lives here. *)

module Json = Repro_runtime.Json
module Flightrec = Repro_runtime.Flightrec
module Mempool = Repro_runtime.Mempool
module Snapshot = Repro_runtime.Snapshot

(* -- command line -------------------------------------------------------- *)

let quick = ref false
let out : string option ref = ref None
let incident_dir : string option ref = ref None

let quick_flag = ("--quick", Arg.Set quick, " Trimmed run for CI smoke")

let out_flag =
  ( "--out",
    Arg.String (fun p -> out := Some p),
    "FILE Write the JSON report to FILE" )

let incident_dir_flag =
  ( "--incident-dir",
    Arg.String (fun d -> incident_dir := Some d),
    "DIR Arm the flight recorder; incident reports land under DIR" )

(* [Stdlib.Arg] over [Sys.argv]: an unknown flag, a malformed value or a
   stray positional argument prints the usage and exits 2. *)
let parse ?(anon = fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    ~usage specs =
  Arg.parse (Arg.align specs) anon usage

(* -- verdicts ------------------------------------------------------------ *)

let cases : Json.t list ref = ref []
let failures = ref 0

(* Whether passing cases print a line.  A campaign whose cases are
   invariants checked inside a loop (crashsafe) lists only failures. *)
let list_passes = ref true

let strings l = Json.Arr (List.map (fun s -> Json.Str s) l)

let check ~name ~pass ~(detail : (string * Json.t) list) =
  if not pass then incr failures;
  if !list_passes || not pass then
    Printf.printf "  %-36s %s\n%!" name (if pass then "PASS" else "FAIL");
  cases :=
    Json.Obj (("name", Json.Str name) :: ("pass", Json.Bool pass) :: detail)
    :: !cases

(* Every pooled buffer must have come back, across every solve the
   campaign ran — faulted, demoted, killed or refused ones included. *)
let teardown ~name =
  match Mempool.assert_quiescent () with
  | 0 -> check ~name ~pass:true ~detail:[]
  | n -> check ~name ~pass:false ~detail:[ ("outstanding", Json.num n) ]
  | exception Mempool.Not_quiescent { outstanding; leaked; detail } ->
    check ~name ~pass:false
      ~detail:
        [ ("outstanding", Json.num outstanding);
          ("leaked", Json.num leaked);
          ("detail", strings detail) ]

(* -- report and exit ----------------------------------------------------- *)

let finish ?schema ?body title =
  (match (!out, schema) with
   | Some path, Some schema ->
     let body =
       match body with
       | Some b -> b
       | None ->
         [ ("quick", Json.Bool !quick); ("cases", Json.Arr (List.rev !cases)) ]
     in
     let doc =
       Json.Obj
         ((("schema", Json.Str schema) :: body)
         @ [ ("failures", Json.num !failures) ])
     in
     Snapshot.atomic_write_string ~path (Json.to_string doc ^ "\n");
     Printf.printf "%s: wrote %s\n" title path
   | _ -> ());
  if !failures > 0 then begin
    Printf.printf "%s: %d FAILURE(S)\n" title !failures;
    exit 1
  end;
  Printf.printf "%s: all %d cases passed\n" title (List.length !cases);
  exit 0

(* -- incident reports ---------------------------------------------------- *)

let field k d = Option.value (Json.member k d) ~default:Json.Null

(* The problems of one polymg.incident/1 report (empty = valid): the
   schema, a non-empty kind, a plan digest, a non-empty event tail whose
   entries carry kind/seq/dom, a counters object and an environment
   block.  With [mid_solve] (an anomaly the guard caught during a solve)
   it must also name its triggering cycle and fault. *)
let incident_problems ?(mid_solve = false) doc =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  (match Json.to_str (field "schema" doc) with
   | Some "polymg.incident/1" -> ()
   | Some s -> bad "wrong schema %S" s
   | None -> bad "missing schema");
  (match Json.to_str (field "kind" doc) with
   | Some k when k <> "" -> ()
   | _ -> bad "missing kind");
  (match Json.to_str (field "digest" (field "plan" doc)) with
   | Some d when d <> "" -> ()
   | _ -> bad "missing plan digest");
  (match Json.to_list (field "events" doc) with
   | [] -> bad "empty event tail"
   | events ->
     List.iteri
       (fun i e ->
         let has f get = get (field f e) <> None in
         if not (has "kind" Json.to_str) then bad "event %d has no kind" i;
         if not (has "seq" Json.to_int) then bad "event %d has no seq" i;
         if not (has "dom" Json.to_int) then bad "event %d has no dom" i)
       events);
  (match field "counters" doc with
   | Json.Obj _ -> ()
   | _ -> bad "missing counters object");
  (match field "environment" doc with
   | Json.Obj _ -> ()
   | _ -> bad "missing environment block");
  if mid_solve then begin
    (match Json.to_int (field "cycle" doc) with
     | Some c when c >= 1 -> ()
     | _ -> bad "missing triggering cycle");
    if Json.to_str (field "fault" (field "detail" doc)) = None then
      bad "detail does not name the triggering fault"
  end;
  List.rev !problems

let read_incident path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error ("cannot read: " ^ m)
  | s -> Result.map_error (fun m -> "parse error: " ^ m) (Json.parse s)

(* Arm the flight recorder into DIR/<sub> for one case when
   --incident-dir was given; the returned directory is what the case
   hands to [expect_incident]. *)
let arm_incidents sub =
  Option.map
    (fun root ->
      let dir = Filename.concat root sub in
      Flightrec.reset ();
      Flightrec.set_enabled true;
      Flightrec.set_incident_dir (Some dir);
      dir)
    !incident_dir

(* The incident trail a case must leave: every report under [dir] is
   valid, and at least one has a kind in [kinds] and a detail block
   satisfying [detail_pred].  [dir = None] (recorder not armed) expects
   nothing.  Returns the violations (empty = pass). *)
let expect_incident ~dir ~kinds ?mid_solve ?(detail_pred = fun _ -> true) ()
    =
  match dir with
  | None -> []
  | Some dir -> (
    match Sys.readdir dir with
    | exception Sys_error m -> [ Printf.sprintf "cannot read %s: %s" dir m ]
    | entries ->
      let reports =
        Array.to_list entries
        |> List.filter (fun f -> Filename.check_suffix f ".json")
        |> List.sort compare
      in
      let matched = ref false and seen = ref [] in
      let problems =
        List.concat_map
          (fun file ->
            let tag m = Printf.sprintf "%s: %s" file m in
            match read_incident (Filename.concat dir file) with
            | Error m -> [ tag m ]
            | Ok doc ->
              let kind = Json.to_str (field "kind" doc) in
              let kind = Option.value kind ~default:"" in
              seen := kind :: !seen;
              if List.mem kind kinds && detail_pred (field "detail" doc) then
                matched := true;
              List.map tag (incident_problems ?mid_solve doc))
          reports
      in
      if !matched then problems
      else
        problems
        @ [ Printf.sprintf
              "no incident of kind [%s] satisfying checks in %s (saw: %s)"
              (String.concat "|" kinds) dir
              (String.concat " " (List.sort_uniq compare !seen)) ])
