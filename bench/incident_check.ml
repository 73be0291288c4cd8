(* Incident-report validator: the CI gate that every report the flight
   recorder wrote is machine-readable and self-contained.

   Usage:
     incident_check.exe DIR [DIR ...]

   Walks each DIR recursively and checks every *.json against
   Campaign.incident_problems (schema, kind, plan digest, event tail,
   counters, environment).  Exits 1 if any report is malformed or if no
   report was found at all (an empty artifact set would make the gate
   vacuous), 2 without a DIR. *)

let problems = ref 0
let checked = ref 0

let complain path m =
  incr problems;
  Printf.printf "incident_check: %s: %s\n" path m

let check_file path =
  incr checked;
  match Campaign.read_incident path with
  | Error m -> complain path m
  | Ok doc -> List.iter (complain path) (Campaign.incident_problems doc)

let rec walk path =
  if Sys.is_directory path then
    Array.iter
      (fun entry -> walk (Filename.concat path entry))
      (Sys.readdir path)
  else if Filename.check_suffix path ".json" then check_file path

let () =
  let dirs = List.tl (Array.to_list Sys.argv) in
  if dirs = [] then begin
    prerr_endline "usage: incident_check.exe DIR [DIR ...]";
    exit 2
  end;
  List.iter
    (fun d ->
      if Sys.file_exists d then walk d
      else complain d "no such directory")
    dirs;
  if !checked = 0 then begin
    Printf.printf "incident_check: no incident report found under: %s\n"
      (String.concat " " dirs);
    exit 1
  end;
  Printf.printf "incident_check: %d report(s), %d problem(s)\n" !checked
    !problems;
  exit (if !problems > 0 then 1 else 0)
