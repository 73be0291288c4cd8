(* Counter-name audit: every observability counter the library can
   increment must be documented, or the counter tables silently rot.

   Usage:
     audit_counters.exe LIBDIR DOC [DOC ...]

   Scans every .ml under LIBDIR for [Telemetry.counter "NAME"]
   registrations, keeps the audited families (the guard, govern,
   flightrec, snapshot, profile, ledger, serve, native and grid
   prefixes), and requires each name to appear verbatim in at least one
   DOC (the README/TESTING counter tables).  Exits 1 listing any
   undocumented counter — and any documented counter of those families
   that no longer exists in the code, so stale rows fail too. *)

let audited name =
  List.exists
    (fun p -> String.starts_with ~prefix:p name)
    [ "guard."; "govern."; "flightrec."; "snapshot."; "profile."; "ledger.";
      "serve."; "native."; "grid." ]

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* every string literal immediately following "Telemetry.counter" *)
let counters_in src =
  let key = "Telemetry.counter" in
  let klen = String.length key and n = String.length src in
  let names = ref [] in
  let i = ref 0 in
  (try
     while true do
       let at = Str.search_forward (Str.regexp_string key) src !i in
       i := at + klen;
       (* skip whitespace to the opening quote *)
       let j = ref !i in
       while !j < n && (src.[!j] = ' ' || src.[!j] = '\n') do incr j done;
       if !j < n && src.[!j] = '"' then begin
         let close = String.index_from src (!j + 1) '"' in
         names := String.sub src (!j + 1) (close - !j - 1) :: !names
       end
     done
   with Not_found -> ());
  !names

(* The [.ml] files under [dir].  The suffix is checked before any stat:
   under [_build], dune may be writing or removing other artifacts while
   this runs, so an entry that vanishes between [readdir] and [stat] (or a
   directory before its own [readdir]) is skipped. *)
let rec ml_files dir =
  Array.to_list (Sys.readdir dir)
  |> List.concat_map (fun e ->
         let path = Filename.concat dir e in
         if Filename.check_suffix e ".ml" then [ path ]
         else
           match Sys.is_directory path with
           | true -> ( try ml_files path with Sys_error _ -> [])
           | false | (exception Sys_error _) -> [])

let () =
  match List.tl (Array.to_list Sys.argv) with
  | libdir :: (_ :: _ as docs) ->
    let declared =
      ml_files libdir
      |> List.concat_map (fun f -> counters_in (read_file f))
      |> List.filter audited
      |> List.sort_uniq compare
    in
    if declared = [] then begin
      Printf.printf "audit_counters: no audited counter found under %s\n"
        libdir;
      exit 1
    end;
    let doc_text = String.concat "\n" (List.map read_file docs) in
    let contains s =
      try
        ignore (Str.search_forward (Str.regexp_string s) doc_text 0);
        true
      with Not_found -> false
    in
    let undocumented = List.filter (fun c -> not (contains c)) declared in
    (* stale direction: documented rows (backquoted names in a table
       column) that no code declares anymore *)
    let stale =
      let re =
        Str.regexp
          "`\\(\\(guard\\|govern\\|flightrec\\|snapshot\\|profile\\|ledger\\|serve\\|native\\)\\.[a-z_.]+\\)`"
      in
      let rec collect i acc =
        match Str.search_forward re doc_text i with
        | exception Not_found -> acc
        | at -> collect (at + 1) (Str.matched_group 1 doc_text :: acc)
      in
      collect 0 []
      |> List.sort_uniq compare
      |> List.filter (fun c -> not (List.mem c declared))
    in
    List.iter
      (fun c -> Printf.printf "audit_counters: undocumented counter %s\n" c)
      undocumented;
    List.iter
      (fun c ->
        Printf.printf "audit_counters: stale documented counter %s\n" c)
      stale;
    Printf.printf
      "audit_counters: %d audited counter(s), %d undocumented, %d stale\n"
      (List.length declared)
      (List.length undocumented)
      (List.length stale);
    exit (if undocumented <> [] || stale <> [] then 1 else 0)
  | _ ->
    prerr_endline "usage: audit_counters.exe LIBDIR DOC [DOC ...]";
    exit 2
