(* Schema fingerprint of an observability document: every JSON key path
   (object keys joined by '.', array elements as '[]'), then the series
   it carries — trace events as "span CAT NAME", metrics histograms, gauges
   and labelled counters as "KIND NAME{LABELS}" — sorted and
   deduplicated.  Values are ignored, so the output is stable across
   runs; the runtest rule diffs it against the committed expectation.

   Usage: schema_keys.exe FILE.json *)

module Json = Repro_runtime.Json

let rec paths prefix v acc =
  match v with
  | Json.Obj fields ->
    (* the object itself, so an empty one still shows its path *)
    let acc = if prefix = "" then acc else prefix :: acc in
    List.fold_left
      (fun acc (k, x) -> paths (prefix ^ "." ^ k) x acc)
      acc fields
  | Json.Arr xs ->
    (* the array itself, so an empty one still shows its path *)
    let p = prefix ^ "[]" in
    List.fold_left (fun acc x -> paths p x acc) (p :: acc) xs
  | Json.Null | Json.Bool _ | Json.Num _ | Json.Str _ -> prefix :: acc

let str k j =
  Option.value ~default:"?" (Option.bind (Json.member k j) Json.to_str)

let items path doc =
  List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some doc) path
  |> Option.fold ~none:[] ~some:Json.to_list

let labelled kind j =
  let labels =
    match Json.member "labels" j with
    | Some (Json.Obj ls) ->
      List.map
        (fun (k, v) -> k ^ "=" ^ Option.value ~default:"?" (Json.to_str v))
        ls
    | _ -> []
  in
  Printf.sprintf "%s %s{%s}" kind (str "name" j) (String.concat "," labels)

let series doc =
  List.map
    (fun e -> Printf.sprintf "span %s %s" (str "cat" e) (str "name" e))
    (items [ "traceEvents" ] doc)
  @ List.concat_map
      (fun (kind, key) ->
        List.map (labelled kind) (items [ "metrics"; key ] doc))
      [ ("histogram", "histograms");
        ("gauge", "gauges");
        ("lcounter", "labelled_counters") ]

let () =
  let path = Sys.argv.(1) in
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Error msg ->
    Printf.eprintf "%s: %s\n" path msg;
    exit 1
  | Ok doc ->
    List.iter print_endline (List.sort_uniq compare (paths "" doc []));
    List.iter print_endline (List.sort_uniq compare (series doc))
