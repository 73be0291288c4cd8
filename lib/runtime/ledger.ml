(* Longitudinal performance ledger: one self-describing JSONL record per
   bench/profiled run, appended durably so the repo accumulates a
   machine-keyed performance history across sessions (the trajectory
   bench/trend.exe reads).

   Appends rewrite the whole file through Snapshot.atomic_write_string
   (temp + fsync + rename), so a crash mid-append can never leave a torn
   line — the ledger is either the old history or the old history plus
   one complete record.  O(file) per append, which is fine at ledger
   scale (one record per bench run). *)

let schema = "polymg.ledger/1"
let c_appends = Telemetry.counter "ledger.appends"
let c_skipped = Telemetry.counter "ledger.skipped"

type record = {
  timestamp : float;  (* unix seconds *)
  hostname : string;
  ocaml_version : string;
  word_size : int;
  roofline : Roofline.t;
  bench : string;  (* config name, e.g. V-2D-4-4-4 *)
  n : int;
  domains : int;
  variant : string;
  plan_digest : string;
  s_per_cycle : float;
  sites : (string * Profile.stats) list;  (* per-site profile stats *)
}

let fingerprint () =
  let hostname = try Unix.gethostname () with Unix.Unix_error _ -> "unknown" in
  (hostname, Sys.ocaml_version, Sys.word_size)

let make ?(timestamp = Unix.gettimeofday ()) ?(roofline = Roofline.get ())
    ?(sites = Profile.sites ()) ~bench ~n ~domains ~variant
    ~plan_digest ~s_per_cycle () =
  let hostname, ocaml_version, word_size = fingerprint () in
  { timestamp;
    hostname;
    ocaml_version;
    word_size;
    roofline;
    bench;
    n;
    domains;
    variant;
    plan_digest;
    s_per_cycle;
    sites }

(* the series key: records compare only within the same machine, config
   and variant *)
let key r =
  Printf.sprintf "%s|%s|n=%d|d=%d|%s" r.hostname r.bench r.n r.domains
    r.variant

let fnum f = if Float.is_finite f then Json.Num f else Json.Null

let site_json (name, (st : Profile.stats)) =
  Json.Obj
    [ ("site", Json.Str name);
      ("count", Json.num st.Profile.count);
      ("total_ns", fnum st.Profile.total);
      ("mean_ns", fnum st.Profile.mean);
      ("variance_ns2", fnum st.Profile.variance);
      ("min_ns", fnum st.Profile.min);
      ("max_ns", fnum st.Profile.max) ]

let to_json r =
  Json.Obj
    [ ("schema", Json.Str schema);
      ("timestamp", Json.Num r.timestamp);
      ("hostname", Json.Str r.hostname);
      ("ocaml_version", Json.Str r.ocaml_version);
      ("word_size", Json.num r.word_size);
      ( "roofline",
        Json.Obj
          [ ("bandwidth_gbs", Json.Num r.roofline.Roofline.bandwidth_gbs);
            ("gflops", Json.Num r.roofline.Roofline.gflops) ] );
      ("bench", Json.Str r.bench);
      ("n", Json.num r.n);
      ("domains", Json.num r.domains);
      ("variant", Json.Str r.variant);
      ("plan_digest", Json.Str r.plan_digest);
      ("s_per_cycle", fnum r.s_per_cycle);
      ("sites", Json.Arr (List.map site_json r.sites)) ]

let of_json j =
  let str k = Option.bind (Json.member k j) Json.to_str in
  let flt k = Option.bind (Json.member k j) Json.to_float in
  let int k = Option.bind (Json.member k j) Json.to_int in
  match (str "schema", str "bench", flt "s_per_cycle", flt "timestamp") with
  | Some s, Some bench, Some s_per_cycle, Some timestamp when s = schema ->
    let roofline =
      match Json.member "roofline" j with
      | Some rj ->
        { Roofline.bandwidth_gbs =
            Option.value ~default:Float.nan
              (Option.bind (Json.member "bandwidth_gbs" rj) Json.to_float);
          gflops =
            Option.value ~default:Float.nan
              (Option.bind (Json.member "gflops" rj) Json.to_float) }
      | None -> { Roofline.bandwidth_gbs = Float.nan; gflops = Float.nan }
    in
    let sites =
      match Json.member "sites" j with
      | None -> []
      | Some sj ->
        List.filter_map
          (fun e ->
            let estr k = Option.bind (Json.member k e) Json.to_str in
            let eflt k =
              Option.value ~default:Float.nan
                (Option.bind (Json.member k e) Json.to_float)
            in
            let eint k =
              Option.value ~default:0
                (Option.bind (Json.member k e) Json.to_int)
            in
            match estr "site" with
            | None -> None
            | Some name ->
              Some
                ( name,
                  { Profile.count = eint "count";
                    mean = eflt "mean_ns";
                    variance = eflt "variance_ns2";
                    min = eflt "min_ns";
                    max = eflt "max_ns";
                    total = eflt "total_ns" } ))
          (Json.to_list sj)
    in
    Some
      { timestamp;
        hostname = Option.value ~default:"unknown" (str "hostname");
        ocaml_version = Option.value ~default:"" (str "ocaml_version");
        word_size = Option.value ~default:0 (int "word_size");
        roofline;
        bench;
        n = Option.value ~default:0 (int "n");
        domains = Option.value ~default:1 (int "domains");
        variant = Option.value ~default:"" (str "variant");
        plan_digest = Option.value ~default:"" (str "plan_digest");
        s_per_cycle;
        sites }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Durable JSONL persistence *)

let read_file path =
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  end
  else ""

let append ~path r =
  let old = read_file path in
  let line = Json.to_string (to_json r) ^ "\n" in
  Snapshot.atomic_write_string ~path (old ^ line);
  Telemetry.add c_appends 1

(* tolerant load: unparsable or alien lines are counted, not fatal — a
   ledger written by a future schema must not brick trend reporting *)
let load path =
  let text = read_file path in
  let lines = String.split_on_char '\n' text in
  let skipped = ref 0 in
  let records =
    List.filter_map
      (fun line ->
        let line = String.trim line in
        if line = "" then None
        else
          match Json.parse line with
          | Error _ ->
            incr skipped;
            None
          | Ok j -> (
            match of_json j with
            | Some r -> Some r
            | None ->
              incr skipped;
              None))
      lines
  in
  if !skipped > 0 then Telemetry.add c_skipped !skipped;
  (records, !skipped)
