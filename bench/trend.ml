(* Longitudinal trend reporter over a polymg.ledger/1 JSONL file.

   Usage:
     trend.exe LEDGER [--out report.md] [--threshold 0.25] [--window 5]
     trend.exe --quick [--threshold 0.25]

   Records are grouped by Ledger.key (hostname + bench + n + domains +
   variant — never compare across machines).  Within each series, the
   latest record is gated against a baseline: the median s_per_cycle of
   the up-to-[window] records preceding it.  A latest/baseline ratio
   beyond 1+threshold is a REGRESSION (exit 1); beyond the other side it
   is an improvement.  A running-median level-shift scan also names the
   record where the series last changed level (changepoint), so a
   regression that crept in several runs ago is still attributed to the
   run that introduced it.

   The markdown report (--out; stdout summary always) carries one
   section per series with an ASCII sparkline of the whole history.

   --quick is the synthetic self-test: it builds a flat ledger and a
   copy with an injected 1.6x slowdown in two temp files, and asserts
   the analysis passes the flat one (no regression) and catches the
   injected one.  Exit 0 when the self-test holds, 1 when it does not —
   the gate that proves the gate works.

   Exit status: 0 no regression, 1 regression (or failed self-test),
   2 usage errors / unreadable ledger / no usable records. *)

module Json = Repro_runtime.Json
module Ledger = Repro_runtime.Ledger
module Roofline = Repro_runtime.Roofline

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Small stats *)

let median xs =
  match List.sort compare xs with
  | [] -> Float.nan
  | sorted ->
    let n = List.length sorted in
    let a = Array.of_list sorted in
    if n mod 2 = 1 then a.(n / 2)
    else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sparkline xs =
  let glyphs = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83";
                  "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86";
                  "\xe2\x96\x87"; "\xe2\x96\x88" |] in
  match xs with
  | [] -> ""
  | _ ->
    let lo = List.fold_left Float.min infinity xs in
    let hi = List.fold_left Float.max neg_infinity xs in
    let span = hi -. lo in
    String.concat ""
      (List.map
         (fun v ->
           let k =
             if span <= 0.0 then 0
             else Int.min 7 (int_of_float ((v -. lo) /. span *. 8.0))
           in
           glyphs.(k))
         xs)

let iso t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

(* ------------------------------------------------------------------ *)
(* Series analysis *)

type verdict = Regression | Improved | Ok | Insufficient

let verdict_name = function
  | Regression -> "REGRESSION"
  | Improved -> "improved"
  | Ok -> "ok"
  | Insufficient -> "insufficient history"

type series = {
  skey : string;
  records : Ledger.record list;  (* chronological *)
  latest : float;
  baseline : float;  (* median of the preceding window; nan if none *)
  ratio : float;
  sverdict : verdict;
  changepoint : (int * float) option;  (* index, level-shift ratio *)
}

(* running-median level shift: compare the median of the [w] records
   before each index with the median of the [w] records from it on, and
   keep the last index whose shift exceeds the threshold *)
let find_changepoint ~window ~threshold times =
  let n = Array.length times in
  let w = Int.max 2 (Int.min window (n / 2)) in
  let best = ref None in
  for i = w to n - w do
    let before = Array.to_list (Array.sub times (i - w) w) in
    let after = Array.to_list (Array.sub times i w) in
    let mb = median before and ma = median after in
    if mb > 0.0 then begin
      let shift = ma /. mb in
      if Float.abs (Float.log shift) > Float.log (1.0 +. threshold) then
        best := Some (i, shift)
    end
  done;
  !best

let analyze ~window ~threshold (skey, records) =
  let records =
    List.sort
      (fun (a : Ledger.record) b -> compare a.Ledger.timestamp b.Ledger.timestamp)
      records
  in
  let times = List.map (fun (r : Ledger.record) -> r.Ledger.s_per_cycle) records in
  let latest = List.nth times (List.length times - 1) in
  let prior = List.filteri (fun i _ -> i < List.length times - 1) times in
  let base_window =
    let np = List.length prior in
    List.filteri (fun i _ -> i >= np - window) prior
  in
  let baseline = median base_window in
  let ratio = if baseline > 0.0 then latest /. baseline else Float.nan in
  let sverdict =
    if base_window = [] || not (Float.is_finite ratio) then Insufficient
    else if ratio > 1.0 +. threshold then Regression
    else if ratio < 1.0 -. threshold then Improved
    else Ok
  in
  { skey;
    records;
    latest;
    baseline;
    ratio;
    sverdict;
    changepoint =
      find_changepoint ~window ~threshold (Array.of_list times) }

let group_by_key records =
  let tbl : (string, Ledger.record list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let k = Ledger.key r in
      Hashtbl.replace tbl k
        (r :: Option.value (Hashtbl.find_opt tbl k) ~default:[]))
    records;
  Hashtbl.fold (fun k rs acc -> (k, rs) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* Report rendering *)

let render_series b (s : series) =
  Buffer.add_string b (Printf.sprintf "## %s\n\n" s.skey);
  let times =
    List.map (fun (r : Ledger.record) -> r.Ledger.s_per_cycle) s.records
  in
  Buffer.add_string b
    (Printf.sprintf "- records: %d; trend `%s`\n" (List.length s.records)
       (sparkline times));
  Buffer.add_string b
    (Printf.sprintf "- latest: %.4g ms/cycle (%s)\n" (s.latest *. 1e3)
       (iso
          (List.nth s.records (List.length s.records - 1)).Ledger.timestamp));
  if Float.is_finite s.baseline then
    Buffer.add_string b
      (Printf.sprintf "- baseline (median of preceding window): %.4g ms/cycle\n"
         (s.baseline *. 1e3));
  Buffer.add_string b
    (Printf.sprintf "- verdict: ratio %s -> **%s**\n"
       (if Float.is_finite s.ratio then Printf.sprintf "%.3f" s.ratio
        else "n/a")
       (verdict_name s.sverdict));
  (match s.changepoint with
   | Some (i, shift) ->
     let r = List.nth s.records i in
     Buffer.add_string b
       (Printf.sprintf
          "- changepoint: level shift %+.0f%% at record %d (%s, plan %s)\n"
          (100.0 *. (shift -. 1.0))
          i
          (iso r.Ledger.timestamp)
          (if r.Ledger.plan_digest = "" then "?" else r.Ledger.plan_digest))
   | None -> ());
  Buffer.add_string b "\n| # | timestamp | ms/cycle | plan digest |\n";
  Buffer.add_string b "|---|---|---|---|\n";
  let nrec = List.length s.records in
  List.iteri
    (fun i (r : Ledger.record) ->
      (* keep long histories readable: first + last 10 rows *)
      if i = 0 || i >= nrec - 10 then
        Buffer.add_string b
          (Printf.sprintf "| %d | %s | %.4g | %s |\n" i
             (iso r.Ledger.timestamp)
             (r.Ledger.s_per_cycle *. 1e3)
             r.Ledger.plan_digest)
      else if i = 1 && nrec > 11 then Buffer.add_string b "| … | | | |\n")
    s.records;
  Buffer.add_string b "\n"

let render ~path ~skipped ~threshold ~window series_list =
  let b = Buffer.create 4096 in
  Buffer.add_string b "# Performance trend report\n\n";
  Buffer.add_string b
    (Printf.sprintf
       "ledger: `%s` — %d record(s) in %d series, %d skipped line(s); \
        threshold %.0f%%, baseline window %d\n\n"
       path
       (List.fold_left (fun acc s -> acc + List.length s.records) 0 series_list)
       (List.length series_list)
       skipped (100.0 *. threshold) window);
  List.iter (render_series b) series_list;
  let regressions =
    List.filter (fun s -> s.sverdict = Regression) series_list
  in
  Buffer.add_string b
    (if regressions = [] then "No series regressed.\n"
     else
       Printf.sprintf "**%d series REGRESSED**: %s\n"
         (List.length regressions)
         (String.concat ", " (List.map (fun s -> s.skey) regressions)));
  Buffer.contents b

let run_analysis ~path ~threshold ~window ~out =
  let records, skipped = Ledger.load path in
  if records = [] then
    fail "trend: %s: no usable ledger records (%d line(s) skipped)" path
      skipped;
  let series_list =
    List.map (analyze ~window ~threshold) (group_by_key records)
  in
  let report = render ~path ~skipped ~threshold ~window series_list in
  (match out with
   | Some p -> Repro_runtime.Snapshot.atomic_write_string ~path:p report
   | None -> ());
  print_string report;
  List.exists (fun s -> s.sverdict = Regression) series_list

(* ------------------------------------------------------------------ *)
(* --quick: synthetic self-test *)

let synthetic_record ~t ~s_per_cycle =
  Ledger.make ~timestamp:t
    ~roofline:{ Roofline.bandwidth_gbs = 10.0; gflops = 10.0 }
    ~sites:[] ~bench:"synthetic" ~n:64 ~domains:1 ~variant:"opt+"
    ~plan_digest:"selftest" ~s_per_cycle ()

let self_test ~threshold =
  let dir = Filename.temp_file "trend_selftest" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let flat = Filename.concat dir "flat.jsonl" in
  let injected = Filename.concat dir "injected.jsonl" in
  let t0 = Unix.gettimeofday () -. 3600.0 in
  (* flat series with ±2% jitter, deterministic *)
  let jitter i = 1.0 +. (0.02 *. Float.sin (float_of_int i *. 1.7)) in
  for i = 0 to 7 do
    let r =
      synthetic_record ~t:(t0 +. (60.0 *. float_of_int i))
        ~s_per_cycle:(1e-3 *. jitter i)
    in
    Ledger.append ~path:flat r;
    Ledger.append ~path:injected
      (if i = 7 then { r with Ledger.s_per_cycle = 1e-3 *. 1.6 } else r)
  done;
  print_endline "trend --quick: flat ledger (expect no regression)";
  let flat_regressed =
    run_analysis ~path:flat ~threshold ~window:5 ~out:None
  in
  print_endline "trend --quick: injected 1.6x slowdown (expect REGRESSION)";
  let injected_regressed =
    run_analysis ~path:injected ~threshold ~window:5 ~out:None
  in
  Sys.remove flat;
  Sys.remove injected;
  Unix.rmdir dir;
  let ok = (not flat_regressed) && injected_regressed in
  Printf.printf
    "trend --quick: flat %s, injected %s -> self-test %s\n"
    (if flat_regressed then "REGRESSED (wrong)" else "passed")
    (if injected_regressed then "caught" else "MISSED (wrong)")
    (if ok then "passed" else "FAILED");
  ok

(* ------------------------------------------------------------------ *)

let () =
  let threshold = ref 0.25 in
  let window = ref 5 in
  let out = ref None in
  let quick = ref false in
  let files = ref [] in
  let usage =
    "usage: trend.exe LEDGER [--out report.md] [--threshold 0.25] \
     [--window 5] | trend.exe --quick"
  in
  let bad msg = raise (Arg.Bad msg) in
  Campaign.parse ~usage
    ~anon:(fun f -> files := f :: !files)
    [ ( "--threshold",
        Arg.Float
          (fun t ->
            if t > 0.0 then threshold := t else bad "--threshold must be > 0"),
        "R Regression beyond a latest/baseline ratio of 1+R (default 0.25)" );
      ( "--window",
        Arg.Int
          (fun w -> if w >= 1 then window := w else bad "--window must be >= 1"),
        "K Baseline of the K records before the latest (default 5)" );
      ("--out", Arg.String (fun p -> out := Some p), "FILE Markdown report");
      ("--quick", Arg.Set quick, " Synthetic self-test of the analysis") ];
  if !quick then exit (if self_test ~threshold:!threshold then 0 else 1)
  else
    match List.rev !files with
    | [ path ] ->
      if not (Sys.file_exists path) then fail "trend: %s: no such ledger" path;
      let regressed =
        run_analysis ~path ~threshold:!threshold ~window:!window ~out:!out
      in
      exit (if regressed then 1 else 0)
    | _ -> fail "%s" usage
