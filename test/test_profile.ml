(* Per-stage profiler tests.

   Property (Qc_replay, seed-replayable): samples recorded from real
   spawned domains — each with its own Domain.DLS accumulator table —
   merge via the parallel Welford combination into exactly the stats a
   single-pass reference computes over the concatenated samples
   (count/mean/variance/min/max/total).  Unit tests cover the site
   table edge cases: unrecorded sites report nothing, interning is
   idempotent, the disabled path records nothing and allocates nothing,
   late-interned high-id sites force accumulator-array growth without
   losing earlier sites, percentiles are nan on empty and clamped to
   the observed extremes, and reset drops samples but keeps interning. *)

module Profile = Repro_runtime.Profile
module Telemetry = Repro_runtime.Telemetry

let with_profile f =
  Profile.reset ();
  Profile.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Profile.set_enabled false;
      Profile.reset ())
    f

(* Fresh site names per test run: interning is global and permanent, so
   reusing a name across tests would alias their samples. *)
let fresh =
  let k = ref 0 in
  fun name ->
    incr k;
    Printf.sprintf "test.%s.%d" name !k

(* -- property: cross-domain merge equals single-pass reference --------- *)

(* Two-pass reference: exact mean, then centered sum of squares — avoids
   the cancellation a naive sum-of-squares reference would add, so the
   comparison checks the profiler's merge, not the reference's error. *)
let reference samples =
  let n = List.length samples in
  let total = List.fold_left ( +. ) 0.0 samples in
  let mean = total /. float_of_int n in
  let m2 =
    List.fold_left (fun a v -> a +. ((v -. mean) *. (v -. mean))) 0.0 samples
  in
  let variance = if n < 2 then 0.0 else m2 /. float_of_int (n - 1) in
  ( n,
    mean,
    variance,
    List.fold_left Float.min infinity samples,
    List.fold_left Float.max neg_infinity samples,
    total )

let close ?(rel = 1e-9) a b =
  let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= rel *. scale

(* Per-domain sample batches: positive ns-like magnitudes spanning the
   histogram's bucket range, at least one non-empty batch overall. *)
let batches_arb =
  QCheck.(
    make
      ~print:Print.(list (list float))
      Gen.(
        list_size (int_range 1 4)
          (list_size (int_range 0 30)
             (map (fun x -> 0.5 +. (abs_float x *. 1e6)) float)))
    |> QCheck.add_shrink_invariant (fun bs ->
           List.exists (fun b -> b <> []) bs))

let prop_merged_welford =
  QCheck.Test.make ~count:60 ~name:"cross-domain merge = single-pass stats"
    batches_arb (fun batches ->
      QCheck.assume (List.exists (fun b -> b <> []) batches);
      with_profile @@ fun () ->
      let s = Telemetry.site (fresh "welford") in
      (* sequential spawn/join: each domain still gets its own DLS table,
         so the merge path is exercised without racing the recorder *)
      List.iteri
        (fun i batch ->
          if i = 0 then List.iter (Telemetry.record s) batch
          else
            Domain.join
              (Domain.spawn (fun () -> List.iter (Telemetry.record s) batch)))
        batches;
      let all = List.concat batches in
      let n, mean, variance, mn, mx, total = reference all in
      match Profile.stats s with
      | None -> QCheck.Test.fail_report "populated site reported None"
      | Some st ->
        if st.Profile.count <> n then
          QCheck.Test.fail_reportf "count %d, want %d" st.Profile.count n
        else if not (close st.Profile.mean mean) then
          QCheck.Test.fail_reportf "mean %.17g, want %.17g" st.Profile.mean
            mean
        else if not (close ~rel:1e-6 st.Profile.variance variance) then
          QCheck.Test.fail_reportf "variance %.17g, want %.17g"
            st.Profile.variance variance
        else if st.Profile.min <> mn || st.Profile.max <> mx then
          QCheck.Test.fail_reportf "min/max %.17g/%.17g, want %.17g/%.17g"
            st.Profile.min st.Profile.max mn mx
        else if not (close st.Profile.total total) then
          QCheck.Test.fail_reportf "total %.17g, want %.17g" st.Profile.total
            total
        else true)

(* -- unit: site table edge cases --------------------------------------- *)

let test_unrecorded_site () =
  with_profile @@ fun () ->
  let s = Telemetry.site (fresh "silent") in
  Alcotest.(check bool) "no stats" true (Profile.stats s = None);
  Alcotest.(check bool)
    "percentile is nan" true
    (Float.is_nan (Profile.percentile s 0.5));
  Alcotest.(check bool)
    "absent from sites ()" true
    (not (List.mem_assoc (Telemetry.site_name s) (Profile.sites ())))

let test_interning_idempotent () =
  with_profile @@ fun () ->
  let name = fresh "intern" in
  let a = Telemetry.site name and b = Telemetry.site name in
  Alcotest.(check string) "same name" (Telemetry.site_name a)
    (Telemetry.site_name b);
  Telemetry.record a 10.0;
  Telemetry.record b 20.0;
  (* both handles feed one accumulator *)
  match Profile.stats a with
  | None -> Alcotest.fail "no stats after recording"
  | Some st ->
    Alcotest.(check int) "one site, two samples" 2 st.Profile.count;
    Alcotest.(check (float 1e-9)) "total" 30.0 st.Profile.total

let test_disabled_records_nothing () =
  Profile.reset ();
  Profile.set_enabled false;
  let s = Telemetry.site (fresh "disabled") in
  let t0 = Telemetry.start () in
  Alcotest.(check int) "start returns 0 when disabled" 0 t0;
  let v = Sys.opaque_identity 17.0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Telemetry.stop (Telemetry.start ()) s;
    Telemetry.record s v
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "allocated %.0f minor words" words)
    true (words < 256.0);
  Alcotest.(check bool) "nothing recorded" true (Profile.stats s = None)

let test_high_id_growth () =
  with_profile @@ fun () ->
  let early = Telemetry.site (fresh "early") in
  Telemetry.record early 5.0;
  (* force the per-domain accumulator array to grow well past its
     initial capacity, then record on the last (highest-id) site *)
  let late = ref early in
  for i = 1 to 200 do
    late := Telemetry.site (fresh (Printf.sprintf "grow%d" i))
  done;
  Telemetry.record !late 7.0;
  (match Profile.stats !late with
   | None -> Alcotest.fail "high-id site lost its sample"
   | Some st -> Alcotest.(check int) "high-id count" 1 st.Profile.count);
  match Profile.stats early with
  | None -> Alcotest.fail "growth dropped an earlier site's samples"
  | Some st -> Alcotest.(check (float 1e-9)) "early total" 5.0 st.Profile.total

let test_percentile_clamped () =
  with_profile @@ fun () ->
  let s = Telemetry.site (fresh "pct") in
  (* 9 fast samples and 1 slow one land in distant log2 buckets *)
  for _ = 1 to 9 do
    Telemetry.record s 100.0
  done;
  Telemetry.record s 10000.0;
  let p0 = Profile.percentile s 0.0
  and p50 = Profile.percentile s 0.5
  and p100 = Profile.percentile s 1.0 in
  Alcotest.(check (float 1e-9)) "p0 clamps to min" 100.0 p0;
  Alcotest.(check (float 1e-9)) "p100 clamps to max" 10000.0 p100;
  Alcotest.(check bool) "p50 within observed range" true
    (p50 >= 100.0 && p50 <= 10000.0)

let test_reset_keeps_interning () =
  with_profile @@ fun () ->
  let name = fresh "reset" in
  let s = Telemetry.site name in
  Telemetry.record s 42.0;
  Profile.reset ();
  Alcotest.(check bool) "samples dropped" true (Profile.stats s = None);
  (* the interned site survives and records again after reset *)
  let s' = Telemetry.site name in
  Telemetry.record s' 8.0;
  match Profile.stats s with
  | None -> Alcotest.fail "site unusable after reset"
  | Some st ->
    Alcotest.(check int) "fresh count" 1 st.Profile.count;
    Alcotest.(check (float 1e-9)) "fresh total" 8.0 st.Profile.total

let () =
  Alcotest.run "profile"
    [ ("properties", Qc_replay.to_alcotest_list [ prop_merged_welford ]);
      ( "sites",
        [ Alcotest.test_case "unrecorded site reports nothing" `Quick
            test_unrecorded_site;
          Alcotest.test_case "interning is idempotent" `Quick
            test_interning_idempotent;
          Alcotest.test_case "disabled path records and allocates nothing"
            `Quick test_disabled_records_nothing;
          Alcotest.test_case "late high-id site forces table growth" `Quick
            test_high_id_growth;
          Alcotest.test_case "percentiles clamp to observed extremes" `Quick
            test_percentile_clamped;
          Alcotest.test_case "reset drops samples, keeps interning" `Quick
            test_reset_keeps_interning ] ) ]
