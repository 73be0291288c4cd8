(* Self-tests for the benchmark's own arithmetic: nearest-rank
   percentiles with +inf failures and sample counts, Python-compatible
   quartiles, the nearest-in-time median behind the host-speed
   normalization, span self time and the per-op unaccounted remainder on
   synthetic span trees, and reproducibility of the Poisson schedule
   from a seed.  Exits non-zero on the first failed check. *)

let checks = ref 0

let check name ok =
  incr checks;
  if not ok then begin
    Printf.printf "FAIL %s\n" name;
    exit 1
  end

let close a b = Float.abs (a -. b) <= 1e-12 *. Float.max 1.0 (Float.abs b)

let percentiles () =
  let xs = List.init 10 (fun i -> float_of_int (10 - i)) in
  check "p50 of 1..10" (Kit.percentile xs 50.0 = 5.0);
  check "p90 of 1..10" (Kit.percentile xs 90.0 = 9.0);
  check "p99 of 1..10" (Kit.percentile xs 99.0 = 10.0);
  check "p0 is the minimum" (Kit.percentile xs 0.0 = 1.0);
  check "p10 of 1..10" (Kit.percentile xs 10.0 = 1.0);
  check "p10 of 1..20" (Kit.percentile (List.init 20 float_of_int) 10.0 = 1.0);
  check "p5 of 0..99 is the fifth smallest"
    (Kit.percentile (List.init 100 float_of_int) 5.0 = 4.0);
  check "p5 ignores failures in the tail"
    (Kit.percentile (infinity :: List.init 99 float_of_int) 5.0 = 4.0);
  check "median is p50" (Kit.median xs = 5.0);
  check "empty is nan" (Float.is_nan (Kit.percentile [] 50.0));
  let failed = [ 1.0; 2.0; infinity; 3.0 ] in
  check "failure sorts last" (Kit.percentile failed 50.0 = 2.0);
  check "tail reaches the failure" (Kit.percentile failed 99.0 = infinity);
  let thousand = List.init 1000 float_of_int in
  check "p99 of 1000 samples" (Kit.percentile thousand 99.0 = 989.0);
  check "ten samples beyond p99 of 1000" (Kit.beyond ~n:1000 99.0 = 10);
  check "one sample beyond p99 of 100" (Kit.beyond ~n:100 99.0 = 1);
  check "none beyond p99 of 99" (Kit.beyond ~n:99 99.0 = 0);
  let one_failure = infinity :: List.init 999 float_of_int in
  check "one failure in 1000 leaves p99 finite"
    (Kit.percentile one_failure 99.0 = 989.0);
  let many = List.init 11 (fun _ -> infinity) @ List.init 989 float_of_int in
  check "eleven failures in 1000 make p99 infinite"
    (Kit.percentile many 99.0 = infinity)

(* samples at times 0..9 whose values equal their times *)
let nearest () =
  let xs = Array.init 10 (fun i -> (float_of_int i, float_of_int i)) in
  let nm k t = Kit.nearest_median ~k xs t in
  check "nearest 3 around 4.2" (nm 3 4.2 = 4.0);
  check "nearest 4 around 4.6 take 3..6" (nm 4 4.6 = 4.0);
  check "nearest 3 before the first" (nm 3 (-1.0) = 1.0);
  check "nearest 3 after the last" (nm 3 100.0 = 8.0);
  check "k beyond the count takes all" (nm 50 3.0 = 4.0);
  check "exact time is nearest" (nm 1 7.0 = 7.0);
  check "no samples is nan" (Float.is_nan (Kit.nearest_median ~k:3 [||] 1.0));
  let slow = Array.init 10 (fun i -> (float_of_int i, if i < 5 then 1.0 else 2.0)) in
  check "window stays on its side of a step"
    (Kit.nearest_median ~k:3 slow 1.5 = 1.0 && Kit.nearest_median ~k:3 slow 8.0 = 2.0)

(* expected values from Python's statistics.quantiles(data, n=4) *)
let quartiles () =
  let q xs = Kit.quartiles (List.map float_of_int xs) in
  let eq name (a, b, c) (x, y, z) = check name (close a x && close b y && close c z) in
  eq "quartiles 1..10" (q (List.init 10 (fun i -> i + 1))) (2.75, 5.5, 8.25);
  eq "quartiles 1..3" (q [ 3; 1; 2 ]) (1.0, 2.0, 3.0);
  eq "quartiles of two" (q [ 1; 2 ]) (0.75, 1.5, 2.25);
  eq "quartiles 1..5" (q [ 1; 2; 3; 4; 5 ]) (1.5, 3.0, 4.5);
  check "quartiles need two samples"
    (match Kit.quartiles [ 1.0 ] with _ -> false | exception Invalid_argument _ -> true)

let span ?(op = 0) id name parent start stop =
  { Kit.id; name; op; parent; start; stop }

let self_of spans id =
  snd (List.find (fun ((s : Kit.span), _) -> s.Kit.id = id) (Kit.self_times spans))

let spans () =
  (* root [0,100] with a [10,40] (a1 [20,30] inside) and b [50,90] *)
  let tree =
    [ span 0 "op" (-1) 0 100; span 1 "a" 0 10 40; span 2 "a1" 1 20 30;
      span 3 "b" 0 50 90 ]
  in
  check "root self" (self_of tree 0 = 30);
  check "a self" (self_of tree 1 = 20);
  check "leaf self" (self_of tree 2 = 10);
  (match Kit.accounts tree with
   | [ a ] ->
     check "wall" (a.Kit.wall = 100);
     check "unaccounted is the root's self time" (a.Kit.unaccounted = 30);
     check "layers" (a.Kit.layers = [ ("a", 20); ("a1", 10); ("b", 40) ])
   | _ -> check "one op" false);
  (* overlapping children are covered once; a child is clipped to its
     parent *)
  let overlap =
    [ span 0 "op" (-1) 0 10; span 1 "c" 0 0 6; span 2 "c" 0 4 8 ]
  in
  check "overlap covered once" (self_of overlap 0 = 2);
  let outside = [ span 0 "op" (-1) 0 10; span 1 "c" 0 5 15 ] in
  check "child clipped to parent" (self_of outside 0 = 5);
  (* recorder nesting *)
  let r = Kit.recorder () in
  Kit.with_span r ~op:7 "outer" (fun () ->
      Kit.with_span r ~op:7 "inner" (fun () -> ignore (Sys.opaque_identity 0)));
  (match Kit.spans r with
   | [ inner; outer ] ->
     check "inner's parent is outer" (inner.Kit.parent = outer.Kit.id);
     check "outer is a root" (outer.Kit.parent = -1);
     check "inner inside outer"
       (inner.Kit.start >= outer.Kit.start && inner.Kit.stop <= outer.Kit.stop)
   | _ -> check "two spans recorded" false)

(* Property: on random properly nested trees, per op, the layer self
   times plus the unaccounted remainder equal the op's wall time. *)
let span_property () =
  let st = Random.State.make [| 20261016 |] in
  for trial = 1 to 300 do
    let next = ref 0 and acc = ref [] in
    let rec build ~op ~parent ~lo ~hi ~depth =
      let id = !next in
      incr next;
      acc := span ~op id (Printf.sprintf "l%d" (Random.State.int st 4)) parent lo hi :: !acc;
      if depth < 4 && hi - lo > 4 then begin
        let cur = ref lo in
        while !cur < hi - 2 && Random.State.bool st do
          let a = !cur + Random.State.int st (max 1 ((hi - !cur) / 2)) in
          let b = min hi (a + 1 + Random.State.int st (max 1 (hi - a))) in
          if b > a then build ~op ~parent:id ~lo:a ~hi:b ~depth:(depth + 1);
          cur := b
        done
      end
    in
    for op = 0 to 2 do
      let lo = Random.State.int st 1000 in
      build ~op ~parent:(-1) ~lo ~hi:(lo + 1 + Random.State.int st 10_000) ~depth:0
    done;
    List.iter
      (fun (a : Kit.op_account) ->
        let layers = List.fold_left (fun s (_, t) -> s + t) 0 a.Kit.layers in
        check
          (Printf.sprintf "trial %d op %d: layers + unaccounted = wall" trial a.Kit.op_id)
          (layers + a.Kit.unaccounted = a.Kit.wall))
      (Kit.accounts !acc)
  done

let schedule () =
  let weights = [| 3.0; 0.0; 1.0 |] in
  let s seed = Kit.schedule ~seed ~rate:100.0 ~seconds:20.0 ~weights ~tenants:2 in
  let a = s 42 and b = s 42 and c = s 43 in
  check "same seed, same schedule" (a = b);
  check "another seed, another schedule" (a <> c);
  let n = Array.length a in
  check "arrival count near rate x seconds"
    (Float.abs (float_of_int n -. 2000.0) < 5.0 *. sqrt 2000.0);
  let sorted = ref true in
  Array.iteri
    (fun i (x : Kit.arrival) ->
      if i > 0 && x.Kit.at < a.(i - 1).Kit.at then sorted := false)
    a;
  check "arrivals in order" !sorted;
  check "arrivals inside the window"
    (Array.for_all (fun (x : Kit.arrival) -> x.Kit.at >= 0.0 && x.Kit.at < 20.0) a);
  check "zero-weight class never drawn"
    (Array.for_all (fun (x : Kit.arrival) -> x.Kit.cls <> 1) a);
  let c0 = Array.fold_left (fun k (x : Kit.arrival) -> if x.Kit.cls = 0 then k + 1 else k) 0 a in
  check "class shares follow the weights"
    (Float.abs ((float_of_int c0 /. float_of_int n) -. 0.75) < 0.05);
  check "both tenants drawn"
    (Array.exists (fun (x : Kit.arrival) -> x.Kit.tenant = 0) a
    && Array.exists (fun (x : Kit.arrival) -> x.Kit.tenant = 1) a)

let () =
  percentiles ();
  quartiles ();
  nearest ();
  spans ();
  span_property ();
  schedule ();
  Printf.printf "perfbench selftest: %d checks passed\n" !checks
