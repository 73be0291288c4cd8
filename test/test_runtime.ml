open Repro_runtime
module Buf = Repro_grid.Buf

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_parallel_sequential_sum () =
  let acc = Atomic.make 0 in
  Parallel.parallel_for Parallel.sequential ~lo:1 ~hi:100 (fun i ->
      ignore (Atomic.fetch_and_add acc i));
  check_int "sum" 5050 (Atomic.get acc)

let test_parallel_empty_range () =
  let hit = ref false in
  Parallel.parallel_for Parallel.sequential ~lo:5 ~hi:4 (fun _ -> hit := true);
  check_bool "no calls" false !hit

let test_parallel_pool_sum () =
  let pool = Parallel.create 3 in
  check_int "size" 3 (Parallel.size pool);
  let acc = Atomic.make 0 in
  Parallel.parallel_for pool ~lo:1 ~hi:1000 (fun i ->
      ignore (Atomic.fetch_and_add acc i));
  check_int "sum" 500500 (Atomic.get acc);
  (* pool is reusable *)
  let acc2 = Atomic.make 0 in
  Parallel.parallel_for pool ~lo:0 ~hi:9 (fun _ ->
      ignore (Atomic.fetch_and_add acc2 1));
  check_int "reuse" 10 (Atomic.get acc2);
  Parallel.teardown pool

let test_parallel_each_index_once () =
  let pool = Parallel.create 2 in
  let counts = Array.make 64 0 in
  let m = Mutex.create () in
  Parallel.parallel_for pool ~lo:0 ~hi:63 (fun i ->
      Mutex.lock m;
      counts.(i) <- counts.(i) + 1;
      Mutex.unlock m);
  Parallel.teardown pool;
  Array.iter (fun c -> check_int "once" 1 c) counts

let test_parallel_exception () =
  let pool = Parallel.create 2 in
  (try
     Parallel.parallel_for pool ~lo:0 ~hi:10 (fun i ->
         if i = 5 then failwith "boom");
     Alcotest.fail "expected exception"
   with Failure msg -> check_bool "msg" true (msg = "boom"));
  (* pool still usable after the failure *)
  let acc = Atomic.make 0 in
  Parallel.parallel_for pool ~lo:0 ~hi:3 (fun _ ->
      ignore (Atomic.fetch_and_add acc 1));
  check_int "after exception" 4 (Atomic.get acc);
  Parallel.teardown pool

let test_parallel_nested_inline () =
  let pool = Parallel.create 2 in
  let acc = Atomic.make 0 in
  Parallel.parallel_for pool ~lo:0 ~hi:3 (fun _ ->
      Parallel.parallel_for pool ~lo:0 ~hi:3 (fun _ ->
          ignore (Atomic.fetch_and_add acc 1)));
  check_int "nested" 16 (Atomic.get acc);
  Parallel.teardown pool

let test_parallel_create_invalid () =
  Alcotest.check_raises "zero" (Invalid_argument "Parallel.create: pool size must be >= 1")
    (fun () -> ignore (Parallel.create 0))

let test_mempool_basic () =
  let p = Mempool.create () in
  let b1 = Mempool.acquire p 100 in
  check_bool "len" true (Buf.len b1 >= 100);
  check_int "live" 1 (Mempool.live_count p);
  Mempool.release p b1;
  check_int "released" 0 (Mempool.live_count p);
  (* the freed buffer is reused *)
  let b2 = Mempool.acquire p 80 in
  check_bool "reused" true (b1 == b2);
  let s = Mempool.stats p in
  check_int "fresh" 1 s.Mempool.fresh_allocs;
  check_int "hits" 1 s.Mempool.reuse_hits

let test_mempool_best_fit () =
  let p = Mempool.create () in
  let small = Mempool.acquire p 10 in
  let big = Mempool.acquire p 1000 in
  Mempool.release p small;
  Mempool.release p big;
  (* a request for 10 must take the small buffer, not the big one *)
  let got = Mempool.acquire p 10 in
  check_bool "best fit" true (got == small)

let test_mempool_no_fit_allocates () =
  let p = Mempool.create () in
  let b1 = Mempool.acquire p 10 in
  Mempool.release p b1;
  let b2 = Mempool.acquire p 20 in
  check_bool "fresh" true (not (b1 == b2));
  check_int "fresh count" 2 (Mempool.stats p).Mempool.fresh_allocs

(* A free buffer serves only a request more than half its length: a
   coarse request must not hold a fine grid's buffer. *)
let test_mempool_no_long_fit () =
  let p = Mempool.create () in
  let b = Mempool.acquire p 100 in
  Mempool.release p b;
  let short = Mempool.acquire p 50 in
  check_bool "twice the request: fresh" true (not (short == b));
  let got = Mempool.acquire p 51 in
  check_bool "under twice the request: reused" true (got == b);
  check_int "fresh count" 2 (Mempool.stats p).Mempool.fresh_allocs

let test_mempool_double_release () =
  let p = Mempool.create () in
  let b = Mempool.acquire p 10 in
  Mempool.release p b;
  (* the diagnostic names the buffer size and how often it was handed out *)
  Alcotest.check_raises "double"
    (Invalid_argument
       "Mempool.release: double release of a 10-element buffer (acquired 1 \
        times from this pool)") (fun () -> Mempool.release p b)

let test_mempool_foreign_release () =
  let p = Mempool.create () in
  let b = Buf.create 10 in
  Alcotest.check_raises "foreign"
    (Invalid_argument "Mempool.release: buffer not from this pool (or stale view)")
    (fun () -> Mempool.release p b)

let test_mempool_stats_bytes () =
  let p = Mempool.create () in
  let b1 = Mempool.acquire p 100 in
  let _b2 = Mempool.acquire p 50 in
  let s = Mempool.stats p in
  check_int "live bytes" (8 * 150) s.Mempool.live_bytes;
  check_int "peak" (8 * 150) s.Mempool.peak_live_bytes;
  Mempool.release p b1;
  let s = Mempool.stats p in
  check_int "after release" (8 * 50) s.Mempool.live_bytes;
  check_int "peak sticky" (8 * 150) s.Mempool.peak_live_bytes;
  check_int "pool bytes" (8 * 150) s.Mempool.pool_bytes

let test_mempool_clear () =
  let p = Mempool.create () in
  ignore (Mempool.acquire p 10);
  Mempool.clear p;
  check_int "cleared" 0 (Mempool.stats p).Mempool.fresh_allocs

(* End-to-end pooling check (paper §3.2.3): every full-array request of
   the second cycle must be served from the pool.  Fresh allocations are
   exact-size and best-fit matching is deterministic, so the acquire
   sequence of cycle 2 replays cycle 1 with hits only. *)
let test_mempool_solver_two_cycles () =
  let module Cycle = Repro_mg.Cycle in
  let module Solver = Repro_mg.Solver in
  let module Problem = Repro_mg.Problem in
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
  let n = Cycle.min_n cfg * 16 in
  Repro_core.Exec.with_runtime @@ fun rt ->
  let stepper =
    Solver.polymg_stepper cfg ~n ~opts:Repro_core.Options.opt_plus ~rt
  in
  let problem = Problem.poisson ~dims:2 ~n in
  ignore (Solver.iterate stepper ~problem ~cycles:1 ~residuals:false ());
  let s1 = Mempool.stats rt.Repro_core.Exec.pool in
  check_bool "cycle 1 allocates" true (s1.Mempool.fresh_allocs > 0);
  ignore (Solver.iterate stepper ~problem ~cycles:1 ~residuals:false ());
  let s2 = Mempool.stats rt.Repro_core.Exec.pool in
  check_int "no fresh allocations in cycle 2" s1.Mempool.fresh_allocs
    s2.Mempool.fresh_allocs;
  check_int "cycle 2 is 100% pool hits"
    ((2 * s1.Mempool.reuse_hits) + s1.Mempool.fresh_allocs)
    s2.Mempool.reuse_hits

(* -- poison / canary mode ----------------------------------------------- *)

let test_poison_fresh_is_snan () =
  Mempool.with_pool ~poison:true @@ fun p ->
  check_bool "poisoned" true (Mempool.poisoned p);
  let b = Mempool.acquire p 16 in
  check_int "view is exactly the request" 16 (Buf.len b);
  for i = 0 to 15 do
    check_bool "snan" true (Float.is_nan (Buf.get b i))
  done;
  Mempool.release p b

let test_poison_stale_reuse_is_snan () =
  Mempool.with_pool ~poison:true @@ fun p ->
  let b = Mempool.acquire p 16 in
  Buf.fill b 1.0;
  Mempool.release p b;
  (* reuse hands the same storage back, but the old values must be gone *)
  let b2 = Mempool.acquire p 16 in
  for i = 0 to 15 do
    check_bool "stale data unreadable" true (Float.is_nan (Buf.get b2 i))
  done;
  Mempool.release p b2

let contains msg needle =
  let nl = String.length needle and ml = String.length msg in
  let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
  go 0

let test_poison_guard_clobber_detected () =
  Mempool.with_pool ~poison:true @@ fun p ->
  let b = Mempool.acquire p 16 in
  (* simulate an out-of-bounds tile write: the view is 16 elements, but
     unsafe writes past it land in the guard words of the raw buffer *)
  Buf.unsafe_set b 16 42.0;
  match Mempool.release p b with
  | () -> Alcotest.fail "clobbered guard word not detected"
  | exception Invalid_argument msg ->
    check_bool "names the guard word" true
      (contains msg "guard word 0 past a 16-element buffer")

let test_with_buf_releases_on_exception () =
  Mempool.with_pool ~poison:true @@ fun p ->
  (try
     Mempool.with_buf p 8 (fun _ -> failwith "boom")
   with Failure _ -> ());
  check_int "released on exception" 0 (Mempool.live_count p);
  (* and the buffer went back through the poisoning release path *)
  let b = Mempool.acquire p 8 in
  check_bool "repoisoned" true (Float.is_nan (Buf.get b 0))

let test_plain_pool_unpoisoned () =
  Mempool.with_pool @@ fun p ->
  check_bool "not poisoned" false (Mempool.poisoned p);
  let b = Mempool.acquire p 16 in
  check_int "no guard overhead in view" 16 (Buf.len b);
  Mempool.release p b

let prop_pool_serves_cycles =
  QCheck.Test.make
    ~name:"pooled acquire/release across cycles allocates once per slot"
    ~count:50
    QCheck.(pair (int_range 1 8) (int_range 2 6))
    (fun (buffers, cycles) ->
      let p = Mempool.create () in
      for _ = 1 to cycles do
        let bs = List.init buffers (fun i -> Mempool.acquire p ((i + 1) * 16)) in
        List.iter (Mempool.release p) bs
      done;
      (Mempool.stats p).Mempool.fresh_allocs = buffers)

let () =
  Alcotest.run "runtime"
    [ ( "parallel",
        [ Alcotest.test_case "sequential sum" `Quick test_parallel_sequential_sum;
          Alcotest.test_case "empty range" `Quick test_parallel_empty_range;
          Alcotest.test_case "pool sum" `Quick test_parallel_pool_sum;
          Alcotest.test_case "each index once" `Quick test_parallel_each_index_once;
          Alcotest.test_case "exception propagates" `Quick test_parallel_exception;
          Alcotest.test_case "nested inline" `Quick test_parallel_nested_inline;
          Alcotest.test_case "invalid size" `Quick test_parallel_create_invalid ] );
      ( "mempool",
        [ Alcotest.test_case "acquire/release" `Quick test_mempool_basic;
          Alcotest.test_case "best fit" `Quick test_mempool_best_fit;
          Alcotest.test_case "no fit" `Quick test_mempool_no_fit_allocates;
          Alcotest.test_case "double release" `Quick test_mempool_double_release;
          Alcotest.test_case "foreign release" `Quick test_mempool_foreign_release;
          Alcotest.test_case "stats" `Quick test_mempool_stats_bytes;
          Alcotest.test_case "clear" `Quick test_mempool_clear;
          Alcotest.test_case "solver two cycles" `Quick
            test_mempool_solver_two_cycles;
          Alcotest.test_case "no buffer twice the request" `Quick
            test_mempool_no_long_fit ] );
      ( "poison",
        [ Alcotest.test_case "fresh buffers are signaling NaN" `Quick
            test_poison_fresh_is_snan;
          Alcotest.test_case "stale data unreadable after reuse" `Quick
            test_poison_stale_reuse_is_snan;
          Alcotest.test_case "guard-word clobber detected" `Quick
            test_poison_guard_clobber_detected;
          Alcotest.test_case "with_buf releases on exception" `Quick
            test_with_buf_releases_on_exception;
          Alcotest.test_case "plain pool unpoisoned" `Quick
            test_plain_pool_unpoisoned ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_pool_serves_cycles ] ) ]
