(* Seed-replayable QCheck runner for the property suites.

   Every property executable draws its generator randomness from one
   seed: $QCHECK_SEED when set, otherwise a fresh random seed.  On any
   property failure the seed and a one-line replay command are printed,
   so counterexamples (already minimized by the arbitraries' shrinkers)
   are reproducible across machines and CI runs.  $QCHECK_LONG switches
   the properties to their long mode (QCheck's ~long_factor). *)

let seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some i -> i
    | None -> failwith "QCHECK_SEED must be an integer")
  | None ->
    Random.self_init ();
    Random.int 1_000_000_000

let long = Sys.getenv_opt "QCHECK_LONG" <> None

let rand () = Random.State.make [| seed |]

(* the executable's own dune path, e.g. [test/test_native.exe] or
   [bench/conformance.exe] *)
let replay_hint () =
  let exe = Sys.executable_name in
  Printf.sprintf "QCHECK_SEED=%d dune exec %s/%s" seed
    (Filename.basename (Filename.dirname exe))
    (Filename.basename exe)

let to_alcotest test =
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~long ~rand:(rand ()) test
  in
  ( name,
    speed,
    fun () ->
      try run ()
      with e ->
        Printf.eprintf "\n[qcheck] property failed under seed %d\n[qcheck] replay: %s\n%!"
          seed (replay_hint ());
        raise e )

let to_alcotest_list tests = List.map to_alcotest tests
