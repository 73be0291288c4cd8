(* The auto-tuner of §3.2.4 as a command line over Repro_mg.Tune: sweeps
   the paper's power-of-two tile ranges crossed with grouping limits for
   one benchmark and reports every configuration plus the best (Fig. 12
   data).  Example: autotune --dims 2 --cycle V --smoothing 10,0,0 -n 1024

   Exits 0 when swept, 1 when no configuration could be built, 2 on a
   benchmark Cycle.check rejects (as mg_solve does), 124 on a malformed
   option. *)

open Cmdliner
open Repro_mg

let fail msg =
  prerr_endline ("autotune: " ^ msg);
  exit 2

let parsed what = function Some v -> v | None -> fail what

let run dims cycle smoothing n variant limits =
  Gc.set
    { (Gc.get ()) with
      Gc.custom_major_ratio = 10000;
      Gc.custom_minor_ratio = 10000 };
  let shape =
    parsed "cycle must be V, W or F"
      (Cycle.shape_of_string (String.uppercase_ascii cycle))
  in
  let cfg = Cycle.default ~dims ~shape ~smoothing in
  Result.iter_error fail (Cycle.check cfg ~n ~cycles:1);
  let base =
    parsed ("unknown variant " ^ variant)
      (Repro_core.Options.variant_of_string variant)
  in
  let space = Tune.space base ~dims ~limits in
  let problem = Problem.poisson_random ~dims ~n ~seed:11 in
  let make opts ~rt = Solver.polymg_stepper cfg ~n ~opts ~rt in
  Printf.printf "autotuning %s N=%d variant=%s: %d configurations\n%!"
    (Cycle.bench_name cfg) n variant (List.length space);
  let rows =
    List.map
      (fun opts ->
        let t = Tune.time ~make problem opts in
        Printf.printf "  %-28s %10.4f s/cycle\n%!" (Tune.label ~dims opts)
          (Option.value t ~default:Float.nan);
        (opts, t))
      space
  in
  match Tune.best rows with
  | Some (opts, t) ->
    Printf.printf "best: %s  (%.4f s/cycle)\n" (Tune.label ~dims opts) t
  | None ->
    prerr_endline "autotune: no configuration could be built";
    exit 1

let dims_t = Arg.(value & opt int 2 & info [ "dims" ] ~doc:"Grid rank.")
let cycle_t = Arg.(value & opt string "V" & info [ "cycle" ] ~doc:"V, W or F.")

let smoothing_t =
  Arg.(
    value
    & opt (t3 ~sep:',' int int int) (10, 0, 0)
    & info [ "smoothing" ] ~doc:"n1,n2,n3.")

let n_t = Arg.(value & opt int 512 & info [ "n"; "size" ] ~doc:"Problem size N.")

let variant_t =
  Arg.(value & opt string "opt+" & info [ "variant" ] ~doc:"Optimizer preset.")

let limits_t =
  Arg.(
    value
    & opt (list ~sep:',' int) [ 1; 2; 4; 6; 8 ]
    & info [ "limits" ] ~doc:"Comma-separated grouping limits to sweep.")

let cmd =
  let doc = "auto-tune PolyMG tile sizes and grouping limits" in
  Cmd.v
    (Cmd.info "autotune" ~doc)
    Term.(
      const run $ dims_t $ cycle_t $ smoothing_t $ n_t $ variant_t $ limits_t)

let () = exit (Cmd.eval cmd)
