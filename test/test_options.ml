open Repro_core

let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let test_presets_features () =
  check_bool "naive no fuse" false Options.naive.Options.fuse;
  check_bool "naive no pool" false Options.naive.Options.pool;
  check_bool "opt fuses" true Options.opt.Options.fuse;
  check_bool "opt no scratch reuse" false Options.opt.Options.scratch_reuse;
  check_bool "opt+ scratch reuse" true Options.opt_plus.Options.scratch_reuse;
  check_bool "opt+ array reuse" true Options.opt_plus.Options.array_reuse;
  check_bool "opt+ pool" true Options.opt_plus.Options.pool;
  (match Options.dtile_opt_plus.Options.smoother with
   | Options.Diamond_smoother { sigma } -> check_bool "sigma" true (sigma > 0)
   | Options.Overlapped_smoother | Options.Skewed_smoother _ ->
     Alcotest.fail "dtile must use diamond")

let test_variant_of_string () =
  List.iter
    (fun (s, expect_name) ->
      match Options.variant_of_string s with
      | Some o -> check_str s expect_name (Options.name o)
      | None -> Alcotest.failf "unparsed %s" s)
    [ ("naive", "naive"); ("opt", "opt"); ("opt+", "opt+");
      ("dtile-opt+", "dtile-opt+") ];
  check_bool "unknown" true (Options.variant_of_string "turbo" = None)

let test_name_custom () =
  let o = { Options.opt_plus with Options.pool = false } in
  check_str "custom" "custom" (Options.name o)

let test_with_tiles () =
  let o = Options.with_tiles Options.opt ~t2:[| 7; 7 |] ~t3:[| 3; 3; 3 |] in
  Alcotest.(check (array int)) "t2" [| 7; 7 |] o.Options.tile_2d;
  Alcotest.(check (array int)) "t3" [| 3; 3; 3 |] o.Options.tile_3d;
  check_bool "other fields kept" true (o.Options.fuse = Options.opt.Options.fuse)

let test_pp_smoke () =
  let s = Format.asprintf "%a" Options.pp Options.dtile_opt_plus in
  check_bool "mentions diamond" true
    (String.length s > 0
     && (let rec go i =
           i + 7 <= String.length s && (String.sub s i 7 = "diamond" || go (i + 1))
         in
         go 0))

(* One change to each field of [o].  The pattern names every field of
   [Options.t], so a new field fails to compile here (warning 9) until it
   gets a line of its own. *)
let one_field_changes
    ({ Options.fuse; tile_2d; tile_3d; group_size_limit; scratch_reuse;
       array_reuse; pool; smoother; check_plan; mem_budget; deadline;
       backend } as o) =
  let twice = Array.map (fun x -> 2 * x) in
  [ ("fuse", { o with Options.fuse = not fuse });
    ("tile_2d", { o with Options.tile_2d = twice tile_2d });
    ("tile_3d", { o with Options.tile_3d = twice tile_3d });
    ("group_size_limit",
     { o with Options.group_size_limit = group_size_limit + 1 });
    ("scratch_reuse", { o with Options.scratch_reuse = not scratch_reuse });
    ("array_reuse", { o with Options.array_reuse = not array_reuse });
    ("pool", { o with Options.pool = not pool });
    ( "smoother",
      { o with
        Options.smoother =
          (match smoother with
           | Options.Overlapped_smoother ->
             Options.Diamond_smoother { sigma = 16 }
           | Options.Diamond_smoother _ | Options.Skewed_smoother _ ->
             Options.Overlapped_smoother) } );
    ("check_plan", { o with Options.check_plan = not check_plan });
    ( "mem_budget",
      { o with
        Options.mem_budget = Some (1 + Option.value mem_budget ~default:0) } );
    ( "deadline",
      { o with
        Options.deadline = Some (1.0 +. Option.value deadline ~default:0.0) }
    );
    ( "backend",
      { o with
        Options.backend =
          (if backend = Options.Native then Options.Interp else Options.Native)
      } ) ]

let test_fingerprint_covers_fields () =
  List.iter
    (fun base ->
      let fp = Options.fingerprint base in
      check_str "deterministic" fp (Options.fingerprint base);
      List.iter
        (fun (field, o) -> check_bool field true (Options.fingerprint o <> fp))
        (one_field_changes base))
    [ Options.naive; Options.opt_plus; Options.dtile_opt_plus ];
  let smoother s =
    Options.fingerprint { Options.opt_plus with Options.smoother = s }
  in
  check_bool "sigma" true
    (smoother (Options.Diamond_smoother { sigma = 8 })
     <> smoother (Options.Diamond_smoother { sigma = 16 }));
  check_bool "skewed tau" true
    (smoother (Options.Skewed_smoother { tau = 2; sigma = 8 })
     <> smoother (Options.Skewed_smoother { tau = 4; sigma = 8 }))

(* What only governs how a plan runs stays out of its digest. *)
let test_digest_ignores_run_fields () =
  let cfg =
    Repro_mg.Cycle.default ~dims:2 ~shape:Repro_mg.Cycle.V ~smoothing:(4, 4, 4)
  in
  let pipeline = Repro_mg.Cycle.build cfg and n = 32 in
  let digest opts =
    Plan.digest
      (Plan.build pipeline ~opts ~n ~params:(Repro_mg.Cycle.params cfg ~n))
  in
  let base = digest Options.opt_plus in
  List.iter
    (fun (field, o) ->
      match field with
      | "check_plan" | "mem_budget" | "deadline" | "backend" ->
        check_str field base (digest o)
      | _ -> ())
    (one_field_changes Options.opt_plus);
  check_bool "a plan-shaping field enters" true
    (digest { Options.opt_plus with Options.group_size_limit = 2 } <> base)

let () =
  Alcotest.run "options"
    [ ( "unit",
        [ Alcotest.test_case "preset features" `Quick test_presets_features;
          Alcotest.test_case "variant_of_string" `Quick test_variant_of_string;
          Alcotest.test_case "custom name" `Quick test_name_custom;
          Alcotest.test_case "with_tiles" `Quick test_with_tiles;
          Alcotest.test_case "pp" `Quick test_pp_smoke ] );
      ( "identity",
        [ Alcotest.test_case "fingerprint covers fields" `Quick
            test_fingerprint_covers_fields;
          Alcotest.test_case "digest ignores run fields" `Quick
            test_digest_ignores_run_fields ] ) ]
