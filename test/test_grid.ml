open Repro_grid

let check_float = Alcotest.(check (float 1e-12))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_buf_create () =
  let b = Buf.create 10 in
  check_int "len" 10 (Buf.len b);
  for i = 0 to 9 do
    check_float "zeroed" 0.0 (Buf.get b i)
  done

let test_buf_create_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Buf.create: negative length")
    (fun () -> ignore (Buf.create (-1)))

let test_buf_get_set () =
  let b = Buf.create 4 in
  Buf.set b 2 3.5;
  check_float "set/get" 3.5 (Buf.get b 2);
  check_float "unsafe" 3.5 (Buf.unsafe_get b 2)

let test_buf_bounds () =
  let b = Buf.create 4 in
  Alcotest.check_raises "get oob" (Invalid_argument "Buf.get: index out of bounds")
    (fun () -> ignore (Buf.get b 4));
  Alcotest.check_raises "set oob" (Invalid_argument "Buf.set: index out of bounds")
    (fun () -> Buf.set b (-1) 0.0)

let test_buf_fill_blit () =
  let a = Buf.create 5 and b = Buf.create 5 in
  Buf.fill a 2.0;
  Buf.blit ~src:a ~dst:b;
  check_float "blit" 2.0 (Buf.get b 4);
  check_bool "equal" true (Buf.equal a b)

let test_buf_blit_mismatch () =
  let a = Buf.create 5 and b = Buf.create 6 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Buf.blit: length mismatch")
    (fun () -> Buf.blit ~src:a ~dst:b)

let test_buf_sub_blit () =
  let a = Buf.of_array [| 1.; 2.; 3.; 4.; 5. |] in
  let b = Buf.create 5 in
  Buf.sub_blit ~src:a ~src_pos:1 ~dst:b ~dst_pos:2 ~len:3;
  check_float "b2" 2.0 (Buf.get b 2);
  check_float "b4" 4.0 (Buf.get b 4);
  check_float "b0 untouched" 0.0 (Buf.get b 0)

let test_buf_sub_blit_oob () =
  let a = Buf.create 3 and b = Buf.create 3 in
  Alcotest.check_raises "oob"
    (Invalid_argument "Buf.sub_blit: range out of bounds") (fun () ->
      Buf.sub_blit ~src:a ~src_pos:2 ~dst:b ~dst_pos:0 ~len:2)

let test_buf_of_to_array () =
  let xs = [| 0.5; -1.5; 3.25 |] in
  Alcotest.(check (array (float 0.0))) "roundtrip" xs (Buf.to_array (Buf.of_array xs))

let test_buf_copy_independent () =
  let a = Buf.of_array [| 1.; 2. |] in
  let b = Buf.copy a in
  Buf.set b 0 9.0;
  check_float "original untouched" 1.0 (Buf.get a 0)

let test_buf_max_abs_diff () =
  let a = Buf.of_array [| 1.; 2.; 3. |] in
  let b = Buf.of_array [| 1.; 2.5; 2. |] in
  check_float "maxdiff" 1.0 (Buf.max_abs_diff a b);
  check_bool "equal eps" true (Buf.equal ~eps:1.0 a b);
  check_bool "not equal" false (Buf.equal ~eps:0.5 a b)

let test_buf_map_iteri () =
  let a = Buf.of_array [| 1.; 2.; 3. |] in
  Buf.map_inplace (fun x -> x *. 2.0) a;
  check_float "map" 6.0 (Buf.get a 2);
  let sum = ref 0.0 in
  Buf.iteri (fun _ v -> sum := !sum +. v) a;
  check_float "iteri sum" 12.0 !sum

let test_buf_bytes () =
  check_int "bytes" 80 (Buf.bytes (Buf.create 10))

let test_grid_create () =
  let g = Grid.create [| 3; 4 |] in
  check_int "dims" 2 (Grid.dims g);
  Alcotest.(check (array int)) "extents" [| 3; 4 |] (Grid.extents g);
  check_int "points" 12 (Grid.points g)

let test_grid_bad_extents () =
  Alcotest.check_raises "zero extent"
    (Invalid_argument "Grid.create: non-positive extent") (fun () ->
      ignore (Grid.create [| 3; 0 |]))

let test_grid_interior () =
  let g = Grid.interior ~dims:3 4 in
  Alcotest.(check (array int)) "extents" [| 6; 6; 6 |] (Grid.extents g);
  check_int "interior" 4 (Grid.interior_size g)

let test_grid_offset_rowmajor () =
  let g = Grid.create [| 3; 4 |] in
  check_int "offset" ((2 * 4) + 3) (Grid.offset g [| 2; 3 |]);
  Alcotest.check_raises "oob" (Invalid_argument "Grid.offset: index out of bounds")
    (fun () -> ignore (Grid.offset g [| 3; 0 |]))

let test_grid_get_set () =
  let g = Grid.create [| 3; 4 |] in
  Grid.set g [| 1; 2 |] 5.0;
  check_float "get" 5.0 (Grid.get g [| 1; 2 |]);
  check_float "get2" 5.0 (Grid.get2 g 1 2);
  Grid.set2 g 2 3 7.0;
  check_float "set2" 7.0 (Grid.get g [| 2; 3 |])

let test_grid_get3 () =
  let g = Grid.create [| 3; 3; 3 |] in
  Grid.set3 g 1 2 0 4.0;
  check_float "get3" 4.0 (Grid.get g [| 1; 2; 0 |])

let test_grid_fill_interior () =
  let g = Grid.interior ~dims:2 3 in
  Grid.fill g 9.0;
  Grid.fill_interior g ~f:(fun idx -> float_of_int (idx.(0) + idx.(1)));
  check_float "interior" 4.0 (Grid.get g [| 2; 2 |]);
  check_float "ghost untouched" 9.0 (Grid.get g [| 0; 0 |])

let test_grid_fill_all () =
  let g = Grid.interior ~dims:2 2 in
  Grid.fill_all g ~f:(fun _ -> 1.0);
  check_float "ghost covered" 1.0 (Grid.get g [| 0; 3 |])

let test_grid_iter_interior_count () =
  let g = Grid.interior ~dims:3 3 in
  let count = ref 0 in
  Grid.iter_interior g ~f:(fun _ _ -> incr count);
  check_int "27 interior points" 27 !count

let test_grid_copy_blit () =
  let g = Grid.interior ~dims:2 2 in
  Grid.fill_interior g ~f:(fun _ -> 3.0);
  let c = Grid.copy g in
  Grid.fill c 0.0;
  check_float "copy indep" 3.0 (Grid.get g [| 1; 1 |]);
  Grid.blit ~src:g ~dst:c;
  check_float "blit" 3.0 (Grid.get c [| 1; 1 |])

let test_grid_max_abs_diff () =
  let a = Grid.interior ~dims:2 2 in
  let b = Grid.interior ~dims:2 2 in
  Grid.set2 a 1 1 2.0;
  check_float "diff" 2.0 (Grid.max_abs_diff a b)

(* A NaN against a number must surface, never read as agreement: an
   assertion [max_abs_diff a b < eps] on a NaN grid has to fail. *)
let test_max_abs_diff_nan () =
  let a = Grid.interior ~dims:2 4 in
  let b = Grid.interior ~dims:2 4 in
  Grid.set2 a 1 1 Float.nan;
  Grid.set2 a 2 2 5.0;
  check_bool "nan against a number is infinite" true
    (Grid.max_abs_diff a b = Float.infinity);
  check_bool "nan diff fails < eps" false (Grid.max_abs_diff a b < 1e-8);
  check_bool "buf not equal" false (Buf.equal ~eps:1e9 a.Grid.buf b.Grid.buf)

(* Identical buffers agree whatever they hold: ±inf and NaN included. *)
let test_max_abs_diff_self () =
  let g = Buf.of_array [| 1.; Float.infinity; Float.neg_infinity; Float.nan; -0.0 |] in
  check_float "max_abs_diff g g" 0.0 (Buf.max_abs_diff g g);
  check_bool "equal g g" true (Buf.equal g g);
  check_bool "-0.0 equals 0.0" true
    (Buf.equal (Buf.of_array [| -0.0 |]) (Buf.of_array [| 0.0 |]));
  check_bool "inf against -inf differs" false
    (Buf.equal (Buf.of_array [| Float.infinity |])
       (Buf.of_array [| Float.neg_infinity |]))

let test_norms_l2 () =
  let g = Grid.interior ~dims:2 2 in
  Grid.fill_interior g ~f:(fun _ -> 2.0);
  check_float "l2 of constant" 2.0 (Norms.l2 g);
  check_float "linf" 2.0 (Norms.linf g)

let test_norms_ghost_excluded () =
  let g = Grid.interior ~dims:2 2 in
  Grid.fill g 100.0;
  Grid.fill_interior g ~f:(fun _ -> 1.0);
  check_float "ghost excluded" 1.0 (Norms.linf g)

let test_norms_diff () =
  let a = Grid.interior ~dims:2 3 in
  let b = Grid.interior ~dims:2 3 in
  Grid.fill_interior a ~f:(fun _ -> 1.0);
  Grid.fill_interior b ~f:(fun _ -> 4.0);
  check_float "l2 diff" 3.0 (Norms.l2_diff a b);
  check_float "linf diff" 3.0 (Norms.linf_diff a b)

(* property tests *)

let prop_offset_bijective =
  QCheck.Test.make ~name:"grid offsets are distinct (row-major bijection)"
    ~count:50
    QCheck.(pair (int_range 1 6) (int_range 1 6))
    (fun (a, b) ->
      let g = Grid.create [| a; b; 2 |] in
      let seen = Hashtbl.create 16 in
      let ok = ref true in
      for i = 0 to a - 1 do
        for j = 0 to b - 1 do
          for k = 0 to 1 do
            let o = Grid.offset g [| i; j; k |] in
            if Hashtbl.mem seen o then ok := false;
            Hashtbl.replace seen o ()
          done
        done
      done;
      !ok && Hashtbl.length seen = Grid.points g)

let prop_buf_blit_roundtrip =
  QCheck.Test.make ~name:"buf of_array/to_array/copy roundtrip" ~count:100
    QCheck.(array_of_size (Gen.int_range 0 64) (float_range (-1e6) 1e6))
    (fun xs ->
      let b = Buf.of_array xs in
      Buf.to_array (Buf.copy b) = xs)

let prop_l2_scale =
  QCheck.Test.make ~name:"l2 norm scales linearly" ~count:50
    QCheck.(float_range 0.1 10.0)
    (fun s ->
      let g = Grid.interior ~dims:2 5 in
      Grid.fill_interior g ~f:(fun idx -> float_of_int idx.(0));
      let n1 = Norms.l2 g in
      Grid.fill_interior g ~f:(fun idx -> s *. float_of_int idx.(0));
      let n2 = Norms.l2 g in
      Float.abs (n2 -. (s *. n1)) < 1e-9 *. n2)

let () =
  Alcotest.run "grid"
    [ ( "buf",
        [ Alcotest.test_case "create zeroed" `Quick test_buf_create;
          Alcotest.test_case "create negative" `Quick test_buf_create_negative;
          Alcotest.test_case "get/set" `Quick test_buf_get_set;
          Alcotest.test_case "bounds" `Quick test_buf_bounds;
          Alcotest.test_case "fill/blit" `Quick test_buf_fill_blit;
          Alcotest.test_case "blit mismatch" `Quick test_buf_blit_mismatch;
          Alcotest.test_case "sub_blit" `Quick test_buf_sub_blit;
          Alcotest.test_case "sub_blit oob" `Quick test_buf_sub_blit_oob;
          Alcotest.test_case "of/to array" `Quick test_buf_of_to_array;
          Alcotest.test_case "copy independent" `Quick test_buf_copy_independent;
          Alcotest.test_case "max_abs_diff" `Quick test_buf_max_abs_diff;
          Alcotest.test_case "map/iteri" `Quick test_buf_map_iteri;
          Alcotest.test_case "bytes" `Quick test_buf_bytes ] );
      ( "grid",
        [ Alcotest.test_case "create" `Quick test_grid_create;
          Alcotest.test_case "bad extents" `Quick test_grid_bad_extents;
          Alcotest.test_case "interior" `Quick test_grid_interior;
          Alcotest.test_case "row-major offset" `Quick test_grid_offset_rowmajor;
          Alcotest.test_case "get/set" `Quick test_grid_get_set;
          Alcotest.test_case "get3/set3" `Quick test_grid_get3;
          Alcotest.test_case "fill_interior" `Quick test_grid_fill_interior;
          Alcotest.test_case "fill_all" `Quick test_grid_fill_all;
          Alcotest.test_case "iter_interior" `Quick test_grid_iter_interior_count;
          Alcotest.test_case "copy/blit" `Quick test_grid_copy_blit;
          Alcotest.test_case "max_abs_diff" `Quick test_grid_max_abs_diff;
          Alcotest.test_case "max_abs_diff NaN" `Quick test_max_abs_diff_nan;
          Alcotest.test_case "max_abs_diff self" `Quick test_max_abs_diff_self ] );
      ( "norms",
        [ Alcotest.test_case "l2/linf" `Quick test_norms_l2;
          Alcotest.test_case "ghost excluded" `Quick test_norms_ghost_excluded;
          Alcotest.test_case "diff norms" `Quick test_norms_diff ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_offset_bijective; prop_buf_blit_roundtrip; prop_l2_scale ] ) ]
