(* Snapshot container and checkpoint-store tests.

   Properties (Qc_replay, seed-replayable): the polymg.snapshot/1
   container round-trips metadata and payloads bit-identically, and any
   single-byte corruption, truncation, or trailing garbage makes [read]
   reject the file — the CRC framing never deserializes a torn write.
   The C CRC equals the byte-at-a-time definition on any range and under
   [?crc] chaining, the one-pass writer produces the same bytes as the
   original Buffer-based writer (both kept verbatim below as oracles),
   and the C grid codec encodes and decodes a sub-view's own range only.
   Unit tests cover the CRC test vector, an empty grid, a checkpoint
   written by the original writer (test/fixtures), the writer's
   allocation, atomic replacement, generation rotation (the newest good
   generation is never deleted; the retired one is recycled as the spare
   file, never through a directory, symlink or hard link), corrupt-
   generation fallback, metadata the loader must reject, the prune
   counter, the deadline-aware cadence clamp, and the sink's
   deferred-flush copy semantics. *)

open Repro_mg
module Grid = Repro_grid.Grid
module Buf = Repro_grid.Buf
module Snapshot = Repro_runtime.Snapshot
module Json = Repro_runtime.Json
module Telemetry = Repro_runtime.Telemetry

let tmpdir = "snapshot-test-tmp"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if parent <> d then mkdir_p parent;
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let fresh =
  let k = ref 0 in
  fun name ->
    incr k;
    mkdir_p tmpdir;
    Filename.concat tmpdir (Printf.sprintf "%s-%d" name !k)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

(* -- oracles: the original byte-wise CRC, grid codec and writer ------- *)

let oracle_crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let oracle_crc32 ?(crc = 0) s =
  let table = Lazy.force oracle_crc_table in
  let c = ref (crc lxor 0xFFFFFFFF) in
  String.iter
    (fun ch ->
      c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF

let oracle_payload_of_buf buf =
  let len = Buf.len buf in
  let b = Bytes.create (8 * len) in
  for i = 0 to len - 1 do
    Bytes.set_int64_le b (8 * i) (Int64.bits_of_float (Buf.unsafe_get buf i))
  done;
  Bytes.unsafe_to_string b

let oracle_payload_to_buf s buf =
  let len = Buf.len buf in
  if String.length s <> 8 * len then
    Error
      (Printf.sprintf "payload is %d bytes, buffer needs %d"
         (String.length s) (8 * len))
  else begin
    let b = Bytes.unsafe_of_string s in
    for i = 0 to len - 1 do
      Buf.unsafe_set buf i (Int64.float_of_bits (Bytes.get_int64_le b (8 * i)))
    done;
    Ok ()
  end

let oracle_add_u32 b v =
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char b (Char.chr (v land 0xFF))

let oracle_add_frame b payload =
  oracle_add_u32 b (String.length payload);
  Buffer.add_string b payload;
  oracle_add_u32 b (oracle_crc32 payload)

(* the file contents the original [Snapshot.write] produced *)
let oracle_file ~meta ~payloads =
  let header =
    Json.Obj
      [ ("schema", Json.Str Snapshot.schema);
        ("frames", Json.num (List.length payloads));
        ("meta", meta) ]
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b (Snapshot.schema ^ "\n");
  oracle_add_frame b (Json.to_string header);
  List.iter (oracle_add_frame b) payloads;
  oracle_add_frame b "POLYMG-END";
  Buffer.contents b

(* -- arbitraries -------------------------------------------------------- *)

let meta_arb =
  (* metadata documents like Checkpoint's: string/int fields only (float
     round-tripping is covered by the grid codec property) *)
  QCheck.(
    make
      ~print:(fun kvs ->
        Json.to_string
          (Json.Obj (List.map (fun (k, v) -> (k, Json.num v)) kvs)))
      Gen.(
        small_list
          (pair
             (string_size ~gen:(char_range 'a' 'z') (int_range 1 8))
             small_int)))

let payloads_arb =
  QCheck.(list_of_size Gen.(int_range 0 3) (string_gen Gen.char))

let snapshot_arb = QCheck.pair meta_arb payloads_arb

let meta_of kvs =
  (* duplicate keys would make printed-form comparison see the parser's
     duplicate policy, not the container; last-one-wins dedup instead *)
  let tbl = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) kvs;
  Json.Obj
    (Hashtbl.fold (fun k v acc -> (k, Json.num v) :: acc) tbl []
    |> List.sort compare)

let write_snapshot (kvs, payloads) =
  let path = fresh "prop" in
  Snapshot.write ~path ~meta:(meta_of kvs)
    (List.map (fun p -> Snapshot.Raw p) payloads);
  path

let float_arb =
  (* every class of double the codec must carry bit-exactly *)
  QCheck.(
    make ~print:(fun x -> Printf.sprintf "%h" x)
      Gen.(
        oneof
          [ float;
            map Int64.float_of_bits ui64;
            oneofl
              [ Float.nan; -0.0; Float.infinity; Float.neg_infinity;
                Int64.float_of_bits 1L; Float.min_float ] ]))

let floats_arb = QCheck.list_of_size QCheck.Gen.(int_range 1 64) float_arb

(* -- properties --------------------------------------------------------- *)

let prop_roundtrip =
  QCheck.Test.make ~name:"snapshot: write/read round-trips bit-identically"
    ~count:100 snapshot_arb (fun ((kvs, payloads) as s) ->
      let path = write_snapshot s in
      match Snapshot.read ~path with
      | Error m -> QCheck.Test.fail_reportf "rejected own write: %s" m
      | Ok (meta, frames) ->
        Json.to_string meta = Json.to_string (meta_of kvs)
        && List.map Snapshot.frame_contents frames = payloads)

(* one scratch buffer across every case, as a sink keeps it: a write
   into a longer buffer left over from an earlier case must produce the
   same file *)
let scratch = ref Bytes.empty

(* covers the fused grid frames too: each one's bytes and stored CRC
   must equal the oracle encoding and the oracle CRC of it *)
let prop_writer_matches_oracle =
  QCheck.Test.make
    ~name:"snapshot: one-pass writer reproduces the original bytes"
    ~count:100
    QCheck.(pair snapshot_arb (list_of_size Gen.(int_range 0 2) floats_arb))
    (fun ((kvs, raws), grids) ->
      let bufs = List.map (fun xs -> Buf.of_array (Array.of_list xs)) grids in
      let write ?scratch path =
        Snapshot.write ?scratch ~path ~meta:(meta_of kvs)
          (List.map (fun p -> Snapshot.Raw p) raws
          @ List.map (fun b -> Snapshot.Floats b) bufs)
      in
      let path = fresh "oracle" and reused = fresh "oracle-scratch" in
      write path;
      write ~scratch reused;
      let expect =
        oracle_file ~meta:(meta_of kvs)
          ~payloads:(raws @ List.map oracle_payload_of_buf bufs)
      in
      read_file path = expect && read_file reused = expect)

(* mostly short strings, some of a few kilobytes *)
let bytes_arb =
  QCheck.(
    string_gen_of_size
      Gen.(frequency [ (3, int_range 0 300); (1, int_range 300 3000) ])
      Gen.char)

let prop_crc_matches_oracle =
  QCheck.Test.make ~name:"crc32: equals the byte-wise oracle on any range"
    ~count:500
    QCheck.(triple bytes_arb (int_range 0 1_000_000) (int_range 0 1_000_000))
    (fun (s, a, b) ->
      let n = String.length s in
      let pos = a mod (n + 1) in
      let len = b mod (n - pos + 1) in
      let sub = String.sub s pos len in
      Snapshot.crc32 s = oracle_crc32 s
      && Snapshot.crc32 ~pos ~len s = oracle_crc32 sub
      (* every tail length 0-15 after whole 16-byte blocks *)
      && List.for_all
           (fun t ->
             let len = min (n - pos) ((len land lnot 15) + t) in
             Snapshot.crc32 ~pos ~len s
             = oracle_crc32 (String.sub s pos len))
           (List.init 16 Fun.id))

let prop_crc_chaining =
  QCheck.Test.make ~name:"crc32: ?crc chaining at any split point"
    ~count:300
    QCheck.(pair bytes_arb (int_range 0 1_000_000))
    (fun (s, k) ->
      let n = String.length s in
      let k = k mod (n + 1) in
      let head = String.sub s 0 k and tail = String.sub s k (n - k) in
      let whole = oracle_crc32 s in
      Snapshot.crc32 ~crc:(Snapshot.crc32 head) tail = whole
      && Snapshot.crc32 ~crc:(Snapshot.crc32 s ~len:k) ~pos:k s = whole
      && Snapshot.crc32 ~crc:(oracle_crc32 head) tail
         = oracle_crc32 ~crc:(oracle_crc32 head) tail)

let prop_corruption_rejected =
  QCheck.Test.make
    ~name:"snapshot: any single-byte corruption is rejected" ~count:200
    QCheck.(triple snapshot_arb (int_range 0 1_000_000) (int_range 1 255))
    (fun (s, off, mask) ->
      let path = write_snapshot s in
      let bytes = Bytes.of_string (read_file path) in
      let i = off mod Bytes.length bytes in
      Bytes.set bytes i
        (Char.chr (Char.code (Bytes.get bytes i) lxor mask));
      write_file path (Bytes.to_string bytes);
      match Snapshot.read ~path with
      | Error _ -> true
      | Ok _ ->
        QCheck.Test.fail_reportf
          "byte %d xor 0x%02x accepted (file %d bytes)" i mask
          (Bytes.length bytes))

let prop_truncation_rejected =
  QCheck.Test.make ~name:"snapshot: any truncation is rejected" ~count:200
    QCheck.(pair snapshot_arb (int_range 0 1_000_000))
    (fun (s, cut) ->
      let path = write_snapshot s in
      let whole = read_file path in
      let keep = cut mod String.length whole in
      write_file path (String.sub whole 0 keep);
      match Snapshot.read ~path with
      | Error _ -> true
      | Ok _ -> QCheck.Test.fail_reportf "prefix of %d bytes accepted" keep)

let prop_trailing_rejected =
  QCheck.Test.make ~name:"snapshot: trailing bytes are rejected" ~count:50
    snapshot_arb (fun s ->
      let path = write_snapshot s in
      write_file path (read_file path ^ "x");
      match Snapshot.read ~path with Error _ -> true | Ok _ -> false)

let same_bits a b =
  Buf.len a = Buf.len b
  && List.for_all
       (fun i ->
         Int64.bits_of_float (Buf.get a i) = Int64.bits_of_float (Buf.get b i))
       (List.init (Buf.len a) Fun.id)

let prop_grid_codec =
  QCheck.Test.make ~name:"snapshot: grid payload codec is bit-exact"
    ~count:100 floats_arb (fun xs ->
      let buf = Buf.of_array (Array.of_list xs) in
      let path = fresh "codec" in
      Snapshot.write ~path ~meta:Json.Null [ Snapshot.Floats buf ];
      match Snapshot.read ~path with
      | Error m -> QCheck.Test.fail_reportf "rejected own write: %s" m
      | Ok (_, [ f ]) -> (
        let out = Buf.create (Buf.len buf) in
        let via_oracle = Buf.create (Buf.len buf) in
        match
          ( Snapshot.read_floats f out,
            oracle_payload_to_buf (Snapshot.frame_contents f) via_oracle )
        with
        | Ok (), Ok () -> same_bits buf out && same_bits buf via_oracle
        | Error m, _ | _, Error m -> QCheck.Test.fail_reportf "decode: %s" m)
      | Ok (_, frames) ->
        QCheck.Test.fail_reportf "%d frames" (List.length frames))

(* A sub-view of a grid encodes exactly its own doubles, with the
   oracle's bytes and CRC, and touches no byte around them; decoded into
   the same range of a larger buffer, it writes only that range. *)
let prop_encode_sub_view =
  QCheck.Test.make
    ~name:"encode_floats: a sub-view encodes and decodes only its range"
    ~count:200
    QCheck.(
      quad floats_arb (int_range 0 1_000_000) (int_range 0 1_000_000)
        (int_range 0 16))
    (fun (xs, a, b, off) ->
      let whole = Buf.of_array (Array.of_list xs) in
      let n = Buf.len whole in
      let pos = a mod (n + 1) in
      let len = b mod (n - pos + 1) in
      let view = Buf.sub_view whole ~pos ~len in
      let expect = oracle_payload_of_buf view in
      let bytes = Bytes.make (off + String.length expect + 8) '\xA5' in
      let crc = Snapshot.encode_floats view bytes ~pos:off in
      let around_kept =
        Bytes.sub_string bytes 0 off
        ^ Bytes.sub_string bytes (off + (8 * len)) 8
        = String.make (off + 8) '\xA5'
      in
      let path = fresh "subview" in
      Snapshot.write ~path ~meta:Json.Null [ Snapshot.Floats view ];
      let out = Buf.create n in
      Buf.fill out 42.0;
      let decoded =
        match Snapshot.read ~path with
        | Ok (_, [ f ]) -> Snapshot.read_floats f (Buf.sub_view out ~pos ~len)
        | Ok _ -> Error "frame count"
        | Error m -> Error m
      in
      decoded = Ok ()
      && Bytes.sub_string bytes off (8 * len) = expect
      && crc = oracle_crc32 expect
      && around_kept
      && same_bits (Buf.sub_view out ~pos ~len) view
      && List.for_all
           (fun i -> i >= pos && i < pos + len || Buf.get out i = 42.0)
           (List.init n Fun.id))

(* -- unit tests --------------------------------------------------------- *)

let test_crc_vector () =
  (* the classic IEEE CRC-32 check value *)
  Alcotest.(check int)
    "crc32(123456789)" 0xCBF43926
    (Snapshot.crc32 "123456789")

let test_encode_empty () =
  let b = Bytes.make 4 'x' in
  Alcotest.(check int)
    "an empty grid encodes to the CRC of no bytes" 0
    (Snapshot.encode_floats (Buf.create 0) b ~pos:4);
  Alcotest.(check string) "and writes nothing" "xxxx" (Bytes.to_string b);
  let out_of_range =
    Invalid_argument "Snapshot.encode_floats: range out of bounds"
  in
  Alcotest.check_raises "a position past the end" out_of_range (fun () ->
      ignore (Snapshot.encode_floats (Buf.create 0) b ~pos:5));
  Alcotest.check_raises "a grid that does not fit" out_of_range (fun () ->
      ignore (Snapshot.encode_floats (Buf.create 1) b ~pos:0));
  let path = fresh "empty-grid" in
  Snapshot.write ~path ~meta:Json.Null [ Snapshot.Floats (Buf.create 0) ];
  match Snapshot.read ~path with
  | Ok (_, [ f ]) ->
    Alcotest.(check bool)
      "an empty grid round-trips" true
      (Snapshot.read_floats f (Buf.create 0) = Ok ())
  | Ok _ | Error _ -> Alcotest.fail "empty grid payload not read back"

let test_atomic_replace () =
  let path = fresh "atomic" in
  Snapshot.atomic_write_string ~path "first\n";
  Snapshot.atomic_write_string ~path "second\n";
  Alcotest.(check string) "replaced" "second\n" (read_file path);
  let base = Filename.basename path ^ ".tmp" in
  Alcotest.(check bool)
    "no temp droppings" false
    (Array.exists
       (fun f ->
         String.length f >= String.length base
         && String.sub f 0 (String.length base) = base)
       (Sys.readdir (Filename.dirname path)))

let mk_state ~cycle =
  let v = Grid.create [| 9; 9 |] in
  Grid.fill_interior v ~f:(fun idx ->
      float_of_int ((cycle * 100) + (idx.(0) * 10) + idx.(1)));
  { Checkpoint.cycle;
    residual = 1.0 /. float_of_int cycle;
    dims = 2;
    n = 8;
    variant = "opt+";
    plan_digest = "test-digest";
    seed = 0;
    history =
      [ { Solver.cycle; residual = 1.0; seconds = 0.0; status = Solver.Ok } ];
    v }

let config dir = { Checkpoint.dir; every = 1; keep = 3 }

let test_rotation () =
  let dir = fresh "rotate" in
  let cfg = config dir in
  List.iter (fun c -> ignore (Checkpoint.save cfg (mk_state ~cycle:c)))
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int))
    "keeps the last 3 generations" [ 3; 4; 5 ]
    (Checkpoint.generations ~dir)

let ino path = (Unix.lstat path).Unix.st_ino
let entries dir = List.sort compare (Array.to_list (Sys.readdir dir))

let check_loads ~dir g =
  match Checkpoint.load ~path:(Checkpoint.gen_path ~dir g) with
  | Error m -> Alcotest.failf "generation %d rejected: %s" g m
  | Ok st ->
    Alcotest.(check int) "cycle" g st.Checkpoint.cycle;
    Alcotest.(check bool)
      (Printf.sprintf "generation %d bit-exact" g)
      true
      (same_bits st.Checkpoint.v.Grid.buf
         (mk_state ~cycle:g).Checkpoint.v.Grid.buf)

let test_rotation_recycles () =
  let dir = fresh "recycle" in
  let spare = Checkpoint.spare_path ~dir in
  let spare_before_6 = ref (-1) in
  (* each file is shorter than the one before, so a recycled file that
     kept its old tail would be rejected for trailing bytes *)
  let state c =
    let st = mk_state ~cycle:c in
    { st with
      Checkpoint.history = List.init (7 - c) (fun _ -> List.hd st.history) }
  in
  List.iter
    (fun c ->
      if c = 6 then spare_before_6 := ino spare;
      ignore (Checkpoint.save (config dir) (state c)))
    [ 1; 2; 3; 4; 5; 6 ];
  Alcotest.(check (list int))
    "keeps the last 3 generations" [ 4; 5; 6 ] (Checkpoint.generations ~dir);
  Alcotest.(check (list string))
    "one spare, no droppings"
    [ "ckpt-000004.snap"; "ckpt-000005.snap"; "ckpt-000006.snap";
      Filename.basename spare ]
    (entries dir);
  List.iter (check_loads ~dir) [ 4; 5; 6 ];
  Alcotest.(check int)
    "generation 6 is the recycled spare" !spare_before_6
    (ino (Checkpoint.gen_path ~dir 6))

let test_keep_one () =
  let dir = fresh "keep1" in
  let spare = Checkpoint.spare_path ~dir in
  List.iter
    (fun c ->
      let path =
        Checkpoint.save { (config dir) with keep = 1 } (mk_state ~cycle:c)
      in
      Alcotest.(check (list int))
        "one generation" [ c ] (Checkpoint.generations ~dir);
      if Sys.file_exists spare then
        Alcotest.(check bool) "the generation is not the spare" false
          (ino path = ino spare);
      match Checkpoint.load_latest ~dir with
      | Error m -> Alcotest.failf "after save %d: %s" c m
      | Ok r ->
        Alcotest.(check int) "load_latest is the newest" c r.Checkpoint.gen;
        check_loads ~dir c)
    [ 1; 2; 3; 4; 5 ]

(* Only a regular file with one link is overwritten in place: a
   directory or a symlink at the spare name is not followed (a rename
   and an open of it would fail with EISDIR or write through the link),
   and a hard link elsewhere keeps its contents. *)
let test_spare_not_followed () =
  let saves dir cycles =
    List.iter
      (fun c -> ignore (Checkpoint.save (config dir) (mk_state ~cycle:c)))
      cycles
  in
  let no_droppings dir =
    Alcotest.(check (list string))
      "no droppings" []
      (List.filter
         (fun e ->
           String.starts_with ~prefix:"ckpt-" e
           && (not (Filename.check_suffix e ".snap"))
           && e <> Filename.basename (Checkpoint.spare_path ~dir))
         (entries dir))
  in
  (* a directory *)
  let dir = fresh "spare-dir" in
  mkdir_p (Checkpoint.spare_path ~dir);
  saves dir [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int))
    "directory spare: rotation still keeps 3" [ 3; 4; 5 ]
    (Checkpoint.generations ~dir);
  Alcotest.(check bool)
    "the directory is left alone" true
    ((Unix.lstat (Checkpoint.spare_path ~dir)).Unix.st_kind = Unix.S_DIR);
  no_droppings dir;
  List.iter (check_loads ~dir) [ 3; 4; 5 ];
  (* a symlink *)
  let dir = fresh "spare-link" in
  mkdir_p dir;
  let target = Filename.concat dir "target" in
  write_file target "not a checkpoint";
  Unix.symlink "target" (Checkpoint.spare_path ~dir);
  saves dir [ 1; 2; 3; 4; 5; 6 ];
  Alcotest.(check string)
    "the link's target is untouched" "not a checkpoint" (read_file target);
  Alcotest.(check (list int))
    "symlink spare: rotation still keeps 3" [ 4; 5; 6 ]
    (Checkpoint.generations ~dir);
  no_droppings dir;
  List.iter (check_loads ~dir) [ 4; 5; 6 ];
  (* a hard link *)
  let dir = fresh "spare-hardlink" in
  saves dir [ 1; 2; 3; 4 ];
  let backup = Filename.concat dir "backup.snap" in
  Unix.link (Checkpoint.spare_path ~dir) backup;
  saves dir [ 5; 6 ];
  (match Checkpoint.load ~path:backup with
   | Ok st ->
     Alcotest.(check int)
       "the hard link still holds generation 1" 1 st.Checkpoint.cycle
   | Error m -> Alcotest.failf "hard link overwritten: %s" m);
  Alcotest.(check (list int))
    "hard-linked spare: rotation still keeps 3" [ 4; 5; 6 ]
    (Checkpoint.generations ~dir);
  List.iter (check_loads ~dir) [ 4; 5; 6 ]

let test_corrupt_fallback () =
  let dir = fresh "fallback" in
  let cfg = config dir in
  List.iter (fun c -> ignore (Checkpoint.save cfg (mk_state ~cycle:c)))
    [ 1; 2; 3 ];
  (* flip a payload byte of the newest generation *)
  let path = Checkpoint.gen_path ~dir 3 in
  let b = Bytes.of_string (read_file path) in
  let i = Bytes.length b - 20 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  write_file path (Bytes.to_string b);
  match Checkpoint.load_latest ~dir with
  | Error m -> Alcotest.failf "no fallback: %s" m
  | Ok r ->
    Alcotest.(check int) "fell back to generation 2" 2 r.Checkpoint.gen;
    Alcotest.(check int)
      "rejected exactly the corrupt generation" 1
      (List.length r.Checkpoint.rejected);
    Alcotest.(check int)
      "restored state is generation 2's" 2
      r.Checkpoint.state.Checkpoint.cycle;
    let expect = mk_state ~cycle:2 in
    Alcotest.(check (float 0.0))
      "restored iterate bit-identical" 0.0
      (Buf.max_abs_diff r.Checkpoint.state.Checkpoint.v.Grid.buf
         expect.Checkpoint.v.Grid.buf)

let test_empty_dir () =
  let dir = fresh "empty" in
  mkdir_p dir;
  match Checkpoint.load_latest ~dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty dir produced a generation"

let test_effective_every () =
  Alcotest.(check int) "no deadline keeps the cadence" 5
    (Checkpoint.effective_every ~every:5 ~deadline:None);
  Alcotest.(check int) "a deadline clamps to every cycle" 1
    (Checkpoint.effective_every ~every:5 ~deadline:(Some 0.5))

(* -- the parent writer's fixture ------------------------------------- *)

(* beside the test executable, where the test stanza's deps put it *)
let fixture_path =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat "fixtures" "ckpt-000001.snap")

(* The state fixtures/ckpt-000001.snap holds, saved by the original
   Buffer-based writer: NaN, -0.0, subnormals and an infinity in the
   grid, and a one-entry history. *)
let fixture_state () =
  let v = Grid.create [| 9; 9 |] in
  Grid.fill_all v ~f:(fun idx ->
      (float_of_int ((idx.(0) * 9) + idx.(1)) *. 0.375) -. 7.0);
  Grid.set2 v 1 1 (Int64.float_of_bits 0x7FF8_0000_0000_0001L);
  Grid.set2 v 2 3 (-0.0);
  Grid.set2 v 4 4 (Int64.float_of_bits 1L);
  Grid.set2 v 5 6 2.2250738585072009e-308;
  Grid.set2 v 7 7 Float.infinity;
  { Checkpoint.cycle = 1;
    residual = 0.0625;
    dims = 2;
    n = 7;
    variant = "dtile-opt+";
    plan_digest = "fixture-digest";
    seed = 7;
    history =
      [ { Solver.cycle = 1; residual = 0.0625; seconds = 0.015625;
          status = Solver.Ok } ];
    v }

let test_fixture () =
  let expect = fixture_state () in
  (match Checkpoint.load ~path:fixture_path with
   | Error m -> Alcotest.failf "fixture rejected: %s" m
   | Ok st ->
     Alcotest.(check int) "cycle" expect.cycle st.Checkpoint.cycle;
     Alcotest.(check (float 0.0)) "residual" expect.residual st.residual;
     Alcotest.(check (list int))
       "dims, n, seed" [ 2; 7; 7 ] [ st.dims; st.n; st.seed ];
     Alcotest.(check (list string))
       "variant, digest"
       [ expect.variant; expect.plan_digest ]
       [ st.variant; st.plan_digest ];
     Alcotest.(check bool) "history" true (st.history = expect.history);
     Alcotest.(check (array int))
       "extents" [| 9; 9 |] (Grid.extents st.v);
     Alcotest.(check bool)
       "grid bit-identical" true
       (same_bits st.v.Grid.buf expect.v.Grid.buf));
  let path = Checkpoint.save (config (fresh "fixture")) expect in
  Alcotest.(check bool)
    "the writer reproduces the fixture byte for byte" true
    (read_file path = read_file fixture_path)

(* -- allocation --------------------------------------------------------- *)

(* A sink lays its saves out in one file buffer it keeps: a save after
   the first allocates next to nothing on the major heap. *)
let test_save_allocation () =
  let dir = fresh "alloc" in
  let v = Grid.create [| 33; 33; 33 |] in
  Grid.fill_all v ~f:(fun idx ->
      float_of_int ((idx.(0) * 1089) + (idx.(1) * 33) + idx.(2)) *. 0.1);
  let sink =
    Checkpoint.sink (config dir) ~dims:3 ~n:31 ~variant:"opt+"
      ~plan_digest:"test-digest" ()
  in
  let accept cycle =
    sink.Checkpoint.on_accept ~cycle ~residual:0.5 ~v
      ~stats:[ { Solver.cycle; residual = 0.5; seconds = 0.0;
                 status = Solver.Ok } ]
  in
  accept 1;
  (* start from an empty minor heap: a minor collection that a large
     allocation forces mid-measurement otherwise inflates minor_words *)
  Gc.minor ();
  let minor0, _, major0 = Gc.counters () in
  accept 2;
  let minor1, _, major1 = Gc.counters () in
  let file_words =
    float_of_int ((Unix.stat (Checkpoint.gen_path ~dir 2)).Unix.st_size / 8)
  in
  let major = major1 -. major0 and minor = minor1 -. minor0 in
  if major > 0.01 *. file_words then
    Alcotest.failf "%.0f major words for a %.0f-word file (limit 0.01x)" major
      file_words;
  if minor >= 10_000.0 then
    Alcotest.failf "%.0f minor words (limit 10000)" minor

(* -- metadata the loader must reject ----------------------------------- *)

(* A generation written by hand: CRC-valid, whatever its metadata says. *)
let hand_write ~dir ~gen ~extents ?(history = []) buf =
  let meta =
    Json.Obj
      [ ("kind", Json.Str "mg-checkpoint");
        ("cycle", Json.num gen);
        ("residual", Json.Num 0.5);
        ("dims", Json.num 2);
        ("n", Json.num 7);
        ("variant", Json.Str "opt+");
        ("plan_digest", Json.Str "test-digest");
        ("seed", Json.num 0);
        ("extents", Json.Arr (List.map Json.num extents));
        ("history", Json.Arr history) ]
  in
  mkdir_p dir;
  Snapshot.write ~path:(Checkpoint.gen_path ~dir gen) ~meta
    [ Snapshot.Floats buf ]

let test_bad_extents_fallback () =
  let dir = fresh "extents" in
  ignore (Checkpoint.save (config dir) (mk_state ~cycle:1));
  let buf = Buf.create 81 in
  hand_write ~dir ~gen:2 ~extents:[ 9; 0 ] buf;
  hand_write ~dir ~gen:3 ~extents:[ 9; 1 lsl 50 ] buf;
  hand_write ~dir ~gen:4 ~extents:[ 81 ] buf;
  hand_write ~dir ~gen:5 ~extents:[ 3; 3; 9 ] buf;
  match Checkpoint.load_latest ~dir with
  | Error m -> Alcotest.failf "no fallback: %s" m
  | Ok r ->
    Alcotest.(check int) "fell back to generation 1" 1 r.Checkpoint.gen;
    Alcotest.(check (list int))
      "rejected every bad-extents generation" [ 5; 4; 3; 2 ]
      (List.map fst r.Checkpoint.rejected)

let test_bad_history_rejected () =
  let dir = fresh "history" in
  let entry ?(cycle = Json.num 1) status =
    Json.Obj
      [ ("cycle", cycle);
        ("residual", Json.Num 0.5);
        ("seconds", Json.Num 0.0);
        ("status", Json.Str status) ]
  in
  let load history =
    hand_write ~dir ~gen:1 ~extents:[ 9; 9 ] ~history (Buf.create 81);
    Checkpoint.load ~path:(Checkpoint.gen_path ~dir 1)
  in
  (match load [ entry "ok"; entry "stagnated" ] with
   | Ok st ->
     Alcotest.(check int) "valid history kept" 2 (List.length st.history)
   | Error m -> Alcotest.failf "valid history rejected: %s" m);
  List.iter
    (fun (what, history) ->
      match load history with
      | Error _ -> ()
      | Ok st ->
        Alcotest.failf "%s accepted (%d entries kept)" what
          (List.length st.history))
    [ ("unknown status", [ entry "ok"; entry "exploded" ]);
      ("missing cycle", [ entry ~cycle:Json.Null "ok" ]) ]

let test_prune_counter () =
  let dir = fresh "prune" in
  (* a directory where generation 1 should be: Sys.remove refuses it *)
  mkdir_p (Checkpoint.gen_path ~dir 1);
  let pruned () =
    Telemetry.value (Telemetry.counter "guard.checkpoint_pruned")
  in
  let was = Telemetry.enabled () in
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Telemetry.set_enabled was)
    (fun () ->
      let before = pruned () in
      List.iter
        (fun c -> ignore (Checkpoint.save (config dir) (mk_state ~cycle:c)))
        [ 2; 3; 4 ];
      Alcotest.(check int) "a failed removal is not counted" before (pruned ());
      Alcotest.(check (list int))
        "generation 1 is still there" [ 1; 2; 3; 4 ]
        (Checkpoint.generations ~dir);
      ignore (Checkpoint.save (config dir) (mk_state ~cycle:5));
      Alcotest.(check int) "a removal is counted" (before + 1) (pruned ()))

let test_sink_flush_copies () =
  (* off-cadence accepted state must be snapshotted by value: the solve
     loop ping-pongs the iterate buffer after on_accept returns *)
  let dir = fresh "sink" in
  let sink =
    Checkpoint.sink
      { Checkpoint.dir; every = 1000; keep = 3 }
      ~dims:2 ~n:8 ~variant:"opt+" ~plan_digest:"test-digest" ()
  in
  let v = Grid.create [| 9; 9 |] in
  Grid.fill_interior v ~f:(fun _ -> 7.0);
  sink.Checkpoint.on_accept ~cycle:1 ~residual:0.5 ~v
    ~stats:[ { Solver.cycle = 1; residual = 0.5; seconds = 0.0;
               status = Solver.Ok } ];
  Grid.fill_interior v ~f:(fun _ -> -1.0) (* the loop reuses the buffer *);
  (match sink.Checkpoint.flush () with
   | None -> Alcotest.fail "flush had nothing to save"
   | Some _ -> ());
  match Checkpoint.load_latest ~dir with
  | Error m -> Alcotest.failf "load after flush: %s" m
  | Ok r ->
    Alcotest.(check (float 0.0))
      "flushed the accepted values, not the reused buffer" 7.0
      (Grid.get2 r.Checkpoint.state.Checkpoint.v 3 3)

let test_sink_spare_reused () =
  (* consecutive off-cadence cycles share one spare grid: the flush must
     still save the newest accepted values *)
  let dir = fresh "spare" in
  let sink =
    Checkpoint.sink
      { Checkpoint.dir; every = 1000; keep = 3 }
      ~dims:2 ~n:8 ~variant:"opt+" ~plan_digest:"test-digest" ()
  in
  let v = Grid.create [| 9; 9 |] in
  let accept cycle x =
    Grid.fill_interior v ~f:(fun _ -> x);
    sink.Checkpoint.on_accept ~cycle ~residual:x ~v
      ~stats:[ { Solver.cycle; residual = x; seconds = 0.0;
                 status = Solver.Ok } ]
  in
  accept 1 7.0;
  accept 2 8.0;
  Grid.fill_interior v ~f:(fun _ -> -1.0);
  ignore (sink.Checkpoint.flush ());
  match Checkpoint.load_latest ~dir with
  | Error m -> Alcotest.failf "load after flush: %s" m
  | Ok r ->
    Alcotest.(check int) "newest accepted cycle" 2 r.Checkpoint.gen;
    Alcotest.(check (float 0.0))
      "flushed cycle 2's values" 8.0
      (Grid.get2 r.Checkpoint.state.Checkpoint.v 3 3)

let () =
  rm_rf tmpdir;
  let unit name f = Alcotest.test_case name `Quick f in
  Alcotest.run "snapshot"
    [ ( "properties",
        Qc_replay.to_alcotest_list
          [ prop_roundtrip;
            prop_corruption_rejected;
            prop_truncation_rejected;
            prop_trailing_rejected;
            prop_grid_codec;
            prop_writer_matches_oracle;
            prop_crc_matches_oracle;
            prop_crc_chaining;
            prop_encode_sub_view ] );
      ( "unit",
        [ unit "crc32 test vector" test_crc_vector;
          unit "parent-written fixture" test_fixture;
          unit "save allocation gate" test_save_allocation;
          unit "bad extents fall back" test_bad_extents_fallback;
          unit "bad history rejected" test_bad_history_rejected;
          unit "prune counts removals only" test_prune_counter;
          unit "atomic replacement" test_atomic_replace;
          unit "generation rotation" test_rotation;
          unit "rotation recycles the retired generation"
            test_rotation_recycles;
          unit "keep 1 never loads the spare" test_keep_one;
          unit "spare: directory or symlink not followed"
            test_spare_not_followed;
          unit "encode_floats: empty grid" test_encode_empty;
          unit "corrupt-generation fallback" test_corrupt_fallback;
          unit "empty directory" test_empty_dir;
          unit "deadline clamps cadence" test_effective_every;
          unit "sink deferred flush copies" test_sink_flush_copies;
          unit "sink reuses one spare grid" test_sink_spare_reused ] ) ]
