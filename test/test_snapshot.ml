(* Snapshot container and checkpoint-store tests.

   Properties (Qc_replay, seed-replayable): the polymg.snapshot/1
   container round-trips metadata and payloads bit-identically, and any
   single-byte corruption, truncation, or trailing garbage makes [read]
   reject the file — the CRC framing never deserializes a torn write —
   and so does a header spliced onto the payloads of another write.
   The C CRC equals the byte-at-a-time definition on any range and under
   [?crc] chaining, through every code path the host runs
   ([Snapshot.crc32_paths]: every start offset mod 16 and every tail
   length 0-63, chained from one path into another), the one-pass writer
   produces the same bytes as the
   original Buffer-based writer (both kept verbatim below as oracles),
   and the C grid codec encodes and decodes a sub-view's own range only.
   Unit tests cover the CRC test vector and a 314,432-byte frame on every
   path, an empty grid, a checkpoint
   written by the original writer (test/fixtures), the writer's
   allocation, atomic replacement, the ring of generations (keep + 1
   files; the oldest is rewritten in place, never the newest, and never
   through a directory, symlink, hard link or an older writer's file; a
   stale name is loaded by its header; only the newest generation's grid
   is read to find it; one fsync and no directory sync per steady-state
   save), corrupt-generation fallback, metadata the
   loader must reject, the prune counter, the deadline-aware cadence
   clamp, and the sink's deferred-flush copy semantics. *)

open Repro_mg
module Grid = Repro_grid.Grid
module Buf = Repro_grid.Buf
module Snapshot = Repro_runtime.Snapshot
module Json = Repro_runtime.Json
module Telemetry = Repro_runtime.Telemetry

let tmpdir = "snapshot-test-tmp"

(* beside the test executable, where the test stanza's deps put it *)
let fixture_path =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat "fixtures" "ckpt-000001.snap")

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

(* the oracle CRC of every prefix of [s] from [pos]: entry [k] is the
   CRC of the [k] bytes at [pos] *)
let oracle_prefixes s ~pos =
  let table = Lazy.force oracle_crc_table in
  let n = String.length s - pos in
  let out = Array.make (n + 1) 0 in
  let c = ref 0xFFFFFFFF in
  for k = 1 to n do
    c := table.((!c lxor Char.code s.[pos + k - 1]) land 0xFF) lxor (!c lsr 8);
    out.(k) <- !c lxor 0xFFFFFFFF land 0xFFFFFFFF
  done;
  out

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

(* the file contents the original [Snapshot.write] produced, with the
   header key that binds the payloads' CRCs *)
let oracle_file ~meta ~payloads =
  let header =
    Json.Obj
      [ ("schema", Json.Str Snapshot.schema);
        ("frames", Json.num (List.length payloads));
        ( "crcs",
          Json.Str
            (String.concat ""
               (List.map (fun p -> Printf.sprintf "%08x" (oracle_crc32 p))
                  payloads)) );
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

(* grids of at least 64 bytes, which the carry-less-multiply path folds,
   with both tail lengths (0 and 8 bytes past a 16-byte block) *)
let grid_floats_arb =
  QCheck.list_of_size QCheck.Gen.(int_range 8 400) float_arb

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
    QCheck.(
      pair snapshot_arb (list_of_size Gen.(int_range 0 2) grid_floats_arb))
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

(* Every path against the oracle, at every start offset mod 16 and every
   tail length 0-63 past a random number of whole 64-byte blocks; then a
   checksum of a prefix from each path continued by each path. *)
let prop_crc_paths =
  QCheck.Test.make
    ~name:"crc32_paths: every path equals the oracle, and chains into each"
    ~count:100 ~long_factor:10
    QCheck.(
      triple
        (string_gen_of_size Gen.(int_range 0 3000) Gen.char)
        (int_range 0 1_000_000) (int_range 0 1_000_000))
    (fun (s, b, k) ->
      let n = String.length s in
      let check ?crc ~pos ~len expect =
        List.for_all
          (fun (name, got) ->
            got = expect
            || QCheck.Test.fail_reportf
                 "path %s: pos %d len %d: 0x%08x, oracle 0x%08x" name pos
                 len got expect)
          (Snapshot.crc32_paths ?crc ~pos ~len s)
      in
      List.for_all
        (fun pos ->
          pos > n
          ||
          let prefix = oracle_prefixes s ~pos in
          let blocks = b mod (n - pos + 1) land lnot 63 in
          List.for_all
            (fun t ->
              let len = min (n - pos) (blocks + t) in
              check ~pos ~len prefix.(len))
            (List.init 64 Fun.id))
        (List.init 16 Fun.id)
      &&
      let k = k mod (n + 1) in
      List.for_all
        (fun (_, head) -> check ~crc:head ~pos:k ~len:(n - k) (oracle_crc32 s))
        (Snapshot.crc32_paths ~len:k s))

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

(* A power cut can tear an in-place rewrite at any sector: the header of
   one write before the grid of another, with frame lengths that agree,
   must not read. *)
let prop_splice_rejected =
  QCheck.Test.make
    ~name:"snapshot: a header spliced onto another write's grid is rejected"
    ~count:100
    QCheck.(triple grid_floats_arb (int_range 0 1_000_000) (pair small_nat small_nat))
    (fun (xs, k, (c1, c2)) ->
      let a = Array.of_list xs in
      let b = Array.copy a in
      let k = k mod Array.length b in
      b.(k) <- Int64.float_of_bits (Int64.logxor (Int64.bits_of_float b.(k)) 1L);
      (* two metadata documents of equal printed length *)
      let meta c = Json.Obj [ ("cycle", Json.Str (Printf.sprintf "%09d" c)) ] in
      let image c xs =
        let path = fresh "splice" in
        Snapshot.write ~path ~meta:(meta c) [ Snapshot.Floats (Buf.of_array xs) ];
        read_file path
      in
      let ia = image c1 a and ib = image c2 b in
      let m = String.length Snapshot.schema + 1 in
      let hlen = Int32.to_int (String.get_int32_be ia m) + 8 in
      assert (String.length ia = String.length ib);
      assert (Int32.to_int (String.get_int32_be ib m) + 8 = hlen);
      let splice x y =
        let path = fresh "spliced" in
        write_file path
          (String.sub x 0 (m + hlen)
          ^ String.sub y (m + hlen) (String.length y - m - hlen));
        match Snapshot.read ~path with
        | Error _ -> true
        | Ok _ -> QCheck.Test.fail_reportf "splice accepted (grid %d)" k
      in
      splice ia ib && splice ib ia)

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
  (* the classic IEEE CRC-32 check value, dispatched and on every path *)
  Alcotest.(check int)
    "crc32(123456789)" 0xCBF43926
    (Snapshot.crc32 "123456789");
  let paths = Snapshot.crc32_paths "123456789" in
  Alcotest.(check bool)
    "the table path is always there" true
    (List.mem_assoc "table" paths);
  List.iter
    (fun (name, crc) ->
      Alcotest.(check int) ("crc32(123456789) on " ^ name) 0xCBF43926 crc)
    paths

(* a W-3D n=32 grid frame: 34^3 doubles *)
let test_crc_paths_frame () =
  let st = Random.State.make [| 314_432 |] in
  let s = String.init 314_432 (fun _ -> Char.chr (Random.State.int st 256)) in
  let expect = oracle_crc32 s in
  List.iter
    (fun (name, crc) ->
      Alcotest.(check int) ("314,432-byte frame on " ^ name) expect crc)
    (Snapshot.crc32_paths s);
  let buf = Buf.create 39_304 in
  for i = 0 to Buf.len buf - 1 do
    Buf.unsafe_set buf i (Int64.float_of_bits (Random.State.bits64 st))
  done;
  let b = Bytes.create (8 * Buf.len buf) in
  let crc = Snapshot.encode_floats buf b ~pos:0 in
  let payload = oracle_payload_of_buf buf in
  Alcotest.(check bool)
    "encode_floats writes the oracle's bytes" true
    (Bytes.to_string b = payload);
  Alcotest.(check int)
    "encode_floats returns the oracle's CRC" (oracle_crc32 payload) crc

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

let saves ?(keep = 3) dir cycles =
  List.iter
    (fun c -> ignore (Checkpoint.save { (config dir) with keep } (mk_state ~cycle:c)))
    cycles

let test_rotation () =
  let dir = fresh "rotate" in
  saves dir [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int))
    "keeps a ring of keep + 1 generations" [ 2; 3; 4; 5 ]
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

let test_ring_rewrites_oldest () =
  let dir = fresh "ring" in
  let inodes = Hashtbl.create 8 in
  (* each file is shorter than the one before, so a rewritten file that
     kept its old tail would be rejected for trailing bytes *)
  let state c =
    let st = mk_state ~cycle:c in
    { st with
      Checkpoint.history = List.init (9 - c) (fun _ -> List.hd st.history) }
  in
  List.iter
    (fun c ->
      ignore (Checkpoint.save (config dir) (state c));
      Hashtbl.replace inodes c (ino (Checkpoint.gen_path ~dir c)))
    [ 1; 2; 3; 4; 5; 6 ];
  Alcotest.(check (list string))
    "a ring of four generations, no droppings"
    [ "ckpt-000003.snap"; "ckpt-000004.snap"; "ckpt-000005.snap";
      "ckpt-000006.snap" ]
    (entries dir);
  List.iter (check_loads ~dir) [ 3; 4; 5; 6 ];
  Alcotest.(check (list int))
    "generations 5 and 6 are the files of 1 and 2, rewritten in place"
    [ Hashtbl.find inodes 1; Hashtbl.find inodes 2 ]
    [ Hashtbl.find inodes 5; Hashtbl.find inodes 6 ]

let test_keep_one () =
  let dir = fresh "keep1" in
  List.iter
    (fun c ->
      saves ~keep:1 dir [ c ];
      Alcotest.(check (list int))
        "two generations"
        (if c = 1 then [ 1 ] else [ c - 1; c ])
        (Checkpoint.generations ~dir);
      match Checkpoint.load_latest ~dir with
      | Error m -> Alcotest.failf "after save %d: %s" c m
      | Ok r ->
        Alcotest.(check int) "load_latest is the newest" c r.Checkpoint.gen;
        List.iter (check_loads ~dir) (Checkpoint.generations ~dir))
    [ 1; 2; 3; 4; 5 ]

(* Only a regular file with one link whose header binds its payloads is
   overwritten in place: a symlink is not followed (even to a valid
   generation), a directory is left alone, a hard link elsewhere and an
   older writer's file keep their contents.  Each retires through the
   create path instead. *)
let test_ring_not_written_through () =
  (* a symlink to a copy of a valid generation *)
  let dir = fresh "ring-link" in
  saves dir [ 1; 2; 3 ];
  let target = Filename.concat dir "target" in
  let gen1 = read_file (Checkpoint.gen_path ~dir 1) in
  write_file target gen1;
  Sys.remove (Checkpoint.gen_path ~dir 1);
  Unix.symlink "target" (Checkpoint.gen_path ~dir 1);
  saves dir [ 4; 5; 6 ];
  Alcotest.(check bool)
    "the link's target is untouched" true (read_file target = gen1);
  Alcotest.(check (list int))
    "symlink: the ring still holds 4" [ 3; 4; 5; 6 ]
    (Checkpoint.generations ~dir);
  List.iter (check_loads ~dir) [ 3; 4; 5; 6 ];
  (* a directory *)
  let dir = fresh "ring-dir" in
  mkdir_p (Checkpoint.gen_path ~dir 1);
  saves dir [ 2; 3; 4; 5 ];
  Alcotest.(check (list int))
    "directory: the ring holds it and 3 generations" [ 1; 3; 4; 5 ]
    (Checkpoint.generations ~dir);
  Alcotest.(check bool)
    "the directory is left alone" true
    ((Unix.lstat (Checkpoint.gen_path ~dir 1)).Unix.st_kind = Unix.S_DIR);
  List.iter (check_loads ~dir) [ 3; 4; 5 ];
  (* a hard link *)
  let dir = fresh "ring-hardlink" in
  saves dir [ 1; 2; 3; 4 ];
  let backup = Filename.concat dir "backup.snap" in
  Unix.link (Checkpoint.gen_path ~dir 1) backup;
  saves dir [ 5; 6 ];
  (match Checkpoint.load ~path:backup with
   | Ok st ->
     Alcotest.(check int)
       "the hard link still holds generation 1" 1 st.Checkpoint.cycle
   | Error m -> Alcotest.failf "hard link overwritten: %s" m);
  Alcotest.(check (list int))
    "hard link: the ring still holds 4" [ 3; 4; 5; 6 ]
    (Checkpoint.generations ~dir);
  List.iter (check_loads ~dir) [ 3; 4; 5; 6 ];
  (* an older writer's file, whose header binds nothing *)
  let dir = fresh "ring-old" in
  mkdir_p dir;
  let old = read_file fixture_path in
  write_file (Checkpoint.gen_path ~dir 1) old;
  let old_ino = ino (Checkpoint.gen_path ~dir 1) in
  saves dir [ 2; 3; 4; 5 ];
  Alcotest.(check (list int))
    "older writer's file: retired, not rewritten" [ 2; 3; 4; 5 ]
    (Checkpoint.generations ~dir);
  Alcotest.(check bool)
    "generation 5 is a new file" true
    (ino (Checkpoint.gen_path ~dir 5) <> old_ino);
  List.iter (check_loads ~dir) [ 2; 3; 4; 5 ]

(* A power cut can undo an in-place rewrite's unsynced rename: the
   newest generation, complete, under the name of the one it replaced.
   load_latest follows the header, and the next save rewrites the oldest
   generation by header, not the file under the oldest name. *)
let test_stale_name () =
  let dir = fresh "stale" in
  saves dir [ 1; 2; 3; 4; 5; 6 ];
  (* generation 6 rewrote the file of generation 2 *)
  Unix.rename (Checkpoint.gen_path ~dir 6) (Checkpoint.gen_path ~dir 2);
  let latest () =
    match Checkpoint.load_latest ~dir with
    | Error m -> Alcotest.failf "stale name: %s" m
    | Ok r ->
      Alcotest.(check (list int)) "nothing rejected" []
        (List.map fst r.Checkpoint.rejected);
      r.Checkpoint.gen
  in
  Alcotest.(check int) "load_latest follows the header" 6 (latest ());
  saves dir [ 7 ];
  Alcotest.(check int) "then the new generation" 7 (latest ());
  Alcotest.(check (list int))
    "the oldest by header was rewritten" [ 2; 4; 5; 7 ]
    (Checkpoint.generations ~dir);
  match Checkpoint.load ~path:(Checkpoint.gen_path ~dir 2) with
  | Ok st -> Alcotest.(check int) "the stale name still holds 6" 6 st.cycle
  | Error m -> Alcotest.failf "generation 6 lost: %s" m

(* One fsync per steady-state save and no directory sync; a save that
   creates its file syncs the directory once. *)
let test_fsync_counts () =
  let counter name = Telemetry.value (Telemetry.counter name) in
  let was = Telemetry.enabled () in
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Telemetry.set_enabled was)
    (fun () ->
      let dir = fresh "fsyncs" in
      let sink =
        Checkpoint.sink (config dir) ~dims:2 ~n:8 ~variant:"opt+"
          ~plan_digest:"test-digest" ()
      in
      List.iter
        (fun c ->
          let st = mk_state ~cycle:c in
          let f0 = counter "snapshot.fsyncs"
          and d0 = counter "snapshot.dir_fsyncs" in
          sink.Checkpoint.on_accept ~cycle:c ~residual:st.residual ~v:st.v
            ~stats:st.history;
          let steady = c > 4 in
          Alcotest.(check (pair int int))
            (Printf.sprintf "save %d (%s): file and directory fsyncs" c
               (if steady then "rewrite" else "create"))
            (1, if steady then 0 else 1)
            (counter "snapshot.fsyncs" - f0, counter "snapshot.dir_fsyncs" - d0))
        [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ];
      List.iter (check_loads ~dir) [ 6; 7; 8; 9 ])

(* load_latest reads every file's header but loads only the newest in
   full, so an older generation's torn grid goes unread; a stateless
   save, which must spare the newest, reads one grid to find it, and
   then rewrites the torn file as the oldest by header. *)
let test_one_grid_read () =
  let read_ok () = Telemetry.value (Telemetry.counter "snapshot.read_ok") in
  let was = Telemetry.enabled () in
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Telemetry.set_enabled was)
    (fun () ->
      let dir = fresh "one-grid" in
      saves dir [ 1; 2; 3; 4; 5; 6 ];
      let path = Checkpoint.gen_path ~dir 3 in
      let b = Bytes.of_string (read_file path) in
      let i = Bytes.length b - 40 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
      write_file path (Bytes.to_string b);
      let r0 = read_ok () in
      (match Checkpoint.load_latest ~dir with
       | Error m -> Alcotest.failf "load_latest: %s" m
       | Ok r ->
         Alcotest.(check int) "the newest" 6 r.Checkpoint.gen;
         Alcotest.(check (list int)) "older files unchecked" []
           (List.map fst r.Checkpoint.rejected));
      Alcotest.(check int) "load_latest loads one grid" 1 (read_ok () - r0);
      let r0 = read_ok () in
      saves dir [ 7 ];
      Alcotest.(check int) "a stateless save loads one grid" 1
        (read_ok () - r0);
      Alcotest.(check (list int))
        "the torn oldest was rewritten" [ 4; 5; 6; 7 ]
        (Checkpoint.generations ~dir);
      List.iter (check_loads ~dir) [ 4; 5; 6; 7 ])

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

(* The fixture's bytes as today's writer lays them out: the header's raw
   text with the fixed-width binding key spliced in after ["frames":1,],
   its frame's length and CRC recomputed, and the grid and end frames
   kept as they are. The header is edited as text, never parsed and
   printed again, so the fixture still pins how the metadata prints. *)
let fixture_with_binding () =
  let raw = read_file fixture_path in
  let m = String.length Snapshot.schema + 1 in
  let u32 pos = Int32.to_int (String.get_int32_be raw pos) land 0xFFFF_FFFF in
  let hlen = u32 m in
  let header = String.sub raw (m + 4) hlen in
  let glen = u32 (m + hlen + 8) in
  let grid = String.sub raw (m + hlen + 12) glen in
  let anchor = "\"frames\":1," in
  let k = String.length anchor in
  let rec find i =
    if i + k > hlen then Alcotest.fail "fixture header names no frames"
    else if String.sub header i k = anchor then i + k
    else find (i + 1)
  in
  let at = find 0 in
  let header =
    String.sub header 0 at
    ^ Printf.sprintf "\"crcs\":\"%08x\"," (oracle_crc32 grid)
    ^ String.sub header at (hlen - at)
  in
  let b = Buffer.create (String.length raw + 32) in
  Buffer.add_string b (String.sub raw 0 m);
  oracle_add_frame b header;
  let rest = m + hlen + 8 in
  Buffer.add_string b (String.sub raw rest (String.length raw - rest));
  Buffer.contents b

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
    "the writer reproduces the fixture byte for byte, with the binding key"
    true
    (read_file path = fixture_with_binding ())

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
            prop_splice_rejected;
            prop_grid_codec;
            prop_writer_matches_oracle;
            prop_crc_matches_oracle;
            prop_crc_chaining;
            prop_crc_paths;
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
            test_ring_rewrites_oldest;
          unit "keep one holds two, loads the newest" test_keep_one;
          unit "ring: never written through a link"
            test_ring_not_written_through;
          unit "encode_floats: empty grid" test_encode_empty;
          unit "corrupt-generation fallback" test_corrupt_fallback;
          unit "empty directory" test_empty_dir;
          unit "deadline clamps cadence" test_effective_every;
          unit "sink deferred flush copies" test_sink_flush_copies;
          unit "sink reuses one spare grid" test_sink_spare_reused;
          unit "crc32: a 314,432-byte frame on every path"
            test_crc_paths_frame;
          unit "ring: a stale name follows the header" test_stale_name;
          unit "ring: one fsync per steady save" test_fsync_counts;
          unit "ring: the newest is the only grid read" test_one_grid_read ] ) ]
