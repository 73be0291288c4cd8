module Buf = Repro_grid.Buf

let c_writes = Telemetry.counter "snapshot.writes"
let c_bytes = Telemetry.counter "snapshot.bytes_written"
let c_read_ok = Telemetry.counter "snapshot.read_ok"
let c_read_rejected = Telemetry.counter "snapshot.read_rejected"

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE / zlib polynomial, reflected), slicing-by-8 *)

(* [tables.((k * 256) + b)] is table [k] of the slicing-by-8 scheme:
   table 0 is the classic byte-at-a-time table, and table [k] carries a
   byte's contribution past [k] further bytes, so eight table lookups
   advance the CRC over eight bytes at once. *)
let tables =
  let t = Array.make 2048 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to 2047 do
    let prev = t.(i - 256) in
    t.(i) <- (prev lsr 8) lxor t.(prev land 0xFF)
  done;
  t

let[@inline] tbl i = Array.unsafe_get tables i

(* the low and high 32-bit halves of eight bytes read little-endian *)
let[@inline] lo32 w = Int64.to_int w land 0xFFFF_FFFF
let[@inline] hi32 w = Int64.to_int (Int64.shift_right_logical w 32)

(* The running (inverted) CRC [c] advanced over eight bytes whose
   halves are [lo] and [hi]. *)
let[@inline] step8 c lo hi =
  let x = c lxor lo in
  tbl (0x700 + (x land 0xFF))
  lxor tbl (0x600 + ((x lsr 8) land 0xFF))
  lxor tbl (0x500 + ((x lsr 16) land 0xFF))
  lxor tbl (0x400 + (x lsr 24))
  lxor tbl (0x300 + (hi land 0xFF))
  lxor tbl (0x200 + ((hi lsr 8) land 0xFF))
  lxor tbl (0x100 + ((hi lsr 16) land 0xFF))
  lxor tbl (hi lsr 24)

let crc32 ?(crc = 0) ?(pos = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - pos in
  if pos < 0 || len < 0 || len > String.length s - pos then
    invalid_arg "Snapshot.crc32: range out of bounds";
  let c = ref (crc lxor 0xFFFF_FFFF land 0xFFFF_FFFF) in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let w = String.get_int64_le s !i in
    c := step8 !c (lo32 w) (hi32 w);
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    c := tbl ((!c lxor Char.code (String.unsafe_get s j)) land 0xFF)
         lxor (!c lsr 8)
  done;
  !c lxor 0xFFFF_FFFF

(* ------------------------------------------------------------------ *)
(* Crash injection *)

type crash_spec = { after_writes : int; partial_bytes : int }

let crash_spec : crash_spec option ref =
  ref
    (match Sys.getenv_opt "POLYMG_SNAPSHOT_KILL" with
    | None -> None
    | Some s -> (
      match String.split_on_char ':' s with
      | [ w; b ] -> (
        match (int_of_string_opt w, int_of_string_opt b) with
        | Some after_writes, Some partial_bytes ->
          Some { after_writes; partial_bytes }
        | _ -> None)
      | _ -> None))

let set_crash_spec s = crash_spec := s
let writes_done = ref 0

(* ------------------------------------------------------------------ *)
(* Atomic replacement: temp + fsync + rename + directory sync *)

let fsync_dir dir =
  (* Durability of the rename itself.  Some filesystems reject fsync on
     a directory fd; that only weakens the ordering guarantee, never
     correctness of what a reader can observe, so failures are
     ignored. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    Unix.close fd

let write_all fd s len =
  let pos = ref 0 in
  while !pos < len do
    pos := !pos + Unix.write_substring fd s !pos (len - !pos)
  done

let atomic_write_string ~path s =
  incr writes_done;
  let dir = Filename.dirname path in
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let len =
    match !crash_spec with
    | Some { after_writes; partial_bytes } when after_writes = !writes_done ->
      min partial_bytes (String.length s)
    | _ -> String.length s
  in
  (try
     write_all fd s len;
     Unix.fsync fd
   with e ->
     Unix.close fd;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Unix.close fd;
  (match !crash_spec with
   | Some { after_writes; _ } when after_writes = !writes_done ->
     (* die mid-write: the temp file is (partially) on disk, the rename
        never happened — the destination must be unaffected *)
     Unix.kill (Unix.getpid ()) Sys.sigkill
   | _ -> ());
  (try Unix.rename tmp path
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  fsync_dir dir;
  Telemetry.add c_writes 1;
  Telemetry.add c_bytes (String.length s)

(* ------------------------------------------------------------------ *)
(* Framed container *)

let schema = "polymg.snapshot/1"
let magic = schema ^ "\n"
let end_marker = "POLYMG-END"

type payload = Raw of string | Floats of Buf.t

let payload_length = function
  | Raw s -> String.length s
  | Floats buf -> 8 * Buf.len buf

(* Encodes [buf] as little-endian doubles into [b] at [pos] and returns
   the CRC of the encoded bytes, computed in the same pass. *)
let encode_floats b pos buf =
  let c = ref 0xFFFF_FFFF in
  for i = 0 to Buf.len buf - 1 do
    let w = Int64.bits_of_float (Buf.unsafe_get buf i) in
    Bytes.set_int64_le b (pos + (8 * i)) w;
    c := step8 !c (lo32 w) (hi32 w)
  done;
  !c lxor 0xFFFF_FFFF

let write ~path ~meta ~payloads =
  let header =
    Json.to_string
      (Json.Obj
         [ ("schema", Json.Str schema);
           ("frames", Json.num (List.length payloads));
           ("meta", meta) ])
  in
  let frames = (Raw header :: payloads) @ [ Raw end_marker ] in
  (* each frame is a big-endian u32 length, the payload, its u32 CRC *)
  let total =
    List.fold_left
      (fun acc p -> acc + 8 + payload_length p)
      (String.length magic) frames
  in
  let b = Bytes.create total in
  Bytes.blit_string magic 0 b 0 (String.length magic);
  let pos =
    List.fold_left
      (fun pos p ->
        let len = payload_length p in
        Bytes.set_int32_be b pos (Int32.of_int len);
        let crc =
          match p with
          | Raw s ->
            Bytes.blit_string s 0 b (pos + 4) len;
            crc32 s
          | Floats buf -> encode_floats b (pos + 4) buf
        in
        Bytes.set_int32_be b (pos + 4 + len) (Int32.of_int crc);
        pos + 8 + len)
      (String.length magic) frames
  in
  assert (pos = total);
  atomic_write_string ~path (Bytes.unsafe_to_string b)

type frame = { file : string; pos : int; len : int }

let frame_contents f = String.sub f.file f.pos f.len

let read_floats f buf =
  let n = Buf.len buf in
  if f.len <> 8 * n then
    Error (Printf.sprintf "payload is %d bytes, buffer needs %d" f.len (8 * n))
  else begin
    for i = 0 to n - 1 do
      Buf.unsafe_set buf i
        (Int64.float_of_bits (String.get_int64_le f.file (f.pos + (8 * i))))
    done;
    Ok ()
  end

exception Bad of string

let read ~path =
  let reject msg =
    Telemetry.add c_read_rejected 1;
    Error msg
  in
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error m -> reject ("cannot read: " ^ m)
  | s -> (
    let n = String.length s in
    let pos = ref 0 in
    let u32 () =
      if !pos + 4 > n then raise (Bad "truncated: incomplete frame length");
      let v = Int32.to_int (String.get_int32_be s !pos) land 0xFFFF_FFFF in
      pos := !pos + 4;
      v
    in
    let frame () =
      let len = u32 () in
      if len > n - !pos - 4 then raise (Bad "truncated: incomplete frame");
      let f = { file = s; pos = !pos; len } in
      pos := !pos + len;
      let stored = u32 () in
      if crc32 s ~pos:f.pos ~len <> stored then raise (Bad "CRC mismatch");
      f
    in
    match
      if n < String.length magic
         || String.sub s 0 (String.length magic) <> magic
      then raise (Bad "bad magic (not a polymg.snapshot/1 file)");
      pos := String.length magic;
      let header =
        match Json.parse (frame_contents (frame ())) with
        | Ok h -> h
        | Error m -> raise (Bad ("header: " ^ m))
      in
      (match Option.bind (Json.member "schema" header) Json.to_str with
       | Some v when v = schema -> ()
       | _ -> raise (Bad "header: wrong schema"));
      let frames =
        match Option.bind (Json.member "frames" header) Json.to_int with
        | Some f when f >= 0 -> f
        | _ -> raise (Bad "header: missing frame count")
      in
      let payloads = List.init frames (fun _ -> frame ()) in
      if frame_contents (frame ()) <> end_marker then
        raise (Bad "bad end marker");
      if !pos <> n then raise (Bad "trailing bytes after end marker");
      let meta =
        Option.value (Json.member "meta" header) ~default:Json.Null
      in
      (meta, payloads)
    with
    | exception Bad m -> reject m
    | result ->
      Telemetry.add c_read_ok 1;
      Ok result)
