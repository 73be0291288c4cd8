module Buf = Repro_grid.Buf

let c_writes = Telemetry.counter "snapshot.writes"
let c_bytes = Telemetry.counter "snapshot.bytes_written"
let c_read_ok = Telemetry.counter "snapshot.read_ok"
let c_read_rejected = Telemetry.counter "snapshot.read_rejected"

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE / zlib polynomial, reflected) *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 ?(crc = 0) s =
  let table = Lazy.force crc_table in
  let c = ref (crc lxor 0xFFFFFFFF) in
  String.iter
    (fun ch ->
      c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF

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

let add_u32 b v =
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char b (Char.chr (v land 0xFF))

let add_frame b payload =
  add_u32 b (String.length payload);
  Buffer.add_string b payload;
  add_u32 b (crc32 payload)

let write ~path ~meta ~payloads =
  let header =
    Json.Obj
      [ ("schema", Json.Str schema);
        ("frames", Json.num (List.length payloads));
        ("meta", meta) ]
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  add_frame b (Json.to_string header);
  List.iter (add_frame b) payloads;
  add_frame b end_marker;
  atomic_write_string ~path (Buffer.contents b)

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
      let v =
        (Char.code s.[!pos] lsl 24)
        lor (Char.code s.[!pos + 1] lsl 16)
        lor (Char.code s.[!pos + 2] lsl 8)
        lor Char.code s.[!pos + 3]
      in
      pos := !pos + 4;
      v
    in
    let frame () =
      let len = u32 () in
      if !pos + len + 4 > n then raise (Bad "truncated: incomplete frame");
      let payload = String.sub s !pos len in
      pos := !pos + len;
      let stored = u32 () in
      if crc32 payload <> stored then raise (Bad "CRC mismatch");
      payload
    in
    match
      if n < String.length magic
         || String.sub s 0 (String.length magic) <> magic
      then raise (Bad "bad magic (not a polymg.snapshot/1 file)");
      pos := String.length magic;
      let header =
        match Json.parse (frame ()) with
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
      if frame () <> end_marker then raise (Bad "bad end marker");
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

(* ------------------------------------------------------------------ *)
(* Grid payload codec *)

let payload_of_buf buf =
  let len = Buf.len buf in
  let b = Bytes.create (8 * len) in
  for i = 0 to len - 1 do
    Bytes.set_int64_le b (8 * i) (Int64.bits_of_float (Buf.unsafe_get buf i))
  done;
  Bytes.unsafe_to_string b

let payload_to_buf s buf =
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
