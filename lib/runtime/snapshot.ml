module Buf = Repro_grid.Buf

let c_writes = Telemetry.counter "snapshot.writes"
let c_bytes = Telemetry.counter "snapshot.bytes_written"
let c_read_ok = Telemetry.counter "snapshot.read_ok"
let c_read_rejected = Telemetry.counter "snapshot.read_rejected"

(* ------------------------------------------------------------------ *)
(* CRC-32 and the grid codec, in C (snapshot_stubs.c) *)

external crc_init : unit -> int = "polymg_snapshot_crc_init"

(* the CRC's code paths (0 the tables, 1 carry-less multiply), as a bit
   mask of those this build and host run, read once; the widest is used *)
let paths = crc_init ()
let widest = if paths land 2 <> 0 then 1 else 0

(* The unchecked entry points: callers check every range first. *)
external crc32_range : int -> int -> string -> int -> int -> int
  = "polymg_snapshot_crc32"
[@@noalloc]

external encode_range : int -> Buf.data -> int -> bytes -> int -> int
  = "polymg_snapshot_encode_floats"
[@@noalloc]

external decode_range : string -> int -> Buf.data -> int -> unit
  = "polymg_snapshot_decode_floats"
[@@noalloc]

let check_range what ~pos ~len s =
  let len = match len with Some l -> l | None -> String.length s - pos in
  if pos < 0 || len < 0 || len > String.length s - pos then
    invalid_arg (what ^ ": range out of bounds");
  len

let crc32 ?(crc = 0) ?(pos = 0) ?len s =
  crc32_range widest crc s pos (check_range "Snapshot.crc32" ~pos ~len s)

let crc32_paths ?(crc = 0) ?(pos = 0) ?len s =
  let len = check_range "Snapshot.crc32_paths" ~pos ~len s in
  List.filter_map
    (fun (p, name) ->
      if paths land (1 lsl p) = 0 then None
      else Some (name, crc32_range p crc s pos len))
    [ (0, "table"); (1, "pclmul") ]

let encode_floats buf b ~pos =
  let n = Buf.len buf in
  if pos < 0 || pos > Bytes.length b || n > (Bytes.length b - pos) / 8 then
    invalid_arg "Snapshot.encode_floats: range out of bounds";
  encode_range widest buf.Buf.data n b pos

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

(* Counts a write; the bytes of a [len]-byte image this write puts on
   disk before the process dies, when the crash spec arms it. *)
let armed_prefix ~len =
  incr writes_done;
  match !crash_spec with
  | Some { after_writes; partial_bytes } when after_writes = !writes_done ->
    Some
      (max 0 (min len (if partial_bytes < 0 then len + partial_bytes
                       else partial_bytes)))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Writing: temp + fsync + rename + directory sync, or in place *)

let c_fsyncs = Telemetry.counter "snapshot.fsyncs"
let c_dir_fsyncs = Telemetry.counter "snapshot.dir_fsyncs"

let fsync fd =
  Unix.fsync fd;
  Telemetry.add c_fsyncs 1

(* Best-effort: makes the renames and removals in [dir] durable. *)
let fsync_dir dir =
  (* Durability of the rename itself.  Some filesystems reject fsync on
     a directory fd; that only weakens the ordering guarantee, never
     correctness of what a reader can observe, so failures are
     ignored. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (match Unix.fsync fd with
     | () -> Telemetry.add c_dir_fsyncs 1
     | exception Unix.Unix_error _ -> ());
    Unix.close fd

let write_all fd s len =
  let pos = ref 0 in
  while !pos < len do
    pos := !pos + Unix.write_substring fd s !pos (len - !pos)
  done

(* The first [len] bytes of [s] to [fd] from its offset, the file cut
   there, then [fsync]; an armed crash spec writes its prefix, syncs it
   and dies here. *)
let write_synced fd s ~len =
  match armed_prefix ~len with
  | Some prefix ->
    write_all fd s prefix;
    fsync fd;
    Unix.kill (Unix.getpid ()) Sys.sigkill
  | None ->
    write_all fd s len;
    Unix.ftruncate fd len;
    fsync fd

let count_write len =
  Telemetry.add c_writes 1;
  Telemetry.add c_bytes len

(* [atomic_write_string] of the first [len] bytes of [s]. *)
let atomic_write ~path s ~len =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  (* a crash spec's death leaves the temp file (partially) on disk and
     never renames it: the destination must be unaffected *)
  (try write_synced fd s ~len
   with e ->
     Unix.close fd;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Unix.close fd;
  (try Unix.rename tmp path
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  fsync_dir (Filename.dirname path);
  count_write len

let atomic_write_string ~path s = atomic_write ~path s ~len:(String.length s)

external open_nofollow : string -> Unix.file_descr
  = "polymg_snapshot_open_nofollow"

(* ------------------------------------------------------------------ *)
(* Framed container *)

let schema = "polymg.snapshot/1"
let magic = schema ^ "\n"
let end_marker = "POLYMG-END"

type payload = Raw of string | Floats of Buf.t

let payload_length = function
  | Raw s -> String.length s
  | Floats buf -> 8 * Buf.len buf

(* The header: schema, payload count, the payloads' CRCs as 8 lower-case
   hex digits each (the binding key), and the caller's document.  The
   hex is fixed-width, so the header is laid out before any payload is
   encoded and its CRCs written in afterwards; [crcs_at] is the offset
   of the first digit. *)
let header_of ~meta n =
  let head crcs =
    [ ("schema", Json.Str schema); ("frames", Json.num n);
      ("crcs", Json.Str crcs) ]
  in
  ( Json.to_string (Json.Obj (head (String.make (8 * n) '0') @ [ ("meta", meta) ])),
    String.length (Json.to_string (Json.Obj (head ""))) - 2 )

(* The file a snapshot of [payloads] is, laid out in one buffer (see
   [write]); returns the buffer and the file's length. *)
let layout ?scratch ~meta payloads =
  let header, crcs_at = header_of ~meta (List.length payloads) in
  let frames = (Raw header :: payloads) @ [ Raw end_marker ] in
  (* each frame is a big-endian u32 length, the payload, its u32 CRC *)
  let total =
    List.fold_left
      (fun acc p -> acc + 8 + payload_length p)
      (String.length magic) frames
  in
  let b =
    match scratch with
    | Some r when Bytes.length !r >= total -> !r
    | Some r ->
      (* room for a header that grows by a history entry a save *)
      r := Bytes.create (total + (total lsr 4));
      !r
    | None -> Bytes.create total
  in
  Bytes.blit_string magic 0 b 0 (String.length magic);
  let frame pos p =
    let len = payload_length p in
    Bytes.set_int32_be b pos (Int32.of_int len);
    let crc =
      match p with
      | Raw s ->
        Bytes.blit_string s 0 b (pos + 4) len;
        crc32 s
      | Floats buf -> encode_floats buf b ~pos:(pos + 4)
    in
    Bytes.set_int32_be b (pos + 4 + len) (Int32.of_int crc);
    (pos + 8 + len, crc)
  in
  let header_pos = String.length magic in
  let pos, _ = frame header_pos (Raw header) in
  let pos, crcs = List.fold_left_map frame pos payloads in
  let pos, _ = frame pos (Raw end_marker) in
  assert (pos = total);
  (* bind the payloads into the header, then checksum the header *)
  List.iteri
    (fun i crc ->
      Bytes.blit_string (Printf.sprintf "%08x" crc) 0 b
        (header_pos + 4 + crcs_at + (8 * i))
        8)
    crcs;
  let hlen = String.length header in
  Bytes.set_int32_be b
    (header_pos + 4 + hlen)
    (Int32.of_int (crc32 (Bytes.unsafe_to_string b) ~pos:(header_pos + 4)
                     ~len:hlen));
  (Bytes.unsafe_to_string b, total)

let write ?scratch ~path ~meta payloads =
  let s, len = layout ?scratch ~meta payloads in
  atomic_write ~path s ~len

type frame = { file : string; pos : int; len : int }

let frame_contents f = String.sub f.file f.pos f.len

let read_floats f buf =
  let n = Buf.len buf in
  if f.len <> 8 * n then
    Error (Printf.sprintf "payload is %d bytes, buffer needs %d" f.len (8 * n))
  else begin
    decode_range f.file f.pos buf.Buf.data n;
    Ok ()
  end

exception Bad of string

(* A file's contents and a read position in them. *)
type cursor = { s : string; mutable at : int }

let u32 c =
  if c.at + 4 > String.length c.s then
    raise (Bad "truncated: incomplete frame length");
  let v = Int32.to_int (String.get_int32_be c.s c.at) land 0xFFFF_FFFF in
  c.at <- c.at + 4;
  v

(* The next frame, its CRC verified, and that CRC. *)
let next_frame c =
  let len = u32 c in
  if len > String.length c.s - c.at - 4 then
    raise (Bad "truncated: incomplete frame");
  let f = { file = c.s; pos = c.at; len } in
  c.at <- c.at + len;
  let stored = u32 c in
  if crc32 c.s ~pos:f.pos ~len <> stored then raise (Bad "CRC mismatch");
  (f, stored)

(* The magic line and the header frame: the header, its payload count,
   and the payloads' CRCs it binds ([None] for an older writer's header,
   which has no such key). *)
let read_header c =
  let m = String.length magic in
  if String.length c.s < m || String.sub c.s 0 m <> magic then
    raise (Bad "bad magic (not a polymg.snapshot/1 file)");
  c.at <- m;
  let header =
    match Json.parse (frame_contents (fst (next_frame c))) with
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
  let bound =
    match Json.member "crcs" header with
    | None -> None
    | Some (Json.Str h) when String.length h = 8 * frames -> Some h
    | Some _ -> raise (Bad "header: malformed payload CRCs")
  in
  (header, frames, bound)

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
    let c = { s; at = 0 } in
    match
      let header, frames, bound = read_header c in
      let payloads =
        List.init frames (fun i ->
            let f, crc = next_frame c in
            (match bound with
             | Some h when String.sub h (8 * i) 8 <> Printf.sprintf "%08x" crc
               ->
               raise (Bad "payload CRC differs from the header's")
             | _ -> ());
            f)
      in
      if frame_contents (fst (next_frame c)) <> end_marker then
        raise (Bad "bad end marker");
      if c.at <> String.length s then
        raise (Bad "trailing bytes after end marker");
      let meta =
        Option.value (Json.member "meta" header) ~default:Json.Null
      in
      (meta, payloads)
    with
    | exception Bad m -> reject m
    | result ->
      Telemetry.add c_read_ok 1;
      Ok result)

(* Up to [len] bytes from [fd]'s offset; fewer only at end of file. *)
let read_upto fd len =
  let b = Bytes.create len in
  let rec go got =
    if got = len then got
    else match Unix.read fd b got (len - got) with 0 -> got | k -> go (got + k)
  in
  Bytes.sub_string b 0 (go 0)

(* The verified header of the [size]-byte file open at [fd] (at offset
   0), read without its payloads: [read_header]'s result, or [Bad]. *)
let head_of fd ~size =
  let m = String.length magic in
  let head = read_upto fd (m + 4) in
  if String.length head < m + 4 then raise (Bad "truncated: no header");
  let hlen = Int32.to_int (String.get_int32_be head m) land 0xFFFF_FFFF in
  if hlen > size - m - 8 then raise (Bad "truncated: incomplete frame");
  read_header { s = head ^ read_upto fd (hlen + 4); at = 0 }

(* Whether the [size]-byte file open at [fd] (at offset 0) starts with a
   verified header that binds its payloads' CRCs. *)
let binds fd ~size =
  match head_of fd ~size with
  | _, _, bound -> bound <> None
  | exception Bad _ -> false

let read_meta ~path =
  let reject msg =
    Telemetry.add c_read_rejected 1;
    Error msg
  in
  match
    let fd = Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> head_of fd ~size:(Unix.fstat fd).Unix.st_size)
  with
  | header, _, _ ->
    Ok (Option.value (Json.member "meta" header) ~default:Json.Null)
  | exception Bad m -> reject m
  | exception Unix.Unix_error (e, _, _) ->
    reject ("cannot read: " ^ Unix.error_message e)

let rewrite ?scratch ~over ~path ~meta payloads =
  match open_nofollow over with
  | exception Unix.Unix_error _ -> false
  | fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        match Unix.fstat fd with
        | { Unix.st_kind = Unix.S_REG; st_nlink = 1; st_size = size; _ }
          when (try binds fd ~size with Unix.Unix_error _ -> false) ->
          let s, len = layout ?scratch ~meta payloads in
          ignore (Unix.lseek fd 0 Unix.SEEK_SET);
          write_synced fd s ~len;
          Unix.rename over path;
          count_write len;
          true
        | _ | (exception Unix.Unix_error _) -> false)
