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

(* [spare] renamed to [tmp] when it is a regular file with no other
   link: overwriting it in place must not change a file under any other
   name. *)
let recycle spare ~tmp =
  match Unix.lstat spare with
  | { Unix.st_kind = Unix.S_REG; st_nlink = 1; _ } -> (
    match Unix.rename spare tmp with
    | () -> true
    | exception Unix.Unix_error _ -> false)
  | _ | (exception Unix.Unix_error _) -> false

(* [atomic_write_string] of the first [len] bytes of [s]. *)
let atomic_write ?reuse ~path s ~len =
  incr writes_done;
  let dir = Filename.dirname path in
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let recycled =
    match reuse with Some spare -> recycle spare ~tmp | None -> false
  in
  let fd =
    Unix.openfile tmp
      (if recycled then [ Unix.O_WRONLY ]
       else [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ])
      0o644
  in
  let written =
    match !crash_spec with
    | Some { after_writes; partial_bytes } when after_writes = !writes_done ->
      min partial_bytes len
    | _ -> len
  in
  (try
     write_all fd s written;
     if recycled then Unix.ftruncate fd written;
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
  Telemetry.add c_bytes len

let atomic_write_string ?reuse ~path s =
  atomic_write ?reuse ~path s ~len:(String.length s)

(* ------------------------------------------------------------------ *)
(* Framed container *)

let schema = "polymg.snapshot/1"
let magic = schema ^ "\n"
let end_marker = "POLYMG-END"

type payload = Raw of string | Floats of Buf.t

let payload_length = function
  | Raw s -> String.length s
  | Floats buf -> 8 * Buf.len buf

let write ?reuse ?scratch ~path ~meta payloads =
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
  let b =
    match scratch with
    | Some r when Bytes.length !r >= total -> !r
    | Some r ->
      r := Bytes.create total;
      !r
    | None -> Bytes.create total
  in
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
          | Floats buf -> encode_floats buf b ~pos:(pos + 4)
        in
        Bytes.set_int32_be b (pos + 4 + len) (Int32.of_int crc);
        pos + 8 + len)
      (String.length magic) frames
  in
  assert (pos = total);
  atomic_write ?reuse ~path (Bytes.unsafe_to_string b) ~len:total

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
