(** Durable snapshot primitives: atomic writes and torn-write detection.

    The crash-safety layer's foundation.  Two concerns, deliberately
    separated from {e what} is being saved (solver state lives in
    [Repro_mg.Checkpoint], built on top of this module):

    - {b Atomic writes}: {!atomic_write_string} writes to a unique temp
      file in the target directory, flushes it to disk ([fsync]),
      renames it over the destination, and (best-effort) syncs the
      directory — so a reader never observes a half-written file under
      the final name, whatever instant the process dies.
    - {b Torn-write detection}: the [polymg.snapshot/1] container is a
      self-describing sequence of length-prefixed, CRC-32-framed
      sections (a JSON header, binary payloads, an end marker), so a
      file that {e did} end up torn — a partial temp file adopted by
      hand, a truncated copy, a flipped bit — is rejected by {!read}
      rather than deserialized into garbage.

    Registered counters: [snapshot.writes], [snapshot.bytes_written],
    [snapshot.read_ok], [snapshot.read_rejected] (documented in the
    README counter tables, enforced by [bench/audit_counters.exe]). *)

(** {2 CRC-32 and the grid codec}

    Both are C ([snapshot_stubs.c]); every range is checked here before
    the C code reads or writes it. *)

val crc32 : ?crc:int -> ?pos:int -> ?len:int -> string -> int
(** IEEE CRC-32 (the zlib/PNG polynomial) of the [len] bytes of a
    string from [pos] (default: the whole string), as an unsigned
    32-bit value in an [int].  [?crc] continues a running checksum.
    Slicing-by-16 in C, equal to the byte-at-a-time definition on every
    input and on either byte order.  Raises [Invalid_argument] when the
    range is outside the string. *)

val encode_floats : Repro_grid.Buf.t -> bytes -> pos:int -> int
(** [encode_floats buf b ~pos] writes the [Buf.len buf] doubles of
    [buf] (a {!Repro_grid.Buf.sub_view} writes its own range) into [b]
    from [pos] as little-endian IEEE-754 — a [memcpy] on little-endian
    hosts — and returns the CRC-32 of the bytes written.  Raises
    [Invalid_argument] when they do not fit in [b]. *)

(** {2 Atomic file replacement} *)

val fsync_dir : string -> unit
(** Best-effort [fsync] of a directory, making the renames and removals
    in it durable; a filesystem that refuses it is ignored. *)

val atomic_write_string : ?reuse:string -> path:string -> string -> unit
(** [atomic_write_string ~path s] durably replaces [path] with contents
    [s]: temp file in [path]'s directory, write, [fsync], [rename],
    directory sync.  Raises [Sys_error]/[Unix.Unix_error] on I/O
    failure; on any failure the destination is untouched.

    [?reuse] names a spare file in the same directory to recycle as the
    temp file.  When it is a regular file with one link (checked with
    [lstat], so a symlink or directory is never followed), it is renamed
    to the temp name and overwritten in place — no [O_TRUNC], then
    [ftruncate] to the new length — which spares the unlink of an old
    file and the allocation of a new one.  Otherwise a fresh temp file is
    written, as without [?reuse].  The spare's own name must never be
    one a reader trusts: until the directory sync, a power cut may leave
    the half-overwritten file under it. *)

(** {2 Crash injection (test hook)}

    The SIGKILL campaign ([bench/crashsafe.exe]) must be able to die
    {e mid-write}, deterministically.  With a crash spec armed, the
    [n]-th {!atomic_write_string} of this process writes only the first
    [bytes] bytes of the temp file, syncs them, and SIGKILLs the
    process — the rename never happens, exactly like a power cut
    between write and rename.  Also armed by the environment variable
    [POLYMG_SNAPSHOT_KILL="N:BYTES"] for exec'd children. *)

type crash_spec = { after_writes : int;  (** 1-based write index *)
                    partial_bytes : int  (** bytes flushed before death *) }

val set_crash_spec : crash_spec option -> unit

(** {2 The [polymg.snapshot/1] container} *)

val schema : string
(** ["polymg.snapshot/1"]. *)

type payload =
  | Raw of string  (** bytes stored as they are *)
  | Floats of Repro_grid.Buf.t
      (** the buffer's doubles as little-endian IEEE-754, bit-exact, so
          a restored iterate is the {e same} floats and a resumed solve
          replays the uninterrupted one exactly *)

val write :
  ?reuse:string ->
  ?scratch:bytes ref ->
  path:string ->
  meta:Json.t ->
  payload list ->
  unit
(** Atomically writes a snapshot: magic line, CRC-framed header (the
    schema, the payload count, and the caller's [meta] document), one
    CRC-framed section per payload, and a CRC-framed end marker.  The
    file is laid out in one buffer and its first bytes written: with
    [?scratch], [!scratch] when it is long enough, otherwise a new
    buffer of the file's exact size left in [scratch] for the next
    write, so a writer saving same-sized files allocates it once.  A
    [Floats] payload is copied in by {!encode_floats}, which returns
    its CRC.  [?reuse] is {!atomic_write_string}'s. *)

type frame = private { file : string; pos : int; len : int }
(** A verified payload in place: bytes [pos .. pos + len - 1] of the
    file's contents [file]. *)

val frame_contents : frame -> string

val read_floats : frame -> Repro_grid.Buf.t -> (unit, string) result
(** Decodes a [Floats] payload into an existing buffer (the inverse of
    {!encode_floats}: a [memcpy] on little-endian hosts); [Error] on a
    length mismatch. *)

val read : path:string -> (Json.t * frame list, string) result
(** Reads a snapshot back, verifying the magic, every frame's CRC (in
    place, before any payload is copied or decoded), the header's
    declared payload count, the end marker, and that no bytes trail
    it.  [Error] carries a one-line reason; any single-byte corruption
    or truncation of the file is rejected. *)
