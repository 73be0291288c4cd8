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

(** {2 CRC-32} *)

val crc32 : ?crc:int -> ?pos:int -> ?len:int -> string -> int
(** IEEE CRC-32 (the zlib/PNG polynomial) of the [len] bytes of a
    string from [pos] (default: the whole string), as an unsigned
    32-bit value in an [int].  [?crc] continues a running checksum.
    Slicing-by-8: eight table lookups per eight bytes, equal to the
    byte-at-a-time definition on every input.  Raises
    [Invalid_argument] when the range is outside the string. *)

(** {2 Atomic file replacement} *)

val atomic_write_string : path:string -> string -> unit
(** [atomic_write_string ~path s] durably replaces [path] with contents
    [s]: temp file in [path]'s directory, write, [fsync], [rename],
    directory sync.  Raises [Sys_error]/[Unix.Unix_error] on I/O
    failure; on any failure the destination is untouched. *)

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

val write : path:string -> meta:Json.t -> payloads:payload list -> unit
(** Atomically writes a snapshot: magic line, CRC-framed header (the
    schema, the payload count, and the caller's [meta] document), one
    CRC-framed section per payload, and a CRC-framed end marker.  The
    file is laid out in one buffer of its exact size; a [Floats]
    payload is encoded straight from the buffer, its CRC computed in
    the same pass. *)

type frame = private { file : string; pos : int; len : int }
(** A verified payload in place: bytes [pos .. pos + len - 1] of the
    file's contents [file]. *)

val frame_contents : frame -> string

val read_floats : frame -> Repro_grid.Buf.t -> (unit, string) result
(** Decodes a [Floats] payload into an existing buffer; [Error] on a
    length mismatch. *)

val read : path:string -> (Json.t * frame list, string) result
(** Reads a snapshot back, verifying the magic, every frame's CRC (in
    place, before any payload is copied or decoded), the header's
    declared payload count, the end marker, and that no bytes trail
    it.  [Error] carries a one-line reason; any single-byte corruption
    or truncation of the file is rejected. *)
