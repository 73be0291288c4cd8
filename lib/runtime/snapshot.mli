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

val crc32 : ?crc:int -> string -> int
(** IEEE CRC-32 (the zlib/PNG polynomial) of a string, as an unsigned
    32-bit value in an [int].  [?crc] continues a running checksum. *)

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

val write : path:string -> meta:Json.t -> payloads:string list -> unit
(** Atomically writes a snapshot: magic line, CRC-framed header (the
    schema, the payload count, and the caller's [meta] document), one
    CRC-framed section per payload, and a CRC-framed end marker. *)

val read : path:string -> (Json.t * string list, string) result
(** Reads a snapshot back, verifying the magic, every frame's CRC, the
    header's declared payload count, the end marker, and that no bytes
    trail it.  [Error] carries a one-line reason; any single-byte
    corruption or truncation of the file is rejected. *)

(** {2 Grid payload codec}

    Bit-exact binary encoding for {!Repro_grid.Buf} contents
    (little-endian IEEE-754 doubles), so a restored iterate is the
    {e same} floats — a resumed solve replays the uninterrupted one
    exactly. *)

val payload_of_buf : Repro_grid.Buf.t -> string

val payload_to_buf : string -> Repro_grid.Buf.t -> (unit, string) result
(** Decodes into an existing buffer; [Error] on length mismatch. *)
