(** Durable snapshot primitives: atomic writes, in-place rewrites and
    torn-write detection.

    The crash-safety layer's foundation.  Two concerns, deliberately
    separated from {e what} is being saved (solver state lives in
    [Repro_mg.Checkpoint], built on top of this module):

    - {b Durable writes}: {!atomic_write_string} and {!write} write to a
      unique temp file in the target directory, flush it to disk
      ([fsync]), rename it over the destination, and (best-effort) sync
      the directory — so a reader never observes a half-written file
      under the final name, whatever instant the process dies.
      {!rewrite} instead overwrites an existing file in place, [fsync]s
      it and renames it, with no directory sync: cheaper, and safe only
      because the reader below rejects every torn mix of old and new
      bytes, and because the caller never rewrites a file it still
      needs (a rename the directory never synced may be undone by a
      power cut, leaving the new bytes under the old name).
    - {b Torn-write detection}: the [polymg.snapshot/1] container is a
      self-describing sequence of length-prefixed, CRC-32-framed
      sections (a JSON header, binary payloads, an end marker), and the
      header names every payload's CRC, so a file that {e did} end up
      torn — an in-place rewrite cut short, a partial temp file adopted
      by hand, a truncated copy, a flipped bit, a header of one write
      before the payloads of another — is rejected by {!read} rather
      than deserialized into garbage.

    Registered counters: [snapshot.writes], [snapshot.bytes_written],
    [snapshot.fsyncs], [snapshot.dir_fsyncs], [snapshot.read_ok],
    [snapshot.read_rejected] (documented in the README counter tables,
    enforced by [bench/audit_counters.exe]). *)

(** {2 CRC-32 and the grid codec}

    Both are C ([snapshot_stubs.c]); every range is checked here before
    the C code reads or writes it. *)

val crc32 : ?crc:int -> ?pos:int -> ?len:int -> string -> int
(** IEEE CRC-32 (the zlib/PNG polynomial) of the [len] bytes of a
    string from [pos] (default: the whole string), as an unsigned
    32-bit value in an [int].  [?crc] continues a running checksum.
    In C, equal to the byte-at-a-time definition on every input and on
    either byte order: a carry-less-multiply fold on x86-64 hosts with
    PCLMULQDQ and SSE4.1 (picked once, at start-up), slicing-by-16
    elsewhere and for ranges under 64 bytes.  Raises [Invalid_argument]
    when the range is outside the string. *)

val crc32_paths :
  ?crc:int -> ?pos:int -> ?len:int -> string -> (string * int) list
(** {!crc32} through each compiled code path this build and host can
    run, by name: ["table"] (slicing-by-16) always, and ["pclmul"] on
    x86-64 hosts with PCLMULQDQ and SSE4.1, which {!crc32} and
    {!encode_floats} then take.  Every path must give the same value.
    For tests.  Raises [Invalid_argument] as {!crc32}. *)

val encode_floats : Repro_grid.Buf.t -> bytes -> pos:int -> int
(** [encode_floats buf b ~pos] writes the [Buf.len buf] doubles of
    [buf] (a {!Repro_grid.Buf.sub_view} writes its own range) into [b]
    from [pos] as little-endian IEEE-754 — a [memcpy] on little-endian
    hosts — and returns the CRC-32 of the bytes written (on the
    carry-less-multiply path, in one pass that copies and folds each
    block).  Raises
    [Invalid_argument] when they do not fit in [b]. *)

(** {2 Durable writes} *)

val atomic_write_string : path:string -> string -> unit
(** [atomic_write_string ~path s] durably replaces [path] with contents
    [s]: temp file in [path]'s directory, write, [fsync], [rename],
    directory sync.  Raises [Sys_error]/[Unix.Unix_error] on I/O
    failure; on any failure the destination is untouched. *)

(** {2 Crash injection (test hook)}

    The SIGKILL campaign ([bench/crashsafe.exe]) must be able to die
    {e mid-write}, deterministically.  With a crash spec armed, the
    [n]-th write of this process ({!atomic_write_string}, {!write} or
    {!rewrite}) writes only the first [bytes] bytes of its file — all
    but the last [-bytes] when [bytes] is negative — syncs them, and
    SIGKILLs the process before any [ftruncate] or rename: exactly like
    a power cut in the middle of the write.  Also armed by the
    environment variable [POLYMG_SNAPSHOT_KILL="N:BYTES"] for exec'd
    children. *)

type crash_spec = {
  after_writes : int;  (** 1-based write index *)
  partial_bytes : int;
      (** bytes flushed before death; negative: counted back from the
          end of the file being written *)
}

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
  ?scratch:bytes ref -> path:string -> meta:Json.t -> payload list -> unit
(** Atomically writes a snapshot: magic line, CRC-framed header (the
    schema, the payload count, each payload's CRC-32 as 8 lower-case
    hex digits under ["crcs"], and the caller's [meta] document), one
    CRC-framed section per payload, and a CRC-framed end marker.  The
    file is laid out in one buffer and its first bytes written: with
    [?scratch], [!scratch] when it is long enough, otherwise a new
    buffer a sixteenth longer than the file, left in [scratch] for the
    next writes, so a writer saving same-sized files, or files that grow
    slowly (a checkpoint's header gains a history entry a save),
    allocates it once.  A
    [Floats] payload is copied in by {!encode_floats}, which returns
    its CRC; the hex is fixed-width, so the header is laid out first and
    the CRCs written into it afterwards, and each payload is read once. *)

val rewrite :
  ?scratch:bytes ref ->
  over:string ->
  path:string ->
  meta:Json.t ->
  payload list ->
  bool
(** [rewrite ~over ~path ~meta payloads] writes the snapshot {!write}
    would, over the existing file [over] in place, in one pass from its
    first byte: then [ftruncate], [fsync], and a rename of [over] to
    [path] (the same directory), with no directory sync.  [true] when it
    did.  [false], with nothing written, unless [over] — opened with
    [O_NOFOLLOW], so a symbolic link is never followed — is a regular
    file with one link whose header verifies and binds its payloads'
    CRCs: a file of an older writer is never rewritten in place, since
    its header could not expose a torn mix with the new bytes.  Raises
    [Unix.Unix_error] on a failed write, which leaves [over] torn.

    The caller must not need [over]'s contents: until it has returned,
    and after a power cut until the directory is next synced, [over]'s
    name may show a torn or a complete new file, which {!read} rejects
    or reads as what it holds. *)

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
    declared payload count, that each payload's CRC is the one the
    header names, the end marker, and that no bytes trail it.  A header
    without the ["crcs"] key (an older writer's) still reads, checked
    frame by frame.  [Error] carries a one-line reason; any single-byte
    corruption or truncation of the file is rejected, and so is the
    header of one write spliced before the payloads of another. *)

val read_meta : path:string -> (Json.t, string) result
(** The [meta] document of a snapshot's header, read without its
    payloads: the magic and the header frame's CRC are verified, nothing
    after it is, so a file whose header reads may still be rejected by
    {!read}.  A failure counts in [snapshot.read_rejected]; a success in
    no counter, since the file has not been read. *)
