(** Native execution backend: emitted C compiled to dlopen'd kernels.

    Takes a compiled plan, emits its C with a one-call [polymg_entry]
    that hands the pipeline its buffers ({!C_emit.entry_source}),
    invokes the system C compiler to build a shared object, [dlopen]s
    it and calls the entry point directly on the grids' Bigarray
    storage.  The compiler runs twice, with no shell: [<cc> ]{!cflags}
    [ -pipe -c -o <obj> <key>.c], then [<cc> ]{!cflags}
    [ -o <so> <obj> -lm], both writing into a private directory of the
    cache that is removed afterwards.  Neither step leaves the compiler
    a temporary file of its own, and neither output name exists before
    the compiler creates it: removing a file that was truncated or
    whose blocks were allocated can wait tens of milliseconds on the
    file system, a third of a cold compile.  Both steps write one
    [<key>.log]; either failing fails the load ([compile failed], naming
    the step).  The kernel allocates nothing: it writes the
    caller's output grids in place and keeps its intermediates at
    emit-time offsets ({!C_emit.arena_bytes}) of an arena the loaded
    kernel owns.  This is the only place emitted C is compiled and
    run: the solver's native backend and the conformance harness's
    backend axis both go through it.

    Compiled kernels are cached on disk under {!cache_dir}, keyed by
    plan digest + compiler identity + host CPU fingerprint + flags +
    the digest of the emitter's source ({!emitter_digest}, {!key})
    ([<key>.c], [<key>.so], [<key>.meta], [<key>.log]).  The [.so] is
    installed with {!Repro_runtime.Snapshot.atomic_write_string} and
    carries a CRC-32 sidecar re-verified before every [dlopen]: a torn
    or corrupt cache entry is rejected (counted as
    [native.cache_rejects]) and recompiled, never executed.

    The same directory holds the probe memo, [compilers.probe]: for
    each compiler command a process has probed, its [--version] line
    and the (device, inode, size, mtime, ctime) of the file the command
    resolves to on [PATH] and of the compiler proper it names
    ([-print-prog-name=cc1]), when that is a file.  A process names its
    compiler from the memo while the command resolves to the same file
    and every recorded file stats the same, and starts no process to do
    so; otherwise it probes and rewrites the memo.  A torn, corrupt or
    foreign memo is ignored; a failed probe, or one of a file changed
    in the two seconds before it, is never memoized.  A kernel's key
    reads the same [--version] line either way.

    Counter family: [native.compiles], [native.compile_ms],
    [native.cache_hits], [native.cache_rejects], [native.kernel_calls],
    [native.fallbacks], [native.probes].  Compile failures and cache rejections emit
    flight-recorder events; the Auto-mode interpreter fallback
    additionally files an incident ({!note_fallback}).

    The backend is selected per plan through {!Options.backend}; the
    dispatch lives in [Repro_mg.Solver.plan_stepper]. *)

type kernel
(** A loaded kernel: a dlopen handle, the resolved entry point, the
    expected buffer signature, and the zero-filled arena of
    {!C_emit.arena_bytes} bytes allocated at load.  Calls on one kernel
    are serialized (they share the arena). *)

exception Unavailable of string
(** Raised by callers (the solver) when [Options.Native] is forced but
    the backend cannot run — no compiler, unemittable plan, or a
    compile failure. *)

val available : unit -> bool
(** A usable C compiler was found (or an override is installed); like
    {!cc}, starts no process when the probe memo names gcc or cc. *)

val cc : unit -> string option
(** The compiler that will be used: the test override or [POLYMG_CC]
    verbatim when set, otherwise the first of [gcc], [cc] that answers
    [--version].  A compiler is one executable, run directly with the
    kernel's flags and no shell, so [POLYMG_CC] names a program (a
    wrapper script for extra flags), not a command line.  The override
    and [POLYMG_CC] are read on every call; the gcc-then-cc discovery
    runs once per process, through the probe memo, and its answer is
    kept. *)

val set_compiler_override : string option -> unit
(** Test hook: force a specific compiler command, bypassing discovery
    (so a deliberately broken command exercises the compile-failure
    path). *)

val forget_probes : unit -> unit
(** Test hook: forget this process's compiler lookups and kernel keys,
    as a fresh process starts; the next lookup reads the probe memo of
    {!cache_dir} or probes. *)

val cache_dir : unit -> string
(** Kernel cache directory: {!set_cache_dir} override, else
    [POLYMG_NATIVE_CACHE], else [<tmpdir>/polymg-native-cache].
    Created on first compile. *)

val set_cache_dir : string option -> unit

val cflags : string
(** The compiler flags of every kernel, given verbatim to both the
    compile and the link step: [-O1 -fexpensive-optimizations -std=c99
    -ffp-contract=off -fopenmp-simd -march=native -fPIC -shared]
    ([-shared] does nothing under [-c]).  [-march=native] builds for
    the CPU that compiles, so the
    host's fingerprint is part of the cache key; [-ffp-contract=off]
    keeps every result bit for bit equal to the interpreter's at any
    vector width. *)

val compiler_identity : string -> string
(** [compiler_identity c] is [c ^ "|"] and the first line [c --version]
    prints (nothing when it cannot run or exits non-zero).  It is looked
    up once per compiler per process: from the probe memo when its
    entry for [c] still holds, else by running [c --version] (and
    [c -print-prog-name=cc1]) directly, with no shell, each process
    counted in [native.probes].  The compiler discovery's lookup of gcc
    or cc serves as theirs. *)

val host_fingerprint : unit -> string
(** The CPU [-march=native] targets: the vendor, family, model and
    feature-flag lines of the first processor in [/proc/cpuinfo] (the
    implementer, part and features lines on arm64); empty where that
    file cannot be read.  Read once per process; starts no process. *)

val emitter_digest : string
(** The MD5 of [c_emit.ml], the source that prints all of a kernel's C
    (entry glue included, {!C_emit.entry_source}), taken when the
    library is built: any change to it moves every {!cache_key}, so a
    kernel cache never serves a kernel an older emitter printed.  A
    change to this module's loading, caching or compiling moves no key
    ({!key} hashes {!cflags} itself). *)

val key :
  emitter:string -> digest:string -> compiler_id:string -> host:string -> string
(** The pure kernel key: a hex digest over an {!emitter_digest}, a plan
    digest, a {!compiler_identity}, a {!host_fingerprint} and
    {!cflags}. *)

val cache_key : Plan.t -> compiler:string -> string
(** [key] of this build's {!emitter_digest}, the plan's digest, the
    compiler's identity and this host:
    a kernel built on one CPU is never loaded by a cache shared with
    another. *)

val load : Plan.t -> (kernel, string) result
(** Loads (compiling on a cache miss) the kernel for a plan.  Kernels
    are interned per cache key: a second load of the same plan in the
    same process is a memory hit; a fresh process hits the disk cache.
    [Error] when no compiler exists, the plan is not emittable, or
    compilation fails. *)

val run :
  kernel ->
  inputs:(int * Repro_grid.Grid.t) list ->
  outputs:(int * Repro_grid.Grid.t) list ->
  unit
(** Runs the kernel with the given input/output grids, keyed by func id
    like {!Exec.run}: output buffers are overwritten in place (interior
    and ghost layers), inputs are never modified.  Buffer lengths are
    validated against the plan the kernel was compiled from.
    @raise Invalid_argument on a missing grid or a length mismatch. *)

val so_path : kernel -> string

val unload_all : unit -> unit
(** Drops every interned kernel and [dlclose]s its handle.  Tests use
    this to force the next {!load} back to the disk cache. *)

val note_fallback : digest:string -> variant:string -> reason:string -> unit
(** Records an Auto-mode fallback to the interpreter: bumps
    [native.fallbacks] and, when the flight recorder is armed, emits an
    event and files a [native-fallback] incident. *)
