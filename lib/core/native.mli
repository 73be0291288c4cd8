(** Native execution backend: emitted C compiled to dlopen'd kernels.

    Takes a compiled plan, emits its C through the {!C_emit.runnable}
    path plus a one-call [polymg_entry] that hands the pipeline its
    buffers, invokes the system C compiler to build a shared object,
    [dlopen]s it and calls the entry point directly on the grids'
    Bigarray storage.  The kernel allocates nothing: it writes the
    caller's output grids in place and keeps its intermediates at
    emit-time offsets ({!C_emit.arena_bytes}) of an arena the loaded
    kernel owns.  This is the only place emitted C is compiled and
    run: the solver's native backend and the conformance harness's
    backend axis both go through it.

    Compiled kernels are cached on disk under {!cache_dir}, keyed by
    plan digest + compiler identity + host CPU fingerprint + flags +
    emitter version ({!key})
    ([<key>.c], [<key>.so], [<key>.meta], [<key>.log]).  The [.so] is
    installed with {!Repro_runtime.Snapshot.atomic_write_string} and
    carries a CRC-32 sidecar re-verified before every [dlopen]: a torn
    or corrupt cache entry is rejected (counted as
    [native.cache_rejects]) and recompiled, never executed.

    Counter family: [native.compiles], [native.compile_ms],
    [native.cache_hits], [native.cache_rejects], [native.kernel_calls],
    [native.fallbacks].  Compile failures and cache rejections emit
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
(** A usable C compiler was found (or an override is installed). *)

val cc : unit -> string option
(** The compiler that will be used: the test override or [POLYMG_CC]
    verbatim when set, otherwise the first of [gcc], [cc] that answers
    [--version].  The override and [POLYMG_CC] are read on every call;
    the gcc-then-cc probe runs once per process and its answer is
    kept. *)

val set_compiler_override : string option -> unit
(** Test hook: force a specific compiler command, bypassing discovery
    and probing (so a deliberately broken command exercises the
    compile-failure path). *)

val cache_dir : unit -> string
(** Kernel cache directory: {!set_cache_dir} override, else
    [POLYMG_NATIVE_CACHE], else [<tmpdir>/polymg-native-cache].
    Created on first compile. *)

val set_cache_dir : string option -> unit

val cflags : string
(** The compiler flags of every kernel: [-O1 -fexpensive-optimizations
    -std=c99 -ffp-contract=off -fopenmp-simd -march=native -fPIC
    -shared].  [-march=native] builds for the CPU that compiles, so the
    host's fingerprint is part of the cache key; [-ffp-contract=off]
    keeps every result bit for bit equal to the interpreter's at any
    vector width. *)

val compiler_identity : string -> string
(** [compiler_identity c] is [c] and the first line [c --version]
    prints, probed once per compiler per process. *)

val host_fingerprint : unit -> string
(** The CPU [-march=native] targets: the vendor, family, model and
    feature-flag lines of the first processor in [/proc/cpuinfo] (the
    implementer, part and features lines on arm64); empty where that
    file cannot be read.  Read once per process; starts no process. *)

val key : digest:string -> compiler_id:string -> host:string -> string
(** The pure kernel key: a hex digest over the emitter version, a plan
    digest, a {!compiler_identity}, a {!host_fingerprint} and
    {!cflags}. *)

val cache_key : Plan.t -> compiler:string -> string
(** [key] of the plan's digest, the compiler's identity and this host:
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
