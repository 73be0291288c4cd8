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
    plan digest + compiler identity + flags + emitter version
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

val cache_key : Plan.t -> compiler:string -> string
(** Content key of a plan's compiled kernel (hex digest over plan
    digest, compiler identity, flags, emitter version). *)

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
