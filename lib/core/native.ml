(* Native execution backend: the emitted C of a plan with its entry
   function (C_emit.entry_source), compiled by the system C compiler in
   two steps, to an object and then linked into a shared object, both
   under fresh names, dlopen'd, and called directly on the caller's grid
   buffers.  Everything observable about it is counted:

     native.compiles       kernels compiled (cache misses)
     native.compile_ms     total wall-clock spent in the C compiler, both steps
     native.cache_hits     loads served from memory or the disk cache
     native.cache_rejects  torn/corrupt cached .so files rejected
     native.kernel_calls   entry-point invocations
     native.fallbacks      Auto-mode falls back to the interpreter
     native.probes         compiler processes started to name a compiler

   Compiled kernels are built for the CPU that runs them (-march=native)
   and cached on disk keyed by plan digest + compiler identity + host
   CPU fingerprint + flags + the digest of the emitter's source.  Installs go through
   Snapshot.atomic_write_string (temp + fsync + rename), and every
   cached .so carries a CRC-32 sidecar that is re-verified before
   dlopen — concurrent solves never observe a torn shared object, and a
   corrupt one is rejected (counted) and recompiled.  The compiler
   identity comes from a probe memo in the same directory while the
   compiler's files are unchanged, so a disk hit in a fresh process
   runs no process at all. *)

open Repro_ir

module Telemetry = Repro_runtime.Telemetry
module Flightrec = Repro_runtime.Flightrec
module Snapshot = Repro_runtime.Snapshot
module Json = Repro_runtime.Json
module Grid = Repro_grid.Grid
module Buf = Repro_grid.Buf

external ndl_open : string -> nativeint = "polymg_native_dlopen"
external ndl_sym : nativeint -> string -> nativeint = "polymg_native_dlsym"
external ndl_close : nativeint -> unit = "polymg_native_dlclose"
external ncall : nativeint -> Buf.data array -> int = "polymg_native_call"

exception Unavailable of string

external build_emitter_digest : unit -> string = "polymg_native_emitter_digest"

let emitter_digest = build_emitter_digest ()
let meta_schema = "polymg.native-meta/1"
(* At -O1 gcc inserts vzeroupper only with -fexpensive-optimizations;
   without it the caller runs with dirty upper AVX state after every
   call.  Both compiler steps take these flags verbatim ([-shared] does
   nothing under [-c]).  CI reads this line with sed: keep it one
   literal. *)
let cflags = "-O1 -fexpensive-optimizations -std=c99 -ffp-contract=off -fopenmp-simd -march=native -fPIC -shared"

let c_compiles = Telemetry.counter "native.compiles"
let c_compile_ms = Telemetry.counter "native.compile_ms"
let c_cache_hits = Telemetry.counter "native.cache_hits"
let c_cache_rejects = Telemetry.counter "native.cache_rejects"
let c_kernel_calls = Telemetry.counter "native.kernel_calls"
let c_fallbacks = Telemetry.counter "native.fallbacks"
let c_probes = Telemetry.counter "native.probes"

(* ------------------------------------------------------------------ *)
(* Cache directory                                                      *)

let cache_dir_override = ref None
let set_cache_dir d = cache_dir_override := d

let cache_dir () =
  match !cache_dir_override with
  | Some d -> d
  | None ->
    (match Sys.getenv_opt "POLYMG_NATIVE_CACHE" with
     | Some d when String.trim d <> "" -> d
     | _ ->
       Filename.concat (Filename.get_temp_dir_name ()) "polymg-native-cache")

let rec ensure_dir d =
  if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
    ensure_dir (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Compiler processes                                                   *)

let rec retry f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry f

(* Starts [c args] directly: [c] is one executable, found on PATH as
   execvp finds it, and no shell runs.  stdin reads /dev/null, stdout
   goes to [out] and stderr to [err] (/dev/null when absent).
   @raise Unix.Unix_error when [c] cannot be started. *)
let spawn c args ~out ~err =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close null)
    (fun () ->
      Unix.create_process c (Array.of_list (c :: args)) null out
        (Option.value err ~default:null))

let wait pid = snd (retry (fun () -> Unix.waitpid [] pid))

(* The first line [c arg] prints, trimmed ([""] when it prints nothing),
   when it exits 0; [None] when it cannot run or fails.  Counted in
   native.probes. *)
let first_line c arg =
  match
    let r, w = Unix.pipe ~cloexec:true () in
    Fun.protect
      ~finally:(fun () -> Unix.close r)
      (fun () ->
        let pid =
          Fun.protect
            ~finally:(fun () -> Unix.close w)
            (fun () -> spawn c [ arg ] ~out:w ~err:None)
        in
        Telemetry.add c_probes 1;
        (* small reads to the end, so the compiler never blocks on a
           full pipe and nothing lands on the major heap *)
        let out = Buffer.create 256 and chunk = Bytes.create 256 in
        let rec drain () =
          match retry (fun () -> Unix.read r chunk 0 256) with
          | 0 -> ()
          | k ->
            Buffer.add_subbytes out chunk 0 k;
            drain ()
        in
        drain ();
        match wait pid with
        | Unix.WEXITED 0 ->
          Some
            (String.trim
               (List.hd (String.split_on_char '\n' (Buffer.contents out))))
        | _ -> None)
  with
  | v -> v
  | exception Unix.Unix_error _ -> None

(* ------------------------------------------------------------------ *)
(* The probe memo                                                       *)

(* [compilers.probe] in the cache directory: the compilers earlier
   processes probed, so that one whose compiler is unchanged starts no
   process to name it.  One line per compiler command, tab-separated:
   the command, its --version line, and the stamp of every file that
   decides what the command runs: first the file it resolves to on
   PATH, then the compiler proper it names (-print-prog-name=cc1), when
   that is a file, so that a wrapper (ccache, a shell script) does not
   hide an upgrade behind it.  A stamp is a file's path, device, inode,
   size, mtime and ctime; an entry serves while the command still
   resolves to its first file and every file still stamps the same.
   The body is guarded by a CRC-32 line, as a kernel's .meta: a torn,
   corrupt or foreign memo reads as empty, and the next probe rewrites
   it. *)
let probe_schema = "polymg.native-probe/1"
let probe_file = "compilers.probe"

(* A file changed less than this many seconds before a probe is not
   memoized: file times trail the clock by up to a timer tick, and some
   file systems keep whole seconds, so a change made just after the
   probe could leave every stamp as it was. *)
let settle_s = 2.0

type probed = { cmd : string; version : string; stamps : string list }

(* The file [c] runs, by execvp's rule: [c] itself when it holds a
   '/', else the first executable regular file [dir/c] over the entries
   of PATH (an empty entry is the working directory; /bin:/usr/bin
   when PATH is unset). *)
let resolve c =
  if String.contains c '/' then Some c
  else
    List.find_map
      (fun d ->
        let f = Filename.concat (if d = "" then "." else d) c in
        match Unix.stat f with
        | { Unix.st_kind = Unix.S_REG; _ } when
            (try Unix.access f [ Unix.X_OK ]; true
             with Unix.Unix_error _ -> false) ->
          Some f
        | _ | (exception Unix.Unix_error _) -> None)
      (String.split_on_char ':'
         (Option.value (Sys.getenv_opt "PATH") ~default:"/bin:/usr/bin"))

(* A file's stamp and ctime; the times print as hex floats, which read
   back exactly. *)
let stamp path =
  match Unix.stat path with
  | exception Unix.Unix_error _ -> None
  | s ->
    Some
      ( Printf.sprintf "%s\t%d\t%d\t%d\t%h\t%h" path s.Unix.st_dev
          s.Unix.st_ino s.Unix.st_size s.Unix.st_mtime s.Unix.st_ctime,
        s.Unix.st_ctime )

let stamp_path s = String.sub s 0 (String.index s '\t')

let serves e ~exe =
  match e.stamps with
  | [] -> false
  | first :: _ ->
    stamp_path first = exe
    && List.for_all
         (fun s -> Option.map fst (stamp (stamp_path s)) = Some s)
         e.stamps

let probe_path () = Filename.concat (cache_dir ()) probe_file

let parse_probed line =
  let rec stamps = function
    | [] -> Some []
    | a :: b :: c :: d :: e :: f :: rest ->
      Option.map
        (List.cons (String.concat "\t" [ a; b; c; d; e; f ]))
        (stamps rest)
    | _ -> None
  in
  match String.split_on_char '\t' line with
  | cmd :: version :: (_ :: _ as fields) ->
    Option.map (fun stamps -> { cmd; version; stamps }) (stamps fields)
  | _ -> None

let read_probes () =
  match read_file (probe_path ()) with
  | exception Sys_error _ -> []
  | text ->
    (match String.index_opt text '\n' with
     | None -> []
     | Some i ->
       let body = String.sub text (i + 1) (String.length text - i - 1) in
       (match
          Scanf.sscanf (String.sub text 0 i) "%s %x %d%!" (fun s crc len ->
              s = probe_schema && len = String.length body
              && crc = Snapshot.crc32 body)
        with
        | true ->
          let lines = List.filter (( <> ) "") (String.split_on_char '\n' body) in
          let entries = List.filter_map parse_probed lines in
          if List.length entries = List.length lines then entries else []
        | false | (exception _) -> []))

(* Best effort: a cache directory that cannot be written only costs the
   next process a probe. *)
let write_probes entries =
  let body =
    String.concat ""
      (List.map
         (fun e -> String.concat "\t" (e.cmd :: e.version :: e.stamps) ^ "\n")
         entries)
  in
  try
    ensure_dir (cache_dir ());
    Snapshot.atomic_write_string ~path:(probe_path ())
      (Printf.sprintf "%s %08x %d\n%s" probe_schema (Snapshot.crc32 body)
         (String.length body) body)
  with Sys_error _ | Unix.Unix_error _ -> ()

(* Runs [c --version], and memoizes a success whose files have settled.
   The stamps are taken after the probe, so a file that changes during
   it has a ctime too recent to be memoized. *)
let probe c =
  let t0 = Unix.gettimeofday () in
  let version = first_line c "--version" in
  (match (version, resolve c) with
   | Some version, Some exe ->
     let proper =
       match first_line c "-print-prog-name=cc1" with
       | Some p when (not (Filename.is_relative p)) && Sys.file_exists p -> [ p ]
       | _ -> []
     in
     let files = exe :: proper in
     let stamps = List.filter_map stamp files in
     let plain s = not (String.contains s '\t' || String.contains s '\n') in
     if List.length stamps = List.length files
        && List.for_all (fun (_, ctime) -> ctime < t0 -. settle_s) stamps
        && List.for_all plain (c :: version :: files)
     then
       write_probes
         ({ cmd = c; version; stamps = List.map fst stamps }
          :: List.filter
               (fun e -> not (e.cmd = c && stamp_path (List.hd e.stamps) = exe))
               (read_probes ()))
   | _ -> ());
  version

(* compiler -> its --version line, [None] when it cannot run or fails:
   found once per compiler per process, from the memo when an entry
   serves and by a probe otherwise.  Racing first lookups wait for one
   answer. *)
let versions : (string, string option) Hashtbl.t = Hashtbl.create 4
let versions_lock = Mutex.create ()

let version c =
  Mutex.protect versions_lock (fun () ->
      match Hashtbl.find_opt versions c with
      | Some v -> v
      | None ->
        let memo =
          Option.bind (resolve c) (fun exe ->
              List.find_opt
                (fun e -> e.cmd = c && serves e ~exe)
                (read_probes ()))
        in
        let v =
          match memo with Some e -> Some e.version | None -> probe c
        in
        Hashtbl.replace versions c v;
        v)

(* ------------------------------------------------------------------ *)
(* Compiler discovery                                                   *)

let compiler_override = ref None
let set_compiler_override c = compiler_override := c

(* gcc-then-cc discovery, once per process: every load, cache hits
   included, goes through [cc].  The answer's version line is kept, so
   [compiler_identity] looks nothing up again.  Racing first calls
   compute the same answer. *)
let discovered = Atomic.make None

let discover () =
  match Atomic.get discovered with
  | Some found -> found
  | None ->
    let found = List.find_opt (fun c -> version c <> None) [ "gcc"; "cc" ] in
    Atomic.set discovered (Some found);
    found

(* An override (tests) or POLYMG_CC is read on every call and taken
   verbatim, without a lookup, so a deliberately broken compiler
   exercises the compile-failure path. *)
let cc () =
  match !compiler_override with
  | Some c -> Some c
  | None ->
    (match Sys.getenv_opt "POLYMG_CC" with
     | Some c when String.trim c <> "" -> Some c
     | _ -> discover ())

let available () = cc () <> None

(* "compiler|first --version line": part of the cache key, so upgrading
   the toolchain invalidates cached kernels *)
let compiler_identity compiler =
  compiler ^ "|" ^ Option.value (version compiler) ~default:""

(* The CPU -march=native builds for, as the kernel reports it: the
   identity and feature lines of the first processor in /proc/cpuinfo
   (vendor, family, model and flags on x86; implementer, part and
   features on arm64), empty where that file cannot be read.  A file
   read, not a process: computed once per process, and racing first
   reads compute the same answer. *)
let host_keys =
  [ "vendor_id"; "cpu family"; "model"; "model name"; "flags";
    "CPU implementer"; "CPU architecture"; "CPU variant"; "CPU part";
    "Features" ]

let read_host () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> ""
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec first_block acc =
          match input_line ic with
          | exception End_of_file -> acc
          | "" -> acc
          | line ->
            let wanted =
              match String.index_opt line ':' with
              | Some i -> List.mem (String.trim (String.sub line 0 i)) host_keys
              | None -> false
            in
            first_block (if wanted then String.trim line :: acc else acc)
        in
        String.concat "\n" (List.rev (first_block [])))

let host = Atomic.make None

let host_fingerprint () =
  match Atomic.get host with
  | Some h -> h
  | None ->
    let h = read_host () in
    Atomic.set host (Some h);
    h

(* ------------------------------------------------------------------ *)
(* Disk cache                                                           *)

let key ~emitter ~digest ~compiler_id ~host =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00" [ emitter; digest; compiler_id; host; cflags ]))

(* Memoized by (plan uid, compiler), like [Plan.digest] by uid: every
   other input of [key] is fixed per process, and [cc ()] still picks
   the compiler on every load. *)
let key_memo : (int * string, string) Hashtbl.t = Hashtbl.create 8
let key_memo_lock = Mutex.create ()

let cache_key (plan : Plan.t) ~compiler =
  let memo = (plan.Plan.uid, compiler) in
  match Mutex.protect key_memo_lock (fun () -> Hashtbl.find_opt key_memo memo) with
  | Some k -> k
  | None ->
    let k =
      key ~emitter:emitter_digest ~digest:(Plan.digest plan)
        ~compiler_id:(compiler_identity compiler) ~host:(host_fingerprint ())
    in
    Mutex.protect key_memo_lock (fun () -> Hashtbl.replace key_memo memo k);
    k

let forget_probes () =
  Mutex.protect versions_lock (fun () -> Hashtbl.reset versions);
  Atomic.set discovered None;
  Mutex.protect key_memo_lock (fun () -> Hashtbl.reset key_memo)

let meta_line ~crc ~size = Printf.sprintf "%s %08x %d\n" meta_schema crc size

let meta_matches ~meta_path ~so_bytes =
  match read_file meta_path with
  | exception Sys_error _ -> false
  | text ->
    (match Scanf.sscanf text "%s %x %d" (fun s crc size -> (s, crc, size)) with
     | exception _ -> false
     | schema, crc, size ->
       schema = meta_schema
       && size = String.length so_bytes
       && crc = Snapshot.crc32 so_bytes)

let truncate_log s =
  let s = String.trim s in
  if String.length s <= 400 then s else String.sub s 0 400 ^ "..."

(* One compiler run, its stdout and stderr to [log]: [None] when it
   exits 0, else what went wrong. *)
let run_step compiler args ~log =
  match spawn compiler args ~out:log ~err:(Some log) with
  | pid ->
    (match wait pid with
     | Unix.WEXITED 0 -> None
     | Unix.WEXITED rc -> Some (Printf.sprintf "exit %d" rc)
     | Unix.WSIGNALED s | Unix.WSTOPPED s -> Some (Printf.sprintf "signal %d" s))
  | exception Unix.Unix_error (e, _, _) ->
    Some ("cannot run: " ^ Unix.error_message e)

(* Two steps, compile then link, each writing a name that does not
   exist until the compiler creates it: on ext4 the unlink of a file
   that was reopened with O_TRUNC (as the one-step driver's mkstemp'd
   .s and .o are) or whose blocks were allocated waits tens of
   milliseconds, while a fresh file freed at once costs nothing.
   [-pipe] keeps the assembly off the disk, and [-c -o] leaves the
   driver no temporary object of its own.  Both names live in a private
   directory of the cache, removed with them. *)
let compile_so plan ~compiler ~key =
  match C_emit.entry_source plan with
  | Error e -> Error ("plan not emittable: " ^ e)
  | Ok source ->
    let dir = cache_dir () in
    ensure_dir dir;
    let src_path = Filename.concat dir (key ^ ".c") in
    let log_path = Filename.concat dir (key ^ ".log") in
    let so_path = Filename.concat dir (key ^ ".so") in
    Snapshot.atomic_write_string ~path:src_path source;
    let work = Filename.temp_dir ~temp_dir:dir "polymg_native" "" in
    let obj = Filename.concat work "kernel.o" in
    let tmp_so = Filename.concat work "kernel.so" in
    let flags = String.split_on_char ' ' cflags in
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ obj; tmp_so ];
        try Sys.rmdir work with Sys_error _ -> ())
      (fun () ->
        let t0 = Telemetry.now_ns () in
        let failed =
          match
            Unix.openfile log_path
              [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
          with
          | exception Unix.Unix_error (e, _, _) ->
            Some ("log", Unix.error_message e)
          | log ->
            Fun.protect
              ~finally:(fun () -> Unix.close log)
              (fun () ->
                let step name args =
                  Option.map (fun why -> (name, why)) (run_step compiler args ~log)
                in
                match step "compile" (flags @ [ "-pipe"; "-c"; "-o"; obj; src_path ]) with
                | None -> step "link" (flags @ [ "-o"; tmp_so; obj; "-lm" ])
                | failed -> failed)
        in
        Telemetry.add c_compile_ms ((Telemetry.now_ns () - t0) / 1_000_000);
        match failed with
        | Some (step, why) ->
          let log = try read_file log_path with Sys_error _ -> "" in
          let msg =
            Printf.sprintf "compile failed (%s, %s: %s): %s" compiler step why
              (truncate_log log)
          in
          if Flightrec.on () then Flightrec.emit (Flightrec.Note ("native: " ^ msg));
          Error msg
        | None ->
          let so_bytes = read_file tmp_so in
          Snapshot.atomic_write_string ~path:so_path so_bytes;
          Snapshot.atomic_write_string ~path:(Filename.concat dir (key ^ ".meta"))
            (meta_line ~crc:(Snapshot.crc32 so_bytes) ~size:(String.length so_bytes));
          Telemetry.add c_compiles 1;
          Ok so_path)

(* ------------------------------------------------------------------ *)
(* Loaded kernels                                                       *)

type kernel = {
  k_path : string;
  k_handle : nativeint;
  k_entry : nativeint;
  k_nin : int;
  (* (func id, expected whole-buffer length), inputs then outputs, in
     the emitted parameter order *)
  k_bufs : (int * int) array;
  (* the pipeline's intermediates, C_emit.arena_bytes long, passed after
     the outputs; concurrent calls to the same kernel are serialized by
     [k_lock] *)
  k_arena : Buf.t;
  k_lock : Mutex.t;
}

let so_path k = k.k_path

let loaded : (string, kernel) Hashtbl.t = Hashtbl.create 8
let loaded_lock = Mutex.create ()

let unload_all () =
  Mutex.protect loaded_lock (fun () ->
      Hashtbl.iter (fun _ k -> try ndl_close k.k_handle with _ -> ()) loaded;
      Hashtbl.reset loaded)

let buffer_signature (plan : Plan.t) =
  let pipeline = plan.Plan.pipeline in
  let flen id =
    let f = Pipeline.func pipeline id in
    Grid.ghosted_len (Array.map (fun s -> Sizeexpr.eval ~n:plan.Plan.n s) f.Func.sizes)
  in
  let ins = Array.map (fun id -> (id, flen id)) plan.Plan.inputs in
  let outs =
    Array.of_list
      (List.map (fun (fid, _) -> (fid, flen fid)) plan.Plan.output_arrays)
  in
  Array.append ins outs

let dlopen_kernel plan ~path =
  match ndl_open path with
  | exception Failure e -> Error ("dlopen: " ^ e)
  | handle ->
    (match ndl_sym handle C_emit.entry_symbol with
     | exception Failure e ->
       ndl_close handle;
       Error ("dlsym: " ^ e)
     | entry ->
       Ok
         { k_path = path;
           k_handle = handle;
           k_entry = entry;
           k_nin = Array.length plan.Plan.inputs;
           k_bufs = buffer_signature plan;
           k_arena = Buf.create (C_emit.arena_bytes plan / 8);
           k_lock = Mutex.create () })

(* a cached .so is only trusted when its CRC sidecar matches the bytes
   on disk — a torn or corrupt file is rejected deterministically
   instead of being handed to the dynamic loader *)
let try_disk_cache plan ~key ~path =
  let meta_path = Filename.concat (cache_dir ()) (key ^ ".meta") in
  if not (Sys.file_exists path) then None
  else
    let so_bytes = try read_file path with Sys_error _ -> "" in
    if not (meta_matches ~meta_path ~so_bytes) then begin
      Telemetry.add c_cache_rejects 1;
      if Flightrec.on () then
        Flightrec.emit
          (Flightrec.Note ("native: rejected corrupt cached kernel " ^ path));
      None
    end
    else
      match dlopen_kernel plan ~path with
      | Ok k -> Some k
      | Error e ->
        Telemetry.add c_cache_rejects 1;
        if Flightrec.on () then
          Flightrec.emit
            (Flightrec.Note
               ("native: rejected unloadable cached kernel " ^ path ^ ": " ^ e));
        None

let load (plan : Plan.t) =
  match cc () with
  | None -> Error "no C compiler found (tried gcc, cc)"
  | Some compiler ->
    (match C_emit.runnable plan with
     | Error e -> Error ("plan not emittable: " ^ e)
     | Ok () ->
       Mutex.protect loaded_lock (fun () ->
           let key = cache_key plan ~compiler in
           match Hashtbl.find_opt loaded key with
           | Some k ->
             Telemetry.add c_cache_hits 1;
             Ok k
           | None ->
             let path = Filename.concat (cache_dir ()) (key ^ ".so") in
             (match try_disk_cache plan ~key ~path with
              | Some k ->
                Telemetry.add c_cache_hits 1;
                Hashtbl.replace loaded key k;
                Ok k
              | None ->
                (match compile_so plan ~compiler ~key with
                 | Error e -> Error e
                 | Ok path ->
                   (match dlopen_kernel plan ~path with
                    | Error e -> Error ("freshly compiled kernel: " ^ e)
                    | Ok k ->
                      Hashtbl.replace loaded key k;
                      Ok k)))))

(* ------------------------------------------------------------------ *)
(* Execution                                                            *)

let run k ~inputs ~outputs =
  let pick lst what (fid, expected) =
    match List.assoc_opt fid lst with
    | None ->
      invalid_arg
        (Printf.sprintf "Native.run: missing %s grid for func %d" what fid)
    | Some g ->
      let buf = g.Grid.buf in
      if Buf.len buf <> expected then
        invalid_arg
          (Printf.sprintf
             "Native.run: %s grid for func %d has %d elements, kernel expects \
              %d"
             what fid (Buf.len buf) expected);
      buf.Buf.data
  in
  let bufs =
    Array.mapi
      (fun i sg -> pick (if i < k.k_nin then inputs else outputs)
           (if i < k.k_nin then "input" else "output") sg)
      k.k_bufs
  in
  let bufs = Array.append bufs [| k.k_arena.Buf.data |] in
  Telemetry.add c_kernel_calls 1;
  Mutex.protect k.k_lock (fun () -> ignore (ncall k.k_entry bufs))

(* ------------------------------------------------------------------ *)
(* Observable fallback                                                  *)

(* Auto-mode fallback bookkeeping, called by the solver when it reverts
   to the interpreter: counted, logged, and filed as an incident so a
   silently-slow deployment is impossible. *)
let note_fallback ~digest ~variant ~reason =
  Telemetry.add c_fallbacks 1;
  if Flightrec.on () then begin
    Flightrec.emit
      (Flightrec.Note
         (Printf.sprintf "native: falling back to interpreter (%s)" reason));
    ignore
      (Flightrec.incident ~kind:"native-fallback"
         ~detail:
           [ ("reason", Json.Str reason);
             ("plan_digest", Json.Str digest);
             ("variant", Json.Str variant) ]
         ())
  end
