(* Native execution backend: the emitted C of a plan (C_emit), wrapped
   in a tiny entry function, compiled by the system C compiler into a
   shared object, dlopen'd, and called directly on the caller's grid
   buffers.  Everything observable about it is counted:

     native.compiles       kernels compiled (cache misses)
     native.compile_ms     total wall-clock spent in the C compiler
     native.cache_hits     loads served from memory or the disk cache
     native.cache_rejects  torn/corrupt cached .so files rejected
     native.kernel_calls   entry-point invocations
     native.fallbacks      Auto-mode falls back to the interpreter

   Compiled kernels are built for the CPU that runs them (-march=native)
   and cached on disk keyed by plan digest + compiler identity + host
   CPU fingerprint + flags + emitter version.  Installs go through
   Snapshot.atomic_write_string (temp + fsync + rename), and every
   cached .so carries a CRC-32 sidecar that is re-verified before
   dlopen — concurrent solves never observe a torn shared object, and a
   corrupt one is rejected (counted) and recompiled. *)

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

let emitter_version = "polymg.native/3"
let entry_symbol = "polymg_entry"
let meta_schema = "polymg.native-meta/1"
(* At -O1 gcc inserts vzeroupper only with -fexpensive-optimizations;
   without it the caller runs with dirty upper AVX state after every
   call.  CI reads this line with sed: keep it one literal. *)
let cflags = "-O1 -fexpensive-optimizations -std=c99 -ffp-contract=off -fopenmp-simd -march=native -fPIC -shared"

let c_compiles = Telemetry.counter "native.compiles"
let c_compile_ms = Telemetry.counter "native.compile_ms"
let c_cache_hits = Telemetry.counter "native.cache_hits"
let c_cache_rejects = Telemetry.counter "native.cache_rejects"
let c_kernel_calls = Telemetry.counter "native.kernel_calls"
let c_fallbacks = Telemetry.counter "native.fallbacks"

(* ------------------------------------------------------------------ *)
(* Compiler discovery                                                   *)

let compiler_override = ref None
let set_compiler_override c = compiler_override := c

let quiet_ok cmd = Sys.command (cmd ^ " >/dev/null 2>&1") = 0

(* gcc-then-cc discovery, the only compiler probe.  The probe fork-execs
   a shell, so it runs once per process: every load, cache hits
   included, goes through [cc].  Racing first probes compute the same
   answer. *)
let discovered = Atomic.make None

let discover () =
  match Atomic.get discovered with
  | Some found -> found
  | None ->
    let found =
      List.find_opt
        (fun c -> quiet_ok (Filename.quote c ^ " --version"))
        [ "gcc"; "cc" ]
    in
    Atomic.set discovered (Some found);
    found

(* An override (tests) or POLYMG_CC is read on every call and taken
   verbatim, without probing, so a deliberately broken compiler
   exercises the compile-failure path. *)
let cc () =
  match !compiler_override with
  | Some c -> Some c
  | None ->
    (match Sys.getenv_opt "POLYMG_CC" with
     | Some c when String.trim c <> "" -> Some c
     | _ -> discover ())

let available () = cc () <> None

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* first --version line, cached per compiler name: part of the cache
   key, so upgrading the toolchain invalidates cached kernels *)
let compiler_identity_tbl : (string, string) Hashtbl.t = Hashtbl.create 4

let compiler_identity compiler =
  match Hashtbl.find_opt compiler_identity_tbl compiler with
  | Some id -> id
  | None ->
    let tmp = Filename.temp_file "polymg_ccid" ".txt" in
    let version =
      if
        Sys.command
          (Printf.sprintf "%s --version >%s 2>/dev/null"
             (Filename.quote compiler) (Filename.quote tmp))
        = 0
      then
        match String.split_on_char '\n' (read_file tmp) with
        | first :: _ -> String.trim first
        | [] -> ""
      else ""
    in
    (try Sys.remove tmp with Sys_error _ -> ());
    let id = compiler ^ "|" ^ version in
    Hashtbl.replace compiler_identity_tbl compiler id;
    id

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

(* ------------------------------------------------------------------ *)
(* Entry-source emission                                                *)

let ghost_len sizes =
  Array.fold_left (fun acc s -> acc * (s + 2)) 1 sizes

(* The entry hands the pipeline the caller's buffers: inputs, outputs,
   then the kernel's arena. *)
let entry_source (plan : Plan.t) =
  match C_emit.runnable plan with
  | Error e -> Error e
  | Ok () ->
    let nbufs =
      Array.length plan.Plan.inputs + List.length plan.Plan.output_arrays + 1
    in
    let b = Buffer.create 65536 in
    let pf fmt = Printf.bprintf b fmt in
    Buffer.add_string b (C_emit.to_string plan);
    pf "\n/* ---- native backend glue (%s) ---- */\n\n" emitter_version;
    pf "int %s(double **bufs)\n{\n" entry_symbol;
    pf "  %s(%d, %s);\n" (C_emit.pipeline_symbol plan) plan.Plan.n
      (String.concat ", " (List.init nbufs (Printf.sprintf "bufs[%d]")));
    pf "  return 0;\n}\n";
    Ok (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Disk cache                                                           *)

let key ~digest ~compiler_id ~host =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [ emitter_version; digest; compiler_id; host; cflags ]))

let cache_key (plan : Plan.t) ~compiler =
  key ~digest:(Plan.digest plan) ~compiler_id:(compiler_identity compiler)
    ~host:(host_fingerprint ())

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

let compile_so plan ~compiler ~key =
  match entry_source plan with
  | Error e -> Error ("plan not emittable: " ^ e)
  | Ok source ->
    let dir = cache_dir () in
    ensure_dir dir;
    let src_path = Filename.concat dir (key ^ ".c") in
    let log_path = Filename.concat dir (key ^ ".log") in
    let so_path = Filename.concat dir (key ^ ".so") in
    Snapshot.atomic_write_string ~path:src_path source;
    let tmp_so = Filename.temp_file "polymg_native" ".so" in
    let cmd =
      Printf.sprintf "%s %s -o %s %s -lm >%s 2>&1" compiler cflags
        (Filename.quote tmp_so) (Filename.quote src_path)
        (Filename.quote log_path)
    in
    let t0 = Telemetry.now_ns () in
    let rc = Sys.command cmd in
    let ms = (Telemetry.now_ns () - t0) / 1_000_000 in
    Telemetry.add c_compile_ms ms;
    if rc <> 0 then begin
      (try Sys.remove tmp_so with Sys_error _ -> ());
      let log = try read_file log_path with Sys_error _ -> "" in
      let msg =
        Printf.sprintf "compile failed (%s, exit %d): %s" compiler rc
          (truncate_log log)
      in
      if Flightrec.on () then Flightrec.emit (Flightrec.Note ("native: " ^ msg));
      Error msg
    end
    else begin
      let so_bytes = read_file tmp_so in
      (try Sys.remove tmp_so with Sys_error _ -> ());
      Snapshot.atomic_write_string ~path:so_path so_bytes;
      Snapshot.atomic_write_string ~path:(Filename.concat dir (key ^ ".meta"))
        (meta_line ~crc:(Snapshot.crc32 so_bytes) ~size:(String.length so_bytes));
      Telemetry.add c_compiles 1;
      Ok so_path
    end

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
    ghost_len (Array.map (fun s -> Sizeexpr.eval ~n:plan.Plan.n s) f.Func.sizes)
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
    (match ndl_sym handle entry_symbol with
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
