(* mg_served: the multigrid solver daemon.

   Accepts length-framed JSON solve requests (see Repro_mg.Serve for the
   codec and the admission/fairness machinery) on stdin/stdout, or on a
   TCP port with --listen, and answers each with a typed status frame.
   A request frame may carry an extra "id" field; it is echoed verbatim
   in the response frame so clients can correlate out-of-order answers.

   Exit codes: 0 on clean shutdown (EOF / all connections closed),
   2 on usage errors, including a setting Serve.create refuses (queue
   cap, domains or max cycles below 1, a tenant burst below 1). *)

open Repro_mg
module Telemetry = Repro_runtime.Telemetry
module Flightrec = Repro_runtime.Flightrec
module Json = Repro_runtime.Json
open Cmdliner

(* One writer at a time per output channel: responses complete on worker
   threads in any order, and frames must never interleave. *)
let locked_write mu oc json =
  Mutex.lock mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock mu)
    (fun () -> Serve.write_frame oc json)

let with_id id json =
  match (id, json) with
  | None, j -> j
  | Some id, Json.Obj fields -> Json.Obj (("id", id) :: fields)
  | Some _, j -> j

(* Serve one framed connection: parse → submit → answer from a small
   responder thread, so a slow solve never blocks reading the next
   request (that is the admission queue's job). *)
let serve_channel server ic oc =
  let wmu = Mutex.create () in
  let responders = ref [] in
  let rec loop () =
    match Serve.read_frame ic with
    | None -> ()
    | Some (Error msg) ->
      locked_write wmu oc
        (Json.Obj
           [ ("status", Json.Str "invalid");
             ("code", Json.num 2);
             ("detail", Json.Str msg) ]);
      (* framing is broken; stop reading this connection *)
      ()
    | Some (Ok j) ->
      let id = Json.member "id" j in
      (match Serve.request_of_json j with
       | Error msg ->
         locked_write wmu oc
           (with_id id
              (Json.Obj
                 [ ("status", Json.Str "invalid");
                   ("code", Json.num 2);
                   ("detail", Json.Str msg) ]))
       | Ok rq ->
         let ticket = Serve.submit server rq in
         let th =
           Thread.create
             (fun () ->
               let resp = Serve.await ticket in
               locked_write wmu oc
                 (with_id id (Serve.response_to_json resp)))
             ()
         in
         responders := th :: !responders);
      loop ()
  in
  loop ();
  List.iter Thread.join !responders

let parse_tenant spec =
  (* NAME=rate:burst:queue_cap[:mem_budget] *)
  match String.index_opt spec '=' with
  | None -> Error (`Msg "tenant spec must be NAME=rate:burst:queue[:budget]")
  | Some i -> (
    let name = String.sub spec 0 i in
    let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
    match String.split_on_char ':' rest with
    | rate :: burst :: cap :: budget ->
      (try
         let tc_mem_budget =
           match budget with
           | [] -> None
           | [ b ] -> (
             match Repro_core.Govern.bytes_of_string b with
             | Some v -> Some v
             | None -> failwith "bad budget")
           | _ -> failwith "too many fields"
         in
         Ok
           ( name,
             { Serve.tc_rate =
                 (if rate = "inf" then infinity else float_of_string rate);
               tc_burst = float_of_string burst;
               tc_queue_cap = int_of_string cap;
               tc_mem_budget } )
       with _ ->
         Error (`Msg (Printf.sprintf "bad tenant spec %S" spec)))
    | _ -> Error (`Msg "tenant spec must be NAME=rate:burst:queue[:budget]"))

let tenant_conv =
  Arg.conv
    ( parse_tenant,
      fun ppf (name, tc) ->
        Format.fprintf ppf "%s=%g:%g:%d" name tc.Serve.tc_rate tc.tc_burst
          tc.tc_queue_cap )

let run listen workers queue_cap max_cycles max_n domains allow_faults
    tenants incident_dir max_incidents telemetry backend =
  let backend =
    match Repro_core.Options.backend_of_string backend with
    | Some b -> b
    | None ->
      prerr_endline "backend must be interp, native or auto";
      exit 2
  in
  (* a daemon asked to run compiled kernels without a compiler should
     refuse at startup, not per request mid-traffic *)
  (match backend with
   | Repro_core.Options.Native when not (Repro_core.Native.available ()) ->
     prerr_endline
       "mg_served: --backend native, but no C compiler was found (tried \
        gcc, cc)";
     exit 2
   | _ -> ());
  if telemetry then Telemetry.set_enabled true;
  (match incident_dir with
   | Some dir ->
     Flightrec.set_enabled true;
     Flightrec.set_incident_dir (Some dir);
     Flightrec.set_max_incidents max_incidents
   | None -> ());
  let config =
    { Serve.default_config with
      Serve.sv_workers = max 1 workers;
      sv_queue_cap = queue_cap;
      sv_max_cycles = max_cycles;
      sv_max_n = max_n;
      sv_domains = domains;
      sv_allow_faults = allow_faults;
      sv_tenants = tenants;
      sv_backend = backend }
  in
  let server =
    (* bad deployment settings refuse at startup, not per request *)
    try Serve.create ~config ()
    with Invalid_argument msg ->
      prerr_endline ("mg_served: " ^ msg);
      exit 2
  in
  (match listen with
   | None ->
     set_binary_mode_in stdin true;
     set_binary_mode_out stdout true;
     serve_channel server stdin stdout
   | Some port ->
     let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.listen sock 16;
     Printf.eprintf "mg_served: listening on 127.0.0.1:%d\n%!" port;
     let rec accept_loop () =
       let fd, _ = Unix.accept sock in
       let _th =
         Thread.create
           (fun () ->
             let ic = Unix.in_channel_of_descr fd in
             let oc = Unix.out_channel_of_descr fd in
             (try serve_channel server ic oc with _ -> ());
             try Unix.close fd with _ -> ())
           ()
       in
       accept_loop ()
     in
     accept_loop ());
  Serve.shutdown server;
  0

let listen_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "listen" ] ~docv:"PORT"
        ~doc:
          "Listen for framed connections on 127.0.0.1:$(docv) instead of \
           serving stdin/stdout.")

let workers_t =
  Arg.(
    value & opt int 1
    & info [ "workers" ]
        ~doc:
          "Executor threads. With 1 (the default) request deadlines are \
           enforced by the watchdog; more workers trade deadline precision \
           for throughput.")

let queue_cap_t =
  Arg.(
    value & opt int 256
    & info [ "queue-cap" ] ~doc:"Global bound on queued requests.")

let max_cycles_t =
  Arg.(
    value & opt int 64
    & info [ "max-cycles" ] ~doc:"Ceiling clamped onto per-request cycles.")

let max_n_t =
  Arg.(
    value & opt int 1024
    & info [ "max-n" ] ~doc:"Largest accepted problem size parameter N.")

let domains_t =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~doc:"Execution domains per solve runtime.")

let allow_faults_t =
  Arg.(
    value & flag
    & info [ "allow-faults" ]
        ~doc:
          "Honor the chaos-testing \"fault\" request field (off by default: \
           production servers refuse fault-injection requests).")

let tenants_t =
  Arg.(
    value
    & opt_all tenant_conv []
    & info [ "tenant" ] ~docv:"NAME=RATE:BURST:QUEUE[:BUDGET]"
        ~doc:
          "Per-tenant admission config: token rate (requests/s or \
           $(i,inf)), bucket burst, queue cap, and optional byte budget \
           (K/M/G suffixes). Repeatable.")

let incident_dir_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "incident-dir" ] ~docv:"DIR"
        ~doc:
          "Enable the flight recorder and write incident reports for \
           faulted/quarantined requests into $(docv).")

let max_incidents_t =
  Arg.(
    value & opt int 32
    & info [ "max-incidents" ] ~doc:"Per-process cap on incident reports.")

let telemetry_t =
  Arg.(
    value & flag
    & info [ "telemetry" ]
        ~doc:"Enable telemetry counters and serve.* metrics recording.")

let backend_t =
  Arg.(
    value & opt string "interp"
    & info [ "backend" ]
        ~doc:
          "Execution backend for every admitted request's plan: \
           $(b,interp), $(b,native) (refuses to start without a C \
           compiler; a per-plan compile failure fails that request), or \
           $(b,auto) (native with a counted, incident-filing fallback to \
           the interpreter).  A deployment property of the daemon — \
           requests cannot select a backend.")

let cmd =
  let doc = "long-running multigrid solve daemon (multigrid-as-a-service)" in
  let exits =
    Cmd.Exit.info 0 ~doc:"on clean shutdown."
    :: Cmd.Exit.info 2
         ~doc:
           "on usage errors, and at startup for a queue cap, domain count \
            or max cycles below 1, or a tenant burst below 1."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "mg_served" ~doc ~exits)
    Term.(
      const run $ listen_t $ workers_t $ queue_cap_t $ max_cycles_t $ max_n_t
      $ domains_t $ allow_faults_t $ tenants_t $ incident_dir_t
      $ max_incidents_t $ telemetry_t $ backend_t)

let () = exit (Cmd.eval' cmd)
