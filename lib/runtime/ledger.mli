(** Longitudinal performance ledger: one self-describing
    [polymg.ledger/1] JSONL record per bench/profiled run, carrying the
    machine fingerprint (hostname, OCaml version, word size, measured
    roofline), the run configuration and plan digest, the per-cycle
    time, and per-site profiler stats.

    Appends are durable ({!Snapshot.atomic_write_string}: temp + fsync +
    rename of the whole file), so a crash can never leave a torn line.
    [bench/trend.exe] reads the ledger back to render trend reports and
    gate on regressions.  Counters: [ledger.appends], [ledger.skipped]
    (telemetry-gated mirrors). *)

val schema : string
(** ["polymg.ledger/1"]. *)

type record = {
  timestamp : float;  (** unix seconds *)
  hostname : string;
  ocaml_version : string;
  word_size : int;
  roofline : Roofline.t;
  bench : string;  (** config name, e.g. ["V-2D-4-4-4"] *)
  n : int;
  domains : int;
  variant : string;
  plan_digest : string;
  s_per_cycle : float;
  sites : (string * Profile.stats) list;
}

val make :
  ?timestamp:float ->
  ?roofline:Roofline.t ->
  ?sites:(string * Profile.stats) list ->
  bench:string ->
  n:int ->
  domains:int ->
  variant:string ->
  plan_digest:string ->
  s_per_cycle:float ->
  unit ->
  record
(** Build a record stamped with the current time, machine fingerprint,
    cached roofline, and the profiler's current merged site stats. *)

val key : record -> string
(** The series key records are grouped by for trend analysis: hostname,
    bench, n, domains and variant — never compare across machines. *)

val to_json : record -> Json.t
val append : path:string -> record -> unit
(** Durably append one record (atomic whole-file rewrite). *)

val load : string -> record list * int
(** Parse a ledger file in order, tolerantly: returns the readable
    records and the number of skipped (unparsable or alien-schema)
    lines.  A missing file is an empty ledger. *)
