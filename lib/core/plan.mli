(** Executable plans: the output of the PolyMG "code generator".

    A plan fixes, for one pipeline at one concrete problem size: the
    grouping, the tile shapes, every scratchpad slot and its size, the
    full-array storage mapping, the per-array acquire/release group, and
    the compiled kernel of every stage.  {!Exec} then runs plans against
    input grids; {!C_emit} pretty-prints the C code a plan corresponds
    to. *)

type producer_src =
  | P_input of int  (** read a pipeline input (index into input list) *)
  | P_array of int  (** read a full array (live-in from an earlier group) *)
  | P_member of int  (** read a same-group member's scratchpad *)

type member = {
  func : Repro_ir.Func.t;
  compiled : Compile.t;
  sizes : int array;  (** concrete interior sizes *)
  scratch_slot : int option;  (** set iff the member has in-group readers *)
  array_id : int option;  (** set iff the member is a group live-out *)
  src_of : producer_src array;  (** aligned with [compiled.producers] *)
}

type tiled_group = {
  gid : int;
  geom : Repro_poly.Regions.t;
  members : member array;  (** execution order *)
  tile_sizes : int array;
  tiles : Repro_poly.Box.t array;
  scratch_slot_len : int array;  (** elements per scratch slot *)
}

type time_scheme =
  | Sched_diamond of { sigma : int }
  | Sched_skewed of { tau : int; sigma : int }

type diamond_group = {
  gid : int;
  steps : member array;  (** the smoothing chain; last one is live-out *)
  scheme : time_scheme;
  sizes : int array;
  prev_pos : int array;
      (** for each step, the index in [src_of]/producers of the previous
          iterate (bound to a modulo buffer at execution); [-1] for a step
          that does not read the previous iterate (zero-init step 0) *)
  init_src : producer_src option;
      (** where step 0 reads the initial iterate; [None] for zero-init
          chains whose first step reads no previous iterate *)
}

type group_exec =
  | G_tiled of tiled_group
  | G_diamond of diamond_group

type array_info = {
  len : int;  (** elements, max over the functions mapped to this array *)
  first_group : int;  (** topological group index that acquires it *)
  last_group : int;  (** group index after which it can be released *)
  output : bool;  (** pipeline output: dedicated, never pooled away *)
}

type t = {
  uid : int;  (** unique per plan; keys per-domain scratchpad caches *)
  pipeline : Repro_ir.Pipeline.t;
  opts : Options.t;
  n : int;
  groups : group_exec array;  (** execution order *)
  arrays : array_info array;
  inputs : int array;  (** func id per input index *)
  output_arrays : (int * int) list;  (** pipeline output func id → array *)
  params : (string * float) list;
      (** every parameter the stages read, resolved, sorted by name *)
}

val build :
  Repro_ir.Pipeline.t -> opts:Options.t -> n:int ->
  params:(string -> float) -> t
(** Runs the full optimization pipeline of Fig. 4 at problem size [n].
    The pipeline was validated by {!Repro_ir.Pipeline.finish}.
    @raise Invalid_argument on stencil footprints outside the ghost
    zone or unbound params. *)

val tile_boxes :
  tiled_group -> tile:Repro_poly.Box.t ->
  (Repro_poly.Box.t * Repro_poly.Box.t) array
(** [tile_boxes tg ~tile] is, per member in execution order, the exact
    bounds that [tile] executes: the member's demand region (its
    scratchpad extent, or what it computes), and for a live-out the part
    of its own slice inside that region (what it writes to its full
    array; empty for a member without one).  {!Exec} runs these boxes
    per tile and {!C_emit} prints them. *)

(** {2 Introspection (Table 3 / Fig. 6 style reporting)} *)

val group_count : t -> int
val array_count : t -> int
val total_array_bytes : t -> int
val scratch_bytes_per_thread : t -> int
(** Worst simultaneous scratch footprint over groups (one thread's). *)

val member_count : t -> int

val summary : Format.formatter -> t -> unit
(** Prints groups, members, storage mapping and tile shapes — the
    Fig. 6 style dump. *)

val digest : t -> string
(** Hex fingerprint of the plan's content: every stage body with its
    coefficients, sizes and boundary, the resolved [params], the
    pipeline name, the options that shape the plan, the grouping and
    the storage mapping.  Equal configurations digest equally across
    builds and processes; changing a coefficient, parameter or size
    changes the digest.  Stage names, the backend, [check_plan],
    [mem_budget] and [deadline] do not enter it.  Memoized per plan
    ([uid]), so per-cycle consumers (metrics documents, the flight
    recorder) pay the serialisation once. *)
