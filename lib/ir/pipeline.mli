(** A complete pipeline: the DAG of stages for one multigrid cycle.

    Stages are stored in construction order, which is a valid topological
    order by construction (a stage can only load from already-created
    stages).  One cycle of a V-/W-/F-cycle is one pipeline; the outer loop
    over cycles lives outside the DSL, exactly as in the paper (§2). *)

type t

val name : t -> string

val funcs : t -> Func.t array
(** All stages including inputs, indexed by id, in topological order. *)

val func : t -> int -> Func.t

val inputs : t -> Func.t list

val outputs : t -> int list
(** Ids of live-out stages (pipeline results). *)

val stage_count : t -> int
(** Number of non-input DAG nodes — the "Stages" column of Table 3. *)

val consumers : t -> int -> int list
(** Ids of stages reading the given stage. *)

val is_liveout : t -> int -> bool

val pp : Format.formatter -> t -> unit

(** {2 Construction} *)

type builder

val builder : string -> builder

val add : builder -> (id:int -> Func.t) -> Func.t
(** Allocates the next id, builds the stage with it, registers it. *)

val finish : builder -> outputs:Func.t list -> t
(** The pipeline, validated once, here: every stage, dense ids in
    topological order, outputs that exist and are not inputs, no load
    from an undefined id.  A [t] is built only here, so every [t] is
    valid.
    @raise Invalid_argument when malformed. *)
