(** The auto-tuner of §3.2.4: the search space (tile sizes crossed with
    grouping limits), the paper's timing protocol and the pick of the
    winner.  [bin/autotune], Fig. 12 and every tuned harness row measure
    through here. *)

val seconds_per_cycle :
  ?reps:int -> cycles:int -> Solver.stepper -> Problem.t -> float
(** One warm-up run of [cycles] cycles, then the minimum over [reps]
    (default 2) runs, per cycle. *)

val tiles : dims:int -> int array list
(** The paper's power-of-two tile ranges, last dimension fastest: 2-D
    8–64 × 64–512, 3-D 8–32 × 8–32 × 64–256.  [Invalid_argument] unless
    [dims] is 2 or 3. *)

val space :
  Repro_core.Options.t -> dims:int -> limits:int list ->
  Repro_core.Options.t list
(** {!tiles} crossed with grouping limits, limits outermost; the other
    rank's tiles stay the base's. *)

val label : dims:int -> Repro_core.Options.t -> string
(** ["limit=L tile=AxB"]. *)

val time :
  ?reps:int -> ?cycles:int ->
  make:(Repro_core.Options.t -> rt:Repro_core.Exec.runtime -> Solver.stepper) ->
  Problem.t -> Repro_core.Options.t -> float option
(** {!seconds_per_cycle} of one configuration ([reps] and [cycles]
    default to 1) on its own scoped runtime; [None] when the stepper
    cannot be built or run at this size ([Invalid_argument]). *)

val best : ('a * float option) list -> ('a * float) option
(** The fastest measured entry, the first on ties; [None] when nothing
    was measured. *)
