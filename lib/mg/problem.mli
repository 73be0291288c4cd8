(** Poisson model problems (§4.1): [−∇²u = f] on the unit square/cube with
    homogeneous Dirichlet boundary, discretized with finite differences on
    a vertex-centred grid of interior size [N−1] per dimension
    (grid spacing [h = 1/N]). *)

type t = {
  dims : int;
  n : int;  (** the problem-size parameter [N] *)
  v : Repro_grid.Grid.t;  (** initial guess (zero) *)
  f : Repro_grid.Grid.t;  (** right-hand side *)
  exact : int array -> float;  (** continuous solution at an interior index *)
}

val poisson : dims:int -> n:int -> t
(** Manufactured solution [u = Π_k sin(π x_k)], so
    [f = dims·π²·Π_k sin(π x_k)]. *)

val poisson_random : dims:int -> n:int -> seed:int -> t
(** Random right-hand side (reproducible); [exact] is not meaningful and
    returns 0 — use residual norms only. *)

(** Problem size classes, scaled from Table 2 for the simulated substrate
    (see DESIGN.md): class B = 2D 1024², 3D 128³; class C = 2D 2048²,
    3D 256³ in terms of [N]. *)
type cls = B | C

val class_n : dims:int -> cls -> int
val cls_of_string : string -> cls option
val cls_name : cls -> string
