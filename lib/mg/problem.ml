module Grid = Repro_grid.Grid

type t = {
  dims : int;
  n : int;
  v : Grid.t;
  f : Grid.t;
  exact : int array -> float;
}

let pi = 4.0 *. atan 1.0

let check_n ~dims ~n =
  if dims <> 2 && dims <> 3 then invalid_arg "Problem: dims must be 2 or 3";
  if n < 4 then invalid_arg "Problem: N must be >= 4"

let poisson ~dims ~n =
  check_n ~dims ~n;
  let h = 1.0 /. float_of_int n in
  let u idx =
    let acc = ref 1.0 in
    Array.iter (fun i -> acc := !acc *. sin (pi *. float_of_int i *. h)) idx;
    !acc
  in
  let v = Grid.interior ~dims (n - 1) in
  let f = Grid.interior ~dims (n - 1) in
  Grid.fill_interior f ~f:(fun idx ->
      float_of_int dims *. pi *. pi *. u idx);
  { dims; n; v; f; exact = u }

let poisson_random ~dims ~n ~seed =
  check_n ~dims ~n;
  let st = Random.State.make [| seed |] in
  let v = Grid.interior ~dims (n - 1) in
  let f = Grid.interior ~dims (n - 1) in
  Grid.fill_interior f ~f:(fun _ -> Random.State.float st 2.0 -. 1.0);
  { dims; n; v; f; exact = (fun _ -> 0.0) }

type cls = B | C

let class_n ~dims = function
  | B -> if dims = 2 then 1024 else 128
  | C -> if dims = 2 then 2048 else 256

let cls_of_string = function
  | "B" | "b" -> Some B
  | "C" | "c" -> Some C
  | _ -> None

let cls_name = function B -> "B" | C -> "C"
