module Grid = Repro_grid.Grid
module Buf = Repro_grid.Buf

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

(* [sin (pi *. float i *. h)] for i = 0..n, the one transcendental per
   index.  [u] and the strided fill below multiply its entries in index
   order from 1.0, so every bit agrees with the per-point product
   [1.0 *. sin x_0 *. sin x_1 ...] they replace. *)
let poisson ~dims ~n =
  check_n ~dims ~n;
  let h = 1.0 /. float_of_int n in
  let s = Array.init (n + 1) (fun i -> sin (pi *. float_of_int i *. h)) in
  let u idx = Array.fold_left (fun acc i -> acc *. s.(i)) 1.0 idx in
  let v = Grid.interior ~dims (n - 1) in
  let f = Grid.interior ~dims (n - 1) in
  let c = float_of_int dims *. pi *. pi in
  let buf = f.Grid.buf and st = f.Grid.strides in
  if dims = 2 then
    for i = 1 to n - 1 do
      let row = i * st.(0) in
      for j = 1 to n - 1 do
        Buf.unsafe_set buf (row + j) (c *. (1.0 *. s.(i) *. s.(j)))
      done
    done
  else
    for i = 1 to n - 1 do
      for j = 1 to n - 1 do
        let row = (i * st.(0)) + (j * st.(1)) in
        for k = 1 to n - 1 do
          Buf.unsafe_set buf (row + k) (c *. (1.0 *. s.(i) *. s.(j) *. s.(k)))
        done
      done
    done;
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
