type t = {
  extents : int array;
  strides : int array;
  buf : Buf.t;
}

let strides_of extents =
  let d = Array.length extents in
  let strides = Array.make d 1 in
  for k = d - 2 downto 0 do
    strides.(k) <- strides.(k + 1) * extents.(k + 1)
  done;
  strides

let ghosted_len sizes = Array.fold_left (fun acc s -> acc * (s + 2)) 1 sizes

let create extents =
  if Array.length extents = 0 then invalid_arg "Grid.create: no dimensions";
  Array.iter
    (fun e -> if e <= 0 then invalid_arg "Grid.create: non-positive extent")
    extents;
  let extents = Array.copy extents in
  let strides = strides_of extents in
  let len = Array.fold_left ( * ) 1 extents in
  { extents; strides; buf = Buf.create len }

let interior ~dims n =
  if n <= 0 then invalid_arg "Grid.interior: non-positive size";
  create (Array.make dims (n + 2))

let dims t = Array.length t.extents
let extents t = Array.copy t.extents
let interior_size t = t.extents.(0) - 2

let offset t idx =
  let d = Array.length t.extents in
  if Array.length idx <> d then invalid_arg "Grid.offset: rank mismatch";
  let off = ref 0 in
  for k = 0 to d - 1 do
    if idx.(k) < 0 || idx.(k) >= t.extents.(k) then
      invalid_arg "Grid.offset: index out of bounds";
    off := !off + (idx.(k) * t.strides.(k))
  done;
  !off

let get t idx = Buf.unsafe_get t.buf (offset t idx)
let set t idx v = Buf.unsafe_set t.buf (offset t idx) v

let get2 t i j = Buf.get t.buf ((i * t.strides.(0)) + j)
let set2 t i j v = Buf.set t.buf ((i * t.strides.(0)) + j) v

let get3 t i j k =
  Buf.get t.buf ((i * t.strides.(0)) + (j * t.strides.(1)) + k)

let set3 t i j k v =
  Buf.set t.buf ((i * t.strides.(0)) + (j * t.strides.(1)) + k) v

let fill t v = Buf.fill t.buf v

let copy t =
  { extents = Array.copy t.extents;
    strides = Array.copy t.strides;
    buf = Buf.copy t.buf }

let blit ~src ~dst =
  if src.extents <> dst.extents then invalid_arg "Grid.blit: extent mismatch";
  Buf.blit ~src:src.buf ~dst:dst.buf

(* Iterate a rectangular index box [lo.(k) .. hi.(k)] inclusive, calling [f]
   with a reused index array. *)
let iter_box ~lo ~hi f =
  let d = Array.length lo in
  let idx = Array.copy lo in
  let rec go k =
    if k = d then f idx
    else
      for v = lo.(k) to hi.(k) do
        idx.(k) <- v;
        go (k + 1)
      done
  in
  let nonempty = ref true in
  for k = 0 to d - 1 do
    if hi.(k) < lo.(k) then nonempty := false
  done;
  if !nonempty then go 0

let fill_interior t ~f =
  let d = dims t in
  let lo = Array.make d 1 in
  let hi = Array.init d (fun k -> t.extents.(k) - 2) in
  iter_box ~lo ~hi (fun idx -> set t idx (f idx))

let fill_all t ~f =
  let d = dims t in
  let lo = Array.make d 0 in
  let hi = Array.init d (fun k -> t.extents.(k) - 1) in
  iter_box ~lo ~hi (fun idx -> set t idx (f idx))

let iter_interior t ~f =
  let d = dims t in
  let lo = Array.make d 1 in
  let hi = Array.init d (fun k -> t.extents.(k) - 2) in
  iter_box ~lo ~hi (fun idx -> f idx (get t idx))

let max_abs_diff a b =
  if a.extents <> b.extents then
    invalid_arg "Grid.max_abs_diff: extent mismatch";
  Buf.max_abs_diff a.buf b.buf

let points t = Array.fold_left ( * ) 1 t.extents
