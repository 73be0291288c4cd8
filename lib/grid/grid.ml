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

(* The free list: grids their owners released, newest first, within
   [free_bound].  A take searches it by extents.  A release conses the
   grid on and, only past a bound, drops the oldest grid of its extents,
   then the oldest grids: the steady state allocates one cell. *)
type free_stats = { held : int; held_bytes : int; max_shape : int }

let free_bound = { held = 64; held_bytes = 32 lsl 20; max_shape = 8 }
let free : t list ref = ref []
let free_lock = Mutex.create ()
let on_take = ref (fun ~reused:_ -> ())
let set_take_hook f = on_take := f

let take extents =
  let got =
    Mutex.protect free_lock (fun () ->
        match List.find_opt (fun g -> g.extents = extents) !free with
        | None -> None
        | Some g ->
          free := List.filter (fun k -> k != g) !free;
          Some g)
  in
  !on_take ~reused:(got <> None);
  got

let count p l = List.fold_left (fun n k -> if p k then n + 1 else n) 0 l
let bytes_of l = List.fold_left (fun n k -> n + Buf.bytes k.buf) 0 l
let same_shape g k = k.extents = g.extents

(* [l] without its last element satisfying [p] *)
let drop_last p l =
  let rec go = function
    | [] -> (false, [])
    | k :: rest ->
      let dropped, rest = go rest in
      if (not dropped) && p k then (true, rest) else (dropped, k :: rest)
  in
  snd (go l)

let release g =
  Mutex.protect free_lock (fun () ->
      if
        Buf.bytes g.buf <= free_bound.held_bytes
        && not (List.exists (fun k -> k.buf == g.buf) !free)
      then begin
        let l = g :: !free in
        let l =
          if count (same_shape g) l > free_bound.max_shape then
            drop_last (same_shape g) l
          else l
        in
        let rec trim l =
          if List.length l > free_bound.held || bytes_of l > free_bound.held_bytes
          then trim (drop_last (fun _ -> true) l)
          else l
        in
        free := trim l
      end)

let free_stats () =
  Mutex.protect free_lock (fun () ->
      { held = List.length !free;
        held_bytes = bytes_of !free;
        max_shape =
          List.fold_left (fun m g -> max m (count (same_shape g) !free)) 0 !free })

let create extents =
  if Array.length extents = 0 then invalid_arg "Grid.create: no dimensions";
  Array.iter
    (fun e -> if e <= 0 then invalid_arg "Grid.create: non-positive extent")
    extents;
  match take extents with
  | Some g ->
    Buf.fill g.buf 0.0;
    g
  | None ->
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
  match take t.extents with
  | Some g ->
    Buf.blit ~src:t.buf ~dst:g.buf;
    g
  | None ->
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
