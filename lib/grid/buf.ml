type data =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { data : data; len : int }

let create len =
  if len < 0 then invalid_arg "Buf.create: negative length";
  let data = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout len in
  Bigarray.Array1.fill data 0.0;
  { data; len }

let create_uninit len =
  if len < 0 then invalid_arg "Buf.create_uninit: negative length";
  let data = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout len in
  { data; len }

let len t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Buf.get: index out of bounds";
  Bigarray.Array1.unsafe_get t.data i

let set t i v =
  if i < 0 || i >= t.len then invalid_arg "Buf.set: index out of bounds";
  Bigarray.Array1.unsafe_set t.data i v

let unsafe_get t i = Bigarray.Array1.unsafe_get t.data i
let unsafe_set t i v = Bigarray.Array1.unsafe_set t.data i v
let fill t v = Bigarray.Array1.fill t.data v

let blit ~src ~dst =
  if src.len <> dst.len then invalid_arg "Buf.blit: length mismatch";
  Bigarray.Array1.blit src.data dst.data

let copy t =
  let c = create_uninit t.len in
  Bigarray.Array1.blit t.data c.data;
  c

let sub_view t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then
    invalid_arg "Buf.sub_view: range out of bounds";
  { data = Bigarray.Array1.sub t.data pos len; len }

let fill_range t ~pos ~len v =
  if pos < 0 || len < 0 || pos + len > t.len then
    invalid_arg "Buf.fill_range: range out of bounds";
  Bigarray.Array1.fill (Bigarray.Array1.sub t.data pos len) v

let find_nonfinite t =
  let rec go i =
    if i >= t.len then None
    else if Float.is_finite (Bigarray.Array1.unsafe_get t.data i) then
      go (i + 1)
    else Some i
  in
  go 0

let sub_blit ~src ~src_pos ~dst ~dst_pos ~len =
  if len < 0 || src_pos < 0 || dst_pos < 0
     || src_pos + len > src.len || dst_pos + len > dst.len
  then invalid_arg "Buf.sub_blit: range out of bounds";
  let s = Bigarray.Array1.sub src.data src_pos len in
  let d = Bigarray.Array1.sub dst.data dst_pos len in
  Bigarray.Array1.blit s d

let of_array a =
  let t = create_uninit (Array.length a) in
  Array.iteri (fun i v -> Bigarray.Array1.unsafe_set t.data i v) a;
  t

let to_array t = Array.init t.len (fun i -> Bigarray.Array1.unsafe_get t.data i)

let iteri f t =
  for i = 0 to t.len - 1 do
    f i (Bigarray.Array1.unsafe_get t.data i)
  done

let map_inplace f t =
  for i = 0 to t.len - 1 do
    Bigarray.Array1.unsafe_set t.data i (f (Bigarray.Array1.unsafe_get t.data i))
  done

let point_diff a b =
  if a = b || (Float.is_nan a && Float.is_nan b) then 0.0
  else
    let d = Float.abs (a -. b) in
    if Float.is_nan d then infinity else d

let max_abs_diff a b =
  if a.len <> b.len then invalid_arg "Buf.max_abs_diff: length mismatch";
  let m = ref 0.0 in
  for i = 0 to a.len - 1 do
    m := Float.max !m (point_diff (unsafe_get a i) (unsafe_get b i))
  done;
  !m

let equal ?(eps = 0.0) a b = a.len = b.len && max_abs_diff a b <= eps

let bytes t = 8 * t.len
