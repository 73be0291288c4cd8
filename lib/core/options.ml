type smoother_path =
  | Overlapped_smoother
  | Diamond_smoother of { sigma : int }
  | Skewed_smoother of { tau : int; sigma : int }

type backend = Interp | Native | Auto

type t = {
  fuse : bool;
  tile_2d : int array;
  tile_3d : int array;
  group_size_limit : int;
  scratch_reuse : bool;
  array_reuse : bool;
  pool : bool;
  smoother : smoother_path;
  check_plan : bool;
  mem_budget : int option;
  deadline : float option;
  backend : backend;
}

let naive =
  { fuse = false;
    tile_2d = [| 32; 256 |];
    tile_3d = [| 8; 8; 64 |];
    group_size_limit = 1;
    scratch_reuse = false;
    array_reuse = false;
    pool = false;
    smoother = Overlapped_smoother;
    check_plan = false;
    mem_budget = None;
    deadline = None;
    backend = Interp }

let opt =
  { naive with fuse = true; group_size_limit = 6 }

let opt_plus =
  { opt with scratch_reuse = true; array_reuse = true; pool = true }

let dtile_opt_plus =
  { opt_plus with smoother = Diamond_smoother { sigma = 16 } }

let variant_of_string = function
  | "naive" -> Some naive
  | "opt" -> Some opt
  | "opt+" -> Some opt_plus
  | "dtile-opt+" -> Some dtile_opt_plus
  | _ -> None

let name t =
  let same_features a b =
    a.fuse = b.fuse && a.scratch_reuse = b.scratch_reuse
    && a.array_reuse = b.array_reuse && a.pool = b.pool
    && (match (a.smoother, b.smoother) with
        | Overlapped_smoother, Overlapped_smoother -> true
        | Diamond_smoother _, Diamond_smoother _ -> true
        | Skewed_smoother _, Skewed_smoother _ -> true
        | (Overlapped_smoother | Diamond_smoother _ | Skewed_smoother _), _ ->
          false)
  in
  if same_features t naive then "naive"
  else if same_features t opt then "opt"
  else if same_features t opt_plus then "opt+"
  else if same_features t dtile_opt_plus then "dtile-opt+"
  else "custom"

let fingerprint t =
  let b = Buffer.create 128 in
  let int i = Buffer.add_int64_le b (Int64.of_int i) in
  let bool x = int (Bool.to_int x) in
  let ints a = int (Array.length a); Array.iter int a in
  bool t.fuse;
  ints t.tile_2d;
  ints t.tile_3d;
  int t.group_size_limit;
  bool t.scratch_reuse;
  bool t.array_reuse;
  bool t.pool;
  (match t.smoother with
   | Overlapped_smoother -> int 0
   | Diamond_smoother { sigma } -> int 1; int sigma
   | Skewed_smoother { tau; sigma } -> int 2; int tau; int sigma);
  bool t.check_plan;
  int (Option.value t.mem_budget ~default:(-1));
  Buffer.add_int64_le b
    (Int64.bits_of_float (Option.value t.deadline ~default:Float.nan));
  int (match t.backend with Interp -> 0 | Native -> 1 | Auto -> 2);
  Buffer.contents b

let with_tiles t ~t2 ~t3 = { t with tile_2d = t2; tile_3d = t3 }

let backend_of_string = function
  | "interp" -> Some Interp
  | "native" -> Some Native
  | "auto" -> Some Auto
  | _ -> None

let pp fmt t =
  let smoother =
    match t.smoother with
    | Overlapped_smoother -> "overlapped"
    | Diamond_smoother { sigma } -> Printf.sprintf "diamond(sigma=%d)" sigma
    | Skewed_smoother { tau; sigma } ->
      Printf.sprintf "skewed(tau=%d,sigma=%d)" tau sigma
  in
  let govern =
    (match t.mem_budget with
     | Some b -> Printf.sprintf " mem_budget=%dB" b
     | None -> "")
    ^
    match t.deadline with
    | Some d -> Printf.sprintf " deadline=%gs" d
    | None -> ""
  in
  (* [backend] is deliberately not printed: it selects how a plan is
     executed, not what it computes, so [Plan.summary] stays identical
     across backends. *)
  Format.fprintf fmt
    "{%s fuse=%b tiles2d=%s tiles3d=%s limit=%d scratch_reuse=%b \
     array_reuse=%b pool=%b smoother=%s%s}"
    (name t) t.fuse
    (String.concat "x" (Array.to_list (Array.map string_of_int t.tile_2d)))
    (String.concat "x" (Array.to_list (Array.map string_of_int t.tile_3d)))
    t.group_size_limit t.scratch_reuse t.array_reuse t.pool smoother govern
