type job = {
  f : int -> unit;
  hi : int;
  next : int Atomic.t;  (* next unclaimed index *)
  left : int Atomic.t;  (* indices not yet completed *)
  failed : exn option Atomic.t;
}

type t = {
  nproc : int;
  mutex : Mutex.t;
  has_work : Condition.t;
  all_done : Condition.t;
  mutable current : job option;
  mutable generation : int;
  mutable shutdown : bool;
  mutable domains : unit Domain.t array;
  in_region : bool Atomic.t;  (* detect nested parallel_for *)
}

let size t = t.nproc

let c_regions = Telemetry.counter "parallel.regions"
let c_chunks = Telemetry.counter "parallel.chunks"
let c_busy_ns = Telemetry.counter "parallel.busy_ns"

let s_share = Telemetry.site "parallel.share"
let s_inline = Telemetry.site "parallel.inline"

(* One probe per domain per parallel region, tagged with the number of
   claimed chunks; [t0 = 0] (probe off) skips the clock entirely. *)
let close_region t0 chunks site =
  Telemetry.add c_chunks chunks;
  if t0 <> 0 then begin
    let t1 = Telemetry.now_ns () in
    Telemetry.add c_busy_ns (t1 - t0);
    Telemetry.stop_at ~cat:"parallel"
      ~args:[ ("chunks", Telemetry.Int chunks) ]
      t0 t1 site
  end

let run_share job =
  let t0 = Telemetry.start () in
  let chunks = ref 0 in
  let i = ref (Atomic.fetch_and_add job.next 1) in
  while !i <= job.hi do
    incr chunks;
    (try job.f !i
     with e -> ignore (Atomic.compare_and_set job.failed None (Some e)));
    ignore (Atomic.fetch_and_add job.left (-1));
    i := Atomic.fetch_and_add job.next 1
  done;
  close_region t0 !chunks s_share

let worker t =
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock t.mutex;
    while (not t.shutdown) && t.generation = !seen do
      Condition.wait t.has_work t.mutex
    done;
    if t.shutdown then Mutex.unlock t.mutex
    else begin
      seen := t.generation;
      let job = t.current in
      Mutex.unlock t.mutex;
      (match job with
       | None -> ()
       | Some job ->
         run_share job;
         if Atomic.get job.left = 0 then begin
           Mutex.lock t.mutex;
           Condition.broadcast t.all_done;
           Mutex.unlock t.mutex
         end);
      loop ()
    end
  in
  loop ()

let create nproc =
  if nproc < 1 then invalid_arg "Parallel.create: pool size must be >= 1";
  let t =
    { nproc;
      mutex = Mutex.create ();
      has_work = Condition.create ();
      all_done = Condition.create ();
      current = None;
      generation = 0;
      shutdown = false;
      domains = [||];
      in_region = Atomic.make false }
  in
  t.domains <- Array.init (nproc - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let sequential = create 1

let inline_for ~lo ~hi f =
  let t0 = Telemetry.start () in
  for i = lo to hi do
    f i
  done;
  close_region t0 (hi - lo + 1) s_inline

let parallel_for t ~lo ~hi f =
  if hi < lo then ()
  else if t.nproc = 1 || not (Atomic.compare_and_set t.in_region false true)
  then begin
    Telemetry.add c_regions 1;
    inline_for ~lo ~hi f
  end
  else begin
    Telemetry.add c_regions 1;
    let job =
      { f; hi;
        next = Atomic.make lo;
        left = Atomic.make (hi - lo + 1);
        failed = Atomic.make None }
    in
    Mutex.lock t.mutex;
    t.current <- Some job;
    t.generation <- t.generation + 1;
    Condition.broadcast t.has_work;
    Mutex.unlock t.mutex;
    run_share job;
    Mutex.lock t.mutex;
    while Atomic.get job.left > 0 do
      Condition.wait t.all_done t.mutex
    done;
    t.current <- None;
    Mutex.unlock t.mutex;
    Atomic.set t.in_region false;
    match Atomic.get job.failed with
    | Some e -> raise e
    | None -> ()
  end

let teardown t =
  if t != sequential && not t.shutdown then begin
    Mutex.lock t.mutex;
    t.shutdown <- true;
    Condition.broadcast t.has_work;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.domains;
    t.domains <- [||]
  end
