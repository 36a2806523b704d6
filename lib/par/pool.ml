(* Fixed-size domain pool.

   Workers block on a condition variable between runs.  A run installs a
   [step] closure that drains a shared chunk queue (an [Atomic.t] cursor
   over precomputed chunk bounds); every lane — the workers and the
   calling domain — calls [step] until the queue is empty, then the
   caller waits for the stragglers.  Because each chunk writes into a
   slot indexed by its input position, the assembled result is
   independent of which lane processed which chunk.

   Re-entrancy: a domain-local flag marks "currently inside a pool
   task"; combinators called with the flag set run sequentially, so a
   nested [map] cannot deadlock the (single-run-at-a-time) pool. *)

type t = {
  jobs : int;
  lock : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable step : (unit -> unit) option;  (* current run's chunk drainer *)
  mutable generation : int;  (* bumped once per run; workers wait on it *)
  mutable remaining : int;  (* workers yet to finish the current run *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let in_task : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

let jobs t = t.jobs

let rec worker t last_gen =
  Mutex.lock t.lock;
  while (not t.stop) && t.generation = last_gen do
    Condition.wait t.work_ready t.lock
  done;
  if t.stop then Mutex.unlock t.lock
  else begin
    let gen = t.generation in
    let step = match t.step with Some s -> s | None -> fun () -> () in
    Mutex.unlock t.lock;
    (* User exceptions are captured inside [step] (per chunk); anything
       escaping here would kill the domain, so swallow defensively. *)
    (try step () with _ -> ());
    Mutex.lock t.lock;
    t.remaining <- t.remaining - 1;
    if t.remaining = 0 then Condition.broadcast t.work_done;
    Mutex.unlock t.lock;
    worker t gen
  end

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      jobs;
      lock = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      step = None;
      generation = 0;
      remaining = 0;
      stop = false;
      domains = [];
    }
  in
  t.domains <-
    List.init (jobs - 1) (fun i ->
        Domain.spawn (fun () ->
            (* Stable lane ids 1..jobs-1 (0 = the calling domain) so
               trace exports get one track per pool lane instead of
               ever-growing raw domain ids across pool restarts. *)
            Webdep_obs.Span.set_lane (i + 1);
            worker t 0));
  t

let shutdown t =
  if t.domains <> [] then begin
    Mutex.lock t.lock;
    t.stop <- true;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.lock;
    List.iter Domain.join t.domains;
    t.domains <- []
  end

let with_pool ~jobs f =
  let t = create ~jobs in
  match f t with
  | v ->
      shutdown t;
      v
  | exception e ->
      shutdown t;
      raise e

(* Run [step] on every lane and wait until all lanes are done.  [step]
   must be safe to call concurrently from several domains and must
   return once the shared queue is drained. *)
let run t step =
  let flag = Domain.DLS.get in_task in
  if t.jobs = 1 || !flag || t.domains = [] then step ()
  else begin
    let stepped () =
      let fl = Domain.DLS.get in_task in
      fl := true;
      Fun.protect ~finally:(fun () -> fl := false) step
    in
    Mutex.lock t.lock;
    t.step <- Some stepped;
    t.generation <- t.generation + 1;
    t.remaining <- t.jobs - 1;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.lock;
    stepped ();
    Mutex.lock t.lock;
    while t.remaining > 0 do
      Condition.wait t.work_done t.lock
    done;
    t.step <- None;
    Mutex.unlock t.lock
  end

(* Chunk size: oversubscribe each lane ~4x so uneven per-item cost (some
   countries are slower than others) still balances. *)
let chunk_size t n = max 1 (n / (t.jobs * 4))

(* Remember the raised exception with the lowest chunk index seen, so the
   error surfaced to the caller is stable across schedules. *)
let rec record_exn cell i e =
  match Atomic.get cell with
  | Some (j, _) when j <= i -> ()
  | cur -> if not (Atomic.compare_and_set cell cur (Some (i, e))) then record_exn cell i e

let map_array t f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else if t.jobs = 1 || n = 1 then Array.map f arr
  else begin
    let chunk = chunk_size t n in
    let nchunks = (n + chunk - 1) / chunk in
    let slots = Array.make nchunks [||] in
    let cursor = Atomic.make 0 in
    let first_exn = Atomic.make None in
    let step () =
      let rec drain () =
        let i = Atomic.fetch_and_add cursor 1 in
        if i < nchunks then begin
          if Atomic.get first_exn = None then begin
            let lo = i * chunk in
            let len = min n (lo + chunk) - lo in
            (try slots.(i) <- Array.init len (fun j -> f arr.(lo + j))
             with e -> record_exn first_exn i e)
          end;
          drain ()
        end
      in
      drain ()
    in
    run t step;
    (match Atomic.get first_exn with Some (_, e) -> raise e | None -> ());
    Array.concat (Array.to_list slots)
  end

let map t f xs = Array.to_list (map_array t f (Array.of_list xs))
