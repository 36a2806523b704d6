(* Shared-pool front end, with the raw pool available as [Pool] for
   callers that want private lanes.

   The pool is process-global so the CLI/bench [--jobs] flag reaches
   every library phase without plumbing a pool through each signature,
   and so domains are spawned once per process rather than once per
   phase.  [set_jobs] and the shared pool are guarded by a mutex; the
   combinators themselves delegate to [Pool], which is single-driver by
   design. *)

module Pool = Pool

let lock = Mutex.create ()
let requested : int option ref = ref None
let shared : Pool.t option ref = ref None

let jobs () =
  match !requested with Some j -> j | None -> Domain.recommended_domain_count ()

let shutdown () =
  Mutex.protect lock (fun () ->
      match !shared with
      | None -> ()
      | Some p ->
          shared := None;
          Pool.shutdown p)

let set_jobs j =
  if j < 1 then invalid_arg "Webdep_par.set_jobs: jobs must be >= 1";
  Mutex.protect lock (fun () ->
      if jobs () <> j then begin
        (match !shared with Some p -> Pool.shutdown p | None -> ());
        shared := None
      end;
      requested := Some j)

let shared_pool () =
  Mutex.protect lock (fun () ->
      match !shared with
      | Some p -> p
      | None ->
          let p = Pool.create ~jobs:(jobs ()) in
          shared := Some p;
          p)

(* [?jobs] overriding the configured count gets a temporary pool; the
   matching count (and the common [None]) reuses the shared one. *)
let with_pool ?jobs:j f =
  match j with
  | None -> f (shared_pool ())
  | Some j when j = jobs () -> f (shared_pool ())
  | Some j -> Pool.with_pool ~jobs:j f

let map ?jobs f xs = with_pool ?jobs (fun p -> Pool.map p f xs)
let map_array ?jobs f arr = with_pool ?jobs (fun p -> Pool.map_array p f arr)

(* Streaming fan-out: map a window of items on the pool, fold that
   window's results on the calling domain in input order, drop them,
   advance.  The fold sees results in exactly the input order at any
   lane count, and at most a window of mapped results are live at once
   — which is what keeps a full-scale measurement sweep's peak heap
   bounded by a window of countries instead of the whole world.  The
   window is a couple of results per lane (at least 8): enough slack
   that uneven per-item cost still balances, small enough that the live
   set stays a fraction of the input. *)
let map_fold ?jobs f ~init ~fold xs =
  with_pool ?jobs (fun p ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      let window = max 8 (2 * Pool.jobs p) in
      let acc = ref init in
      let i = ref 0 in
      while !i < n do
        let len = min window (n - !i) in
        let results = Pool.map_array p f (Array.sub arr !i len) in
        for j = 0 to len - 1 do
          acc := fold !acc results.(j)
        done;
        i := !i + len
      done;
      !acc)
