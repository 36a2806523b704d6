(* Two-level storage — an outer table per vantage, an inner one per
   qname — so lookups on the measurement hot path allocate no joined
   "vantage|qname" key string.  The vantage population is tiny (country
   codes), so the outer table stays small while each inner table sizes
   like the old flat one. *)

type 'a t = {
  tbl : (string, (string, 'a) Hashtbl.t) Hashtbl.t;
  inner_size : int;
  h : Webdep_obs.Metrics.counter;
  m : Webdep_obs.Metrics.counter;
}

let create ?(size = 4096) ~name () =
  {
    tbl = Hashtbl.create 64;
    inner_size = size;
    h = Webdep_obs.Metrics.counter (name ^ ".hits");
    m = Webdep_obs.Metrics.counter (name ^ ".misses");
  }

let inner t ~vantage =
  match Hashtbl.find_opt t.tbl vantage with
  | Some i -> i
  | None ->
      let i = Hashtbl.create t.inner_size in
      Hashtbl.replace t.tbl vantage i;
      i

let find t ~vantage qname =
  let hit =
    match Hashtbl.find_opt t.tbl vantage with
    | None -> None
    | Some i -> Hashtbl.find_opt i qname
  in
  (match hit with
  | Some _ -> Webdep_obs.Metrics.incr t.h
  | None -> Webdep_obs.Metrics.incr t.m);
  hit

let add t ~vantage qname v = Hashtbl.replace (inner t ~vantage) qname v

(* Shared across every cache instance: how many computed values were
   deliberately NOT memoized because the caller judged them transient
   (a cached SERVFAIL must not mask a later successful retry). *)
let m_negative_skip = Webdep_obs.Metrics.counter "dns.cache.negative_skip"

let negative_skip () = Webdep_obs.Metrics.incr m_negative_skip

let find_or_compute t ~vantage qname f =
  let i = inner t ~vantage in
  match Hashtbl.find_opt i qname with
  | Some v ->
      Webdep_obs.Metrics.incr t.h;
      v
  | None ->
      Webdep_obs.Metrics.incr t.m;
      let v = f () in
      Hashtbl.add i qname v;
      v

let length t = Hashtbl.fold (fun _ i acc -> acc + Hashtbl.length i) t.tbl 0
let hits t = Webdep_obs.Metrics.value t.h
let misses t = Webdep_obs.Metrics.value t.m
