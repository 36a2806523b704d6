(* Two-level storage — an outer table per vantage, an inner one per
   qname — so a lookup allocates no joined "vantage|qname" key string.
   The vantage population is tiny (country codes), so the outer table
   stays small while each inner table sizes like the old flat one. *)

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
