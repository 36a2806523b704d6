type response = {
  a : Webdep_netsim.Ipv4.addr list;
  ns_hosts : string list;
  ns_addrs : Webdep_netsim.Ipv4.addr list;
}

(* The canonical resolution error, shared by the flat and iterative
   resolvers.  Nxdomain is definitive (the name does not exist);
   everything else is transient and eligible for retry. *)
type error = Nxdomain | Timeout | Refused | Servfail of string

let error_message = function
  | Nxdomain -> "NXDOMAIN"
  | Timeout -> "query timed out"
  | Refused -> "REFUSED"
  | Servfail msg -> "SERVFAIL: " ^ msg

let retryable = function
  | Nxdomain -> false
  | Timeout | Refused | Servfail _ -> true

let max_cname_depth = 5

(* Observability: lookup totals for the ZDNS-style flat resolver. *)
let m_lookups = Webdep_obs.Metrics.counter "dns.flat.lookups"
let m_nxdomain = Webdep_obs.Metrics.counter "dns.flat.nxdomain"
let m_cname_chased = Webdep_obs.Metrics.counter "dns.flat.cname_chased"

(* Sweep-scoped NS-glue memo: per-nameserver-host addresses.  A handful
   of DNS providers serve thousands of sites, so their glue repeats on
   almost every lookup.  Whole responses are not memoized: every caller
   resolves each (vantage, domain) once per sweep, so such a memo never
   hits. *)
type cache = Webdep_netsim.Ipv4.addr list Cache.t

let make_cache () = Cache.create ~size:1024 ~name:"dns.cache.glue" ()

(* Follow a CNAME chain to the terminal A answer; a broken or cyclic
   chain yields no addresses (a resolver would SERVFAIL). *)
let rec chase db ~vantage domain depth =
  match Zone_db.answer_addrs db ~vantage domain with
  | None -> []
  | Some own -> (
      match Zone_db.cname_of db domain with
      | Some target when depth < max_cname_depth -> (
          Webdep_obs.Metrics.incr m_cname_chased;
          match chase db ~vantage target (depth + 1) with
          | [] -> own
          | addrs -> addrs)
      | Some _ -> []
      | None -> own)

module Faults = Webdep_faults.Fault_plan
module Retry = Webdep_faults.Retry

let resolve ?cache ?(faults = Faults.disabled) ?(retry = Retry.no_retry) db
    ~vantage domain =
  Webdep_obs.Metrics.incr m_lookups;
  let attempt_once ~attempt =
    match Faults.dns_fault faults ~vantage ~qname:domain ~attempt with
    | Faults.Fault Faults.Dns_timeout -> Error Timeout
    | Faults.Fault Faults.Dns_refused -> Error Refused
    | Faults.Fault _ ->
        Error (Servfail "injected: authoritative server failure")
    | Faults.No_fault -> (
        match Zone_db.domain_data db domain with
        | None ->
            Webdep_obs.Metrics.incr m_nxdomain;
            Error Nxdomain
        | Some (ns_hosts, _) ->
            let a = chase db ~vantage domain 0 in
            let glue_of host =
              match cache with
              | None -> Zone_db.host_addr db ~vantage host
              | Some c ->
                  Cache.find_or_compute c ~vantage host (fun () ->
                      Zone_db.host_addr db ~vantage host)
            in
            Ok { a; ns_hosts; ns_addrs = List.concat_map glue_of ns_hosts })
  in
  (* Fault-free, every error is a definitive Nxdomain (non-retryable),
     so Retry.run is the identity and never touches a counter — skip it
     and the per-lookup "vantage|domain" key allocation with it. *)
  if not (Faults.enabled faults) then attempt_once ~attempt:0
  else Retry.run retry ~key:(vantage ^ "|" ^ domain) ~retryable attempt_once

let resolve_a ?cache ?faults ?retry db ~vantage domain =
  match resolve ?cache ?faults ?retry db ~vantage domain with
  | Ok { a = addr :: _; _ } -> Some addr
  | Ok { a = []; _ } | Error _ -> None
