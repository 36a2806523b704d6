type stats = { queries : int; referrals : int }

type error = Resolver.error =
  | Nxdomain
  | Timeout
  | Refused
  | Servfail of string

let max_depth = 8

let max_cname = 5

(* Observability: totals across every resolution this process ran.  The
   query-depth histogram records queries-per-successful-resolution, which
   is what the pipeline's resolution_stats reports as mean_queries. *)
let m_queries = Webdep_obs.Metrics.counter "dns.iterative.queries"
let m_referrals = Webdep_obs.Metrics.counter "dns.iterative.referrals"
let m_nxdomain = Webdep_obs.Metrics.counter "dns.iterative.nxdomain"
let m_servfail = Webdep_obs.Metrics.counter "dns.iterative.servfail"
let m_depth = Webdep_obs.Metrics.histogram "dns.iterative.query_depth"

let resolve hierarchy ~vantage qname =
  let queries = ref 0 and referrals = ref 0 in
  let rec start qname aliases =
    if aliases > max_cname then Error (Servfail "cname chain too long")
    else walk qname aliases (Hierarchy.root_addrs hierarchy) 0
  and walk qname aliases servers depth =
    if depth > max_depth then Error (Servfail "referral chain too long")
    else
      (* The head of the server set answers: a simulated server never
         loses a query, so there is nothing to fail over to. *)
      match servers with
      | [] -> Error (Servfail "no servers to ask")
      | server :: _ -> (
          incr queries;
          match Hierarchy.query hierarchy ~server ~vantage ~qname with
          | Hierarchy.Answer addrs -> Ok addrs
          | Hierarchy.Cname target ->
              (* Restart from the root hints for the alias target, as a
                 recursive resolver does. *)
              start target (aliases + 1)
          | Hierarchy.Name_error -> Error Nxdomain
          | Hierarchy.Referral { glue; _ } ->
              incr referrals;
              let next = List.concat_map snd glue in
              if next = [] then Error (Servfail "referral without glue")
              else walk qname aliases next (depth + 1))
  in
  let result = start qname 0 in
  Webdep_obs.Metrics.incr ~by:!queries m_queries;
  Webdep_obs.Metrics.incr ~by:!referrals m_referrals;
  match result with
  | Ok addrs ->
      Webdep_obs.Metrics.observe m_depth (float_of_int !queries);
      Ok (addrs, { queries = !queries; referrals = !referrals })
  | Error e ->
      Webdep_obs.Metrics.incr (match e with Nxdomain -> m_nxdomain | _ -> m_servfail);
      Error e
