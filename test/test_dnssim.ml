(* Tests for webdep_dnssim: zone database, resolver, probes. *)

open Webdep_dnssim
module Ipv4 = Webdep_netsim.Ipv4
module Rng = Webdep_stats.Rng

let addr s = Option.get (Ipv4.addr_of_string s)

let db_with_example () =
  let db = Zone_db.create () in
  Zone_db.add_domain db ~domain:"example.com"
    ~ns_hosts:[ "ns1.dns.sim"; "ns2.dns.sim" ]
    ~a:(Zone_db.Static [ addr "10.0.0.1" ]);
  Zone_db.add_host db ~host:"ns1.dns.sim" ~a:(Zone_db.Static [ addr "10.9.0.1" ]);
  Zone_db.add_host db ~host:"ns2.dns.sim" ~a:(Zone_db.Static [ addr "10.9.0.2" ]);
  db

let test_resolve_static () =
  let db = db_with_example () in
  match Resolver.resolve db ~vantage:"US" "example.com" with
  | Error e -> Alcotest.fail ("should resolve: " ^ Resolver.error_message e)
  | Ok r ->
      Alcotest.(check (list string)) "a records" [ "10.0.0.1" ]
        (List.map Ipv4.addr_to_string r.Resolver.a);
      Alcotest.(check int) "two ns hosts" 2 (List.length r.Resolver.ns_hosts);
      Alcotest.(check (list string)) "glue" [ "10.9.0.1"; "10.9.0.2" ]
        (List.map Ipv4.addr_to_string r.Resolver.ns_addrs)

let test_resolve_nxdomain () =
  let db = db_with_example () in
  Alcotest.(check bool) "nxdomain" true
    (Resolver.resolve db ~vantage:"US" "missing.example" = Error Resolver.Nxdomain);
  Alcotest.(check bool) "resolve_a none" true
    (Resolver.resolve_a db ~vantage:"US" "missing.example" = None)

let test_geo_answer () =
  let db = Zone_db.create () in
  Zone_db.add_domain db ~domain:"cdn.example" ~ns_hosts:[]
    ~a:(Zone_db.Geo ([ ("DE", [ addr "10.2.0.1" ]) ], [ addr "10.1.0.1" ]));
  let from v = Option.get (Resolver.resolve_a db ~vantage:v "cdn.example") in
  Alcotest.(check string) "DE answer" "10.2.0.1" (Ipv4.addr_to_string (from "DE"));
  Alcotest.(check string) "default answer" "10.1.0.1" (Ipv4.addr_to_string (from "JP"))

let test_dynamic_answer () =
  let db = Zone_db.create () in
  Zone_db.add_domain db ~domain:"dyn.example" ~ns_hosts:[]
    ~a:(Zone_db.Dynamic (fun v -> if v = "FR" then [ addr "10.3.0.1" ] else [ addr "10.4.0.1" ]));
  let from v = Ipv4.addr_to_string (Option.get (Resolver.resolve_a db ~vantage:v "dyn.example")) in
  Alcotest.(check string) "FR" "10.3.0.1" (from "FR");
  Alcotest.(check string) "other" "10.4.0.1" (from "US")

let test_replace_domain () =
  let db = db_with_example () in
  Zone_db.add_domain db ~domain:"example.com" ~ns_hosts:[ "ns9.other.sim" ]
    ~a:(Zone_db.Static [ addr "10.0.0.2" ]);
  match Resolver.resolve db ~vantage:"US" "example.com" with
  | Ok r ->
      Alcotest.(check (list string)) "replaced" [ "10.0.0.2" ]
        (List.map Ipv4.addr_to_string r.Resolver.a);
      Alcotest.(check int) "domain count" 1 (Zone_db.domain_count db)
  | Error _ -> Alcotest.fail "should resolve"

let test_missing_glue () =
  let db = Zone_db.create () in
  Zone_db.add_domain db ~domain:"x.example" ~ns_hosts:[ "ns.unknown.sim" ]
    ~a:(Zone_db.Static [ addr "10.0.0.9" ]);
  match Resolver.resolve db ~vantage:"US" "x.example" with
  | Ok r -> Alcotest.(check int) "no glue" 0 (List.length r.Resolver.ns_addrs)
  | Error _ -> Alcotest.fail "should resolve"

(* --- Hierarchy + Iterative ----------------------------------------------------- *)

let big_db () =
  let db = Zone_db.create () in
  Zone_db.add_host db ~host:"ns1.alpha.sim" ~a:(Zone_db.Static [ addr "10.9.1.1" ]);
  Zone_db.add_host db ~host:"ns2.alpha.sim" ~a:(Zone_db.Static [ addr "10.9.1.2" ]);
  Zone_db.add_host db ~host:"ns1.beta.sim" ~a:(Zone_db.Static [ addr "10.9.2.1" ]);
  Zone_db.add_domain db ~domain:"shop.example.com"
    ~ns_hosts:[ "ns1.alpha.sim"; "ns2.alpha.sim" ]
    ~a:(Zone_db.Static [ addr "10.0.1.1" ]);
  Zone_db.add_domain db ~domain:"blog.example.org" ~ns_hosts:[ "ns1.beta.sim" ]
    ~a:(Zone_db.Geo ([ ("DE", [ addr "10.0.2.2" ]) ], [ addr "10.0.2.1" ]));
  Zone_db.add_domain db ~domain:"site.example.net" ~ns_hosts:[ "ns1.alpha.sim" ]
    ~a:(Zone_db.Static [ addr "10.0.3.1" ]);
  db

let test_hierarchy_structure () =
  let h = Hierarchy.build (big_db ()) in
  Alcotest.(check int) "13 roots" 13 (List.length (Hierarchy.root_addrs h));
  Alcotest.(check int) "three TLD zones" 3 (Hierarchy.tld_count h);
  Alcotest.(check int) "three auth hosts" 3 (Hierarchy.auth_server_count h)

let test_hierarchy_walk_by_hand () =
  let h = Hierarchy.build (big_db ()) in
  let root = List.hd (Hierarchy.root_addrs h) in
  (* Root refers to the .com servers. *)
  (match Hierarchy.query h ~server:root ~vantage:"US" ~qname:"shop.example.com" with
  | Hierarchy.Referral { zone = "com"; glue; _ } ->
      Alcotest.(check bool) "glue present" true (glue <> []);
      (* TLD server refers to the domain's NS with glue. *)
      let tld_addr = List.hd (snd (List.hd glue)) in
      (match Hierarchy.query h ~server:tld_addr ~vantage:"US" ~qname:"shop.example.com" with
      | Hierarchy.Referral { zone = "shop.example.com"; ns_hosts; glue } ->
          Alcotest.(check int) "two ns" 2 (List.length ns_hosts);
          (* Auth server answers. *)
          let auth = List.hd (snd (List.hd glue)) in
          (match Hierarchy.query h ~server:auth ~vantage:"US" ~qname:"shop.example.com" with
          | Hierarchy.Answer [ a ] ->
              Alcotest.(check string) "answer" "10.0.1.1" (Ipv4.addr_to_string a)
          | _ -> Alcotest.fail "expected answer")
      | _ -> Alcotest.fail "expected domain referral")
  | _ -> Alcotest.fail "expected tld referral")

let test_hierarchy_lame_server_refuses () =
  let h = Hierarchy.build (big_db ()) in
  (* ns1.beta.sim does not serve shop.example.com. *)
  Alcotest.(check bool) "lame" true
    (Hierarchy.query h ~server:(addr "10.9.2.1") ~vantage:"US" ~qname:"shop.example.com"
    = Hierarchy.Name_error)

let test_hierarchy_root_serves_glue () =
  let h = Hierarchy.build (big_db ()) in
  let root = List.hd (Hierarchy.root_addrs h) in
  match Hierarchy.query h ~server:root ~vantage:"US" ~qname:"ns1.alpha.sim" with
  | Hierarchy.Answer [ a ] -> Alcotest.(check string) "glue" "10.9.1.1" (Ipv4.addr_to_string a)
  | _ -> Alcotest.fail "root should serve infrastructure glue"

(* TLD servers are numbered by label, so the same records give the same
   referrals (and hence the same server addresses fault plans key on)
   whatever the zone table's capacity or the order the records went in. *)
let test_hierarchy_tld_numbering_order_free () =
  let labels =
    List.init 40 (fun i -> Printf.sprintf "t%02d" ((i * 17) mod 40)) @ [ "com"; "academy"; "de" ]
  in
  let records =
    List.concat_map
      (fun label -> List.init 5 (fun k -> Printf.sprintf "site%d.%s" k label))
      labels
  in
  let build ?domains records =
    let db = Zone_db.create ?domains () in
    List.iter
      (fun domain ->
        Zone_db.add_domain db ~domain ~ns_hosts:[ "ns1.alpha.sim" ]
          ~a:(Zone_db.Static [ addr "10.0.0.1" ]))
      records;
    Zone_db.add_host db ~host:"ns1.alpha.sim" ~a:(Zone_db.Static [ addr "10.9.1.1" ]);
    Hierarchy.build db
  in
  let referrals h =
    let root = List.hd (Hierarchy.root_addrs h) in
    List.map
      (fun label ->
        match Hierarchy.query h ~server:root ~vantage:"US" ~qname:("probe." ^ label) with
        | Hierarchy.Referral { zone; ns_hosts; glue } ->
            String.concat " "
              (zone :: ns_hosts
              @ List.concat_map (fun (_, addrs) -> List.map Ipv4.addr_to_string addrs) glue)
        | _ -> Alcotest.fail ("no referral for " ^ label))
      (List.sort String.compare labels)
  in
  let want = referrals (build records) in
  List.iter
    (fun (what, h) -> Alcotest.(check (list string)) what want (referrals h))
    [ ("reversed insertion", build (List.rev records));
      ("capacity 65536", build ~domains:65536 records);
      ("capacity 65536, reversed", build ~domains:65536 (List.rev records));
      ("capacity 1", build ~domains:1 (List.rev records)) ];
  Alcotest.(check string) "the first label in order gets the first TLD pair"
    "academy a.academy-servers.sim b.academy-servers.sim 12.1.0.2 12.1.0.3" (List.hd want)

let test_iterative_resolves () =
  let db = big_db () in
  let h = Hierarchy.build db in
  match Iterative.resolve h ~vantage:"US" "shop.example.com" with
  | Ok ([ a ], stats) ->
      Alcotest.(check string) "answer" "10.0.1.1" (Ipv4.addr_to_string a);
      Alcotest.(check int) "root + tld + auth = 3 queries" 3 stats.Iterative.queries;
      Alcotest.(check int) "two referrals" 2 stats.Iterative.referrals
  | Ok _ -> Alcotest.fail "one address expected"
  | Error _ -> Alcotest.fail "should resolve"

(* First address of an iterative walk, comparable with
   [Resolver.resolve_a]. *)
let iterative_a h ~vantage qname =
  match Iterative.resolve h ~vantage qname with
  | Ok (addr :: _, _) -> Some addr
  | Ok ([], _) | Error _ -> None

let test_iterative_vantage_dependent () =
  let h = Hierarchy.build (big_db ()) in
  let from v =
    Ipv4.addr_to_string (Option.get (iterative_a h ~vantage:v "blog.example.org"))
  in
  Alcotest.(check string) "DE answer" "10.0.2.2" (from "DE");
  Alcotest.(check string) "default answer" "10.0.2.1" (from "US")

let test_iterative_nxdomain () =
  let h = Hierarchy.build (big_db ()) in
  (match Iterative.resolve h ~vantage:"US" "missing.example.com" with
  | Error Iterative.Nxdomain -> ()
  | _ -> Alcotest.fail "expected nxdomain");
  match Iterative.resolve h ~vantage:"US" "whatever.unknown-tld" with
  | Error Iterative.Nxdomain -> ()
  | _ -> Alcotest.fail "unknown TLD is nxdomain at the root"

let test_iterative_matches_flat_resolver () =
  (* The hierarchy must agree with the flat resolver on every domain and
     vantage — same authoritative data, different lookup path. *)
  let db = big_db () in
  let h = Hierarchy.build db in
  List.iter
    (fun domain ->
      List.iter
        (fun vantage ->
          let flat = Resolver.resolve_a db ~vantage domain in
          let iter = iterative_a h ~vantage domain in
          if flat <> iter then
            Alcotest.failf "disagreement on %s from %s" domain vantage)
        [ "US"; "DE"; "JP" ])
    [ "shop.example.com"; "blog.example.org"; "site.example.net" ]

(* --- CNAME chains ------------------------------------------------------------- *)

let cname_db () =
  let db = big_db () in
  (* www.shop.example.com is CDN-fronted: alias into the provider's
     namespace, which carries the real A answer. *)
  Zone_db.add_host db ~host:"ns1.cdn.sim" ~a:(Zone_db.Static [ addr "10.9.3.1" ]);
  Zone_db.add_domain db ~domain:"edge-123.cdn.sim" ~ns_hosts:[ "ns1.cdn.sim" ]
    ~a:(Zone_db.Static [ addr "10.7.0.1" ]);
  Zone_db.add_alias db ~domain:"www.shop.example.com" ~target:"edge-123.cdn.sim"
    ~ns_hosts:[ "ns1.alpha.sim" ];
  db

let test_cname_flat_resolution () =
  let db = cname_db () in
  (match Resolver.resolve db ~vantage:"US" "www.shop.example.com" with
  | Ok r ->
      Alcotest.(check (list string)) "follows the chain" [ "10.7.0.1" ]
        (List.map Ipv4.addr_to_string r.Resolver.a);
      (* NS authority stays with the aliased name's own zone. *)
      Alcotest.(check (list string)) "ns of the alias" [ "ns1.alpha.sim" ] r.Resolver.ns_hosts
  | Error _ -> Alcotest.fail "should resolve");
  Alcotest.(check (option string)) "cname_of" (Some "edge-123.cdn.sim")
    (Zone_db.cname_of db "www.shop.example.com")

let test_cname_dangling_target_falls_back () =
  let db = big_db () in
  Zone_db.add_alias db ~domain:"dangling.example.com" ~target:"gone.cdn.sim"
    ~ns_hosts:[ "ns1.alpha.sim" ];
  Alcotest.(check bool) "no addresses" true
    (Resolver.resolve_a db ~vantage:"US" "dangling.example.com" = None)

let test_cname_cycle_terminates () =
  let db = big_db () in
  Zone_db.add_alias db ~domain:"a.loop.example.com" ~target:"b.loop.example.com"
    ~ns_hosts:[ "ns1.alpha.sim" ];
  Zone_db.add_alias db ~domain:"b.loop.example.com" ~target:"a.loop.example.com"
    ~ns_hosts:[ "ns1.alpha.sim" ];
  Alcotest.(check bool) "cycle yields nothing" true
    (Resolver.resolve_a db ~vantage:"US" "a.loop.example.com" = None)

let test_cname_iterative_restarts () =
  let db = cname_db () in
  let h = Hierarchy.build db in
  match Iterative.resolve h ~vantage:"US" "www.shop.example.com" with
  | Ok ([ a ], stats) ->
      Alcotest.(check string) "final answer" "10.7.0.1" (Ipv4.addr_to_string a);
      (* Two full walks: 3 queries to reach the alias, 3 for the target. *)
      Alcotest.(check int) "six queries" 6 stats.Iterative.queries
  | Ok _ -> Alcotest.fail "one address expected"
  | Error _ -> Alcotest.fail "should resolve"

let test_cname_iterative_matches_flat () =
  let db = cname_db () in
  let h = Hierarchy.build db in
  Alcotest.(check bool) "agreement" true
    (Resolver.resolve_a db ~vantage:"US" "www.shop.example.com"
    = iterative_a h ~vantage:"US" "www.shop.example.com")

(* --- Cache ------------------------------------------------------------------ *)

let counter_value name = Webdep_obs.Metrics.value (Webdep_obs.Metrics.counter name)

let test_cache_basic () =
  Webdep_obs.Registry.reset ();
  let c = Cache.create ~name:"dns.cache.test" () in
  let get ~vantage v = Cache.find_or_compute c ~vantage "a.example" (fun () -> v) in
  Alcotest.(check int) "cold miss computes" 7 (get ~vantage:"US" 7);
  Alcotest.(check int) "hit keeps the first value" 7 (get ~vantage:"US" 8);
  Alcotest.(check int) "vantage keyed" 9 (get ~vantage:"DE" 9);
  Alcotest.(check int) "two entries" 2 (Cache.length c);
  Alcotest.(check int) "hit counter" 1 (Cache.hits c);
  Alcotest.(check int) "miss counter" 2 (Cache.misses c)

let test_cache_find_or_compute () =
  let c = Cache.create ~name:"dns.cache.test" () in
  let calls = ref 0 in
  let f () =
    incr calls;
    42
  in
  Alcotest.(check int) "computed" 42 (Cache.find_or_compute c ~vantage:"US" "x" f);
  Alcotest.(check int) "memoized" 42 (Cache.find_or_compute c ~vantage:"US" "x" f);
  Alcotest.(check int) "computed once" 1 !calls

let test_resolver_cache_transparent () =
  (* The glue memo may change the work, never the answers — across
     static, geo, CNAME-chained and missing names, from several
     vantages. *)
  let db = cname_db () in
  Zone_db.add_domain db ~domain:"cdn.example" ~ns_hosts:[]
    ~a:(Zone_db.Geo ([ ("DE", [ addr "10.2.0.1" ]) ], [ addr "10.1.0.1" ]));
  let cache = Resolver.make_cache () in
  List.iter
    (fun domain ->
      List.iter
        (fun vantage ->
          (* Twice with the cache: the second resolve reads warm glue. *)
          let uncached = Resolver.resolve db ~vantage domain in
          if Resolver.resolve ~cache db ~vantage domain <> uncached then
            Alcotest.failf "cold cache changes %s from %s" domain vantage;
          if Resolver.resolve ~cache db ~vantage domain <> uncached then
            Alcotest.failf "warm cache changes %s from %s" domain vantage)
        [ "US"; "DE"; "JP" ])
    [ "shop.example.com"; "cdn.example"; "www.shop.example.com"; "missing.example" ]

let test_resolver_glue_reuse () =
  (* Two domains on the same nameservers: the second resolution reuses
     the glue memo — the paper-world pattern where a handful of DNS
     providers serve nearly every site. *)
  Webdep_obs.Registry.reset ();
  let db = db_with_example () in
  Zone_db.add_domain db ~domain:"other.com"
    ~ns_hosts:[ "ns1.dns.sim"; "ns2.dns.sim" ]
    ~a:(Zone_db.Static [ addr "10.0.0.3" ]);
  let cache = Resolver.make_cache () in
  ignore (Resolver.resolve ~cache db ~vantage:"US" "example.com");
  Alcotest.(check int) "cold glue misses" 2 (counter_value "dns.cache.glue.misses");
  Alcotest.(check int) "cold glue hits" 0 (counter_value "dns.cache.glue.hits");
  ignore (Resolver.resolve ~cache db ~vantage:"US" "other.com");
  Alcotest.(check int) "glue reused" 2 (counter_value "dns.cache.glue.hits");
  Alcotest.(check int) "no new glue misses" 2 (counter_value "dns.cache.glue.misses")

(* --- Probe ------------------------------------------------------------------ *)

let test_probe_pool () =
  let pool = Probe.pool_of_countries ~per_country:3 [ "US"; "DE"; "JP" ] in
  Alcotest.(check int) "size" 9 (Probe.size pool);
  Alcotest.(check int) "countries" 3 (Probe.countries_covered pool)

let test_probe_pick_in_country () =
  let pool = Probe.pool_of_countries ~per_country:3 [ "US"; "DE" ] in
  let rng = Rng.create 13 in
  for _ = 1 to 50 do
    let p = Probe.pick pool rng ~country:"DE" in
    Alcotest.(check string) "in-country probe" "DE" p.Probe.country
  done

let test_probe_missing_country_fallback () =
  let pool = Probe.pool_of_countries ~missing:[ "TM" ] ~per_country:2 [ "US"; "TM" ] in
  Alcotest.(check int) "TM excluded" 1 (Probe.countries_covered pool);
  let rng = Rng.create 14 in
  let p = Probe.pick pool rng ~country:"TM" in
  Alcotest.(check string) "fallback to any" "US" p.Probe.country

let test_probe_ids_unique () =
  let pool = Probe.pool_of_countries ~per_country:5 [ "US"; "DE"; "JP" ] in
  let rng = Rng.create 15 in
  let ids = List.init 200 (fun _ -> (Probe.pick pool rng ~country:"US").Probe.id) in
  List.iter (fun id -> if id < 0 || id >= 15 then Alcotest.failf "bad id %d" id) ids

let () =
  Alcotest.run "webdep_dnssim"
    [
      ( "resolver",
        [
          Alcotest.test_case "static" `Quick test_resolve_static;
          Alcotest.test_case "nxdomain" `Quick test_resolve_nxdomain;
          Alcotest.test_case "geo answer" `Quick test_geo_answer;
          Alcotest.test_case "dynamic answer" `Quick test_dynamic_answer;
          Alcotest.test_case "replace domain" `Quick test_replace_domain;
          Alcotest.test_case "missing glue" `Quick test_missing_glue;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "structure" `Quick test_hierarchy_structure;
          Alcotest.test_case "walk by hand" `Quick test_hierarchy_walk_by_hand;
          Alcotest.test_case "lame server refuses" `Quick test_hierarchy_lame_server_refuses;
          Alcotest.test_case "root serves glue" `Quick test_hierarchy_root_serves_glue;
          Alcotest.test_case "TLD numbering order-free" `Quick
            test_hierarchy_tld_numbering_order_free;
          Alcotest.test_case "iterative resolves" `Quick test_iterative_resolves;
          Alcotest.test_case "iterative vantage" `Quick test_iterative_vantage_dependent;
          Alcotest.test_case "iterative nxdomain" `Quick test_iterative_nxdomain;
          Alcotest.test_case "iterative = flat" `Quick test_iterative_matches_flat_resolver;
        ] );
      ( "cname",
        [
          Alcotest.test_case "flat resolution" `Quick test_cname_flat_resolution;
          Alcotest.test_case "dangling target" `Quick test_cname_dangling_target_falls_back;
          Alcotest.test_case "cycle terminates" `Quick test_cname_cycle_terminates;
          Alcotest.test_case "iterative restarts" `Quick test_cname_iterative_restarts;
          Alcotest.test_case "iterative = flat" `Quick test_cname_iterative_matches_flat;
        ] );
      ( "cache",
        [
          Alcotest.test_case "basic" `Quick test_cache_basic;
          Alcotest.test_case "find_or_compute" `Quick test_cache_find_or_compute;
          Alcotest.test_case "resolver transparent" `Quick test_resolver_cache_transparent;
          Alcotest.test_case "glue reuse" `Quick test_resolver_glue_reuse;
        ] );
      ( "probe",
        [
          Alcotest.test_case "pool" `Quick test_probe_pool;
          Alcotest.test_case "pick in country" `Quick test_probe_pick_in_country;
          Alcotest.test_case "missing fallback" `Quick test_probe_missing_country_fallback;
          Alcotest.test_case "ids sane" `Quick test_probe_ids_unique;
        ] );
    ]
