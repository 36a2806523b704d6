(* Tests for webdep_netsim: addresses, prefix trie, AS/org db, geolocation
   error model, BGP, and the assembled internet. *)

open Webdep_netsim
module Rng = Webdep_stats.Rng

(* --- Ipv4 ----------------------------------------------------------------- *)

let test_addr_roundtrip () =
  List.iter
    (fun s ->
      match Ipv4.addr_of_string s with
      | None -> Alcotest.failf "parse %s" s
      | Some a -> Alcotest.(check string) s s (Ipv4.addr_to_string a))
    [ "0.0.0.0"; "255.255.255.255"; "192.168.1.42"; "8.8.8.8" ]

let test_addr_invalid () =
  List.iter
    (fun s ->
      if Ipv4.addr_of_string s <> None then Alcotest.failf "should reject %s" s)
    [ "256.0.0.1"; "1.2.3"; "a.b.c.d"; "1.2.3.4.5"; "-1.2.3.4" ]

let test_addr_of_int_bounds () =
  Alcotest.check_raises "too big" (Invalid_argument "Ipv4.addr_of_int: outside 32-bit range")
    (fun () -> ignore (Ipv4.addr_of_int (1 lsl 32)))

let test_prefix_masking () =
  let a = Option.get (Ipv4.addr_of_string "10.1.2.3") in
  let p = Ipv4.prefix a 16 in
  Alcotest.(check string) "masked" "10.1.0.0/16" (Ipv4.prefix_to_string p)

let test_prefix_contains () =
  let p = Option.get (Ipv4.prefix_of_string "10.1.0.0/16") in
  let inside = Option.get (Ipv4.addr_of_string "10.1.200.7") in
  let outside = Option.get (Ipv4.addr_of_string "10.2.0.1") in
  Alcotest.(check bool) "inside" true (Ipv4.contains p inside);
  Alcotest.(check bool) "outside" false (Ipv4.contains p outside)

let test_prefix_size () =
  let p = Option.get (Ipv4.prefix_of_string "10.0.0.0/20") in
  Alcotest.(check int) "/20 size" 4096 (Ipv4.prefix_size p)

let test_nth_addr () =
  let p = Option.get (Ipv4.prefix_of_string "10.0.0.0/24") in
  Alcotest.(check string) "nth" "10.0.0.17" (Ipv4.addr_to_string (Ipv4.nth_addr p 17));
  Alcotest.check_raises "out of prefix" (Invalid_argument "Ipv4.nth_addr: index outside prefix")
    (fun () -> ignore (Ipv4.nth_addr p 256))

let test_random_addr_in_prefix () =
  let rng = Rng.create 3 in
  let p = Option.get (Ipv4.prefix_of_string "10.5.0.0/20") in
  for _ = 1 to 1000 do
    if not (Ipv4.contains p (Ipv4.random_addr rng p)) then
      Alcotest.fail "random addr escaped prefix"
  done

let prop_addr_roundtrip =
  QCheck.Test.make ~name:"addr int roundtrip" ~count:200
    QCheck.(int_range 0 ((1 lsl 32) - 1))
    (fun i ->
      let a = Ipv4.addr_of_int i in
      Ipv4.addr_to_int a = i
      && Ipv4.addr_of_string (Ipv4.addr_to_string a) = Some a)

(* --- Prefix_table ----------------------------------------------------------- *)

let pfx s = Option.get (Ipv4.prefix_of_string s)
let addr s = Option.get (Ipv4.addr_of_string s)

let test_trie_longest_prefix_match () =
  let t = Prefix_table.create () in
  Prefix_table.add t (pfx "10.0.0.0/8") "eight";
  Prefix_table.add t (pfx "10.1.0.0/16") "sixteen";
  Prefix_table.add t (pfx "10.1.2.0/24") "twentyfour";
  Alcotest.(check (option string)) "/24 wins" (Some "twentyfour")
    (Prefix_table.lookup t (addr "10.1.2.3"));
  Alcotest.(check (option string)) "/16 wins" (Some "sixteen")
    (Prefix_table.lookup t (addr "10.1.9.9"));
  Alcotest.(check (option string)) "/8 fallback" (Some "eight")
    (Prefix_table.lookup t (addr "10.200.0.1"));
  Alcotest.(check (option string)) "miss" None (Prefix_table.lookup t (addr "11.0.0.1"))

let test_trie_replace () =
  let t = Prefix_table.create () in
  Prefix_table.add t (pfx "10.0.0.0/8") "a";
  Prefix_table.add t (pfx "10.0.0.0/8") "b";
  Alcotest.(check int) "size after replace" 1 (Prefix_table.size t);
  Alcotest.(check (option string)) "replaced" (Some "b") (Prefix_table.lookup t (addr "10.1.1.1"))

let test_trie_default_route () =
  let t = Prefix_table.create () in
  Prefix_table.add t (pfx "0.0.0.0/0") "default";
  Alcotest.(check (option string)) "default matches all" (Some "default")
    (Prefix_table.lookup t (addr "203.0.113.7"))

let test_trie_lookup_prefix () =
  let t = Prefix_table.create () in
  Prefix_table.add t (pfx "192.168.0.0/16") 1;
  match Prefix_table.lookup_prefix t (addr "192.168.3.4") with
  | Some (p, 1) -> Alcotest.(check string) "prefix" "192.168.0.0/16" (Ipv4.prefix_to_string p)
  | _ -> Alcotest.fail "expected match"

let test_trie_fold () =
  let t = Prefix_table.create () in
  List.iter (fun (s, v) -> Prefix_table.add t (pfx s) v)
    [ ("10.0.0.0/8", 1); ("10.1.0.0/16", 2); ("172.16.0.0/12", 3) ];
  let collected = Prefix_table.fold (fun p v acc -> (Ipv4.prefix_to_string p, v) :: acc) t [] in
  Alcotest.(check int) "three entries" 3 (List.length collected);
  Alcotest.(check bool) "contains 172" true (List.mem ("172.16.0.0/12", 3) collected)

let prop_trie_finds_inserted =
  QCheck.Test.make ~name:"trie finds every inserted prefix base" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 30) (pair (int_range 0 ((1 lsl 32) - 1)) (int_range 4 32)))
    (fun entries ->
      let t = Prefix_table.create () in
      let prefixes =
        List.mapi (fun i (base, len) -> (Ipv4.prefix (Ipv4.addr_of_int base) len, i)) entries
      in
      List.iter (fun (p, i) -> Prefix_table.add t p i) prefixes;
      (* Looking up each prefix's base address must return a value whose
         prefix covers it (the longest match may be a later duplicate). *)
      List.for_all
        (fun (p, _) -> Prefix_table.lookup t (Ipv4.nth_addr p 0) <> None)
        prefixes)

(* --- Geo_db --------------------------------------------------------------------- *)

let test_geo_exact () =
  let rng = Rng.create 4 in
  let db = Geo_db.create ~accuracy:1.0 rng () in
  Geo_db.add db (pfx "10.0.0.0/8") "DE";
  Alcotest.(check (option string)) "exact" (Some "DE") (Geo_db.lookup db (addr "10.9.9.9"));
  Alcotest.(check (option string)) "truth" (Some "DE") (Geo_db.true_country db (addr "10.9.9.9"))

let test_geo_error_model () =
  let rng = Rng.create 5 in
  let db = Geo_db.create ~accuracy:0.5 ~candidates:[ "US"; "DE"; "FR"; "JP" ] rng () in
  let wrong = ref 0 and n = 2000 in
  for i = 0 to n - 1 do
    let p = Ipv4.prefix (Ipv4.addr_of_int (i * 4096)) 20 in
    Geo_db.add db p "US";
    let believed = Option.get (Geo_db.lookup db (Ipv4.nth_addr p 1)) in
    if believed <> "US" then incr wrong
  done;
  let frac = float_of_int !wrong /. float_of_int n in
  if frac < 0.40 || frac > 0.60 then Alcotest.failf "error rate %f should be ~0.5" frac

let test_geo_consistent_per_prefix () =
  (* The database is wrong consistently, not per query. *)
  let rng = Rng.create 6 in
  let db = Geo_db.create ~accuracy:0.0 ~candidates:[ "FR"; "DE" ] rng () in
  Geo_db.add db (pfx "10.0.0.0/8") "US";
  let first = Geo_db.lookup db (addr "10.1.1.1") in
  for _ = 1 to 50 do
    Alcotest.(check (option string)) "stable answer" first (Geo_db.lookup db (addr "10.2.2.2"))
  done

let test_geo_invalid_accuracy () =
  let rng = Rng.create 7 in
  Alcotest.check_raises "accuracy" (Invalid_argument "Geo_db.create: accuracy outside [0,1]")
    (fun () -> ignore (Geo_db.create ~accuracy:1.5 rng ()))

(* --- Bgp -------------------------------------------------------------------------- *)

let test_bgp_best_route_prefers_short_path () =
  let t = Bgp.create () in
  let p = pfx "10.0.0.0/16" in
  Bgp.announce t p ~path:[ 174; 3356; 65001 ];
  Bgp.announce t p ~path:[ 174; 65002 ];
  (match Bgp.best_route t (addr "10.0.1.1") with
  | Some a -> Alcotest.(check int) "short path wins" 65002 (Bgp.origin a)
  | None -> Alcotest.fail "route expected");
  Alcotest.(check int) "two announcements" 2 (Bgp.announcement_count t);
  Alcotest.(check int) "one prefix" 1 (Bgp.prefix_count t)

let test_bgp_tie_breaks_on_origin () =
  let t = Bgp.create () in
  let p = pfx "10.0.0.0/16" in
  Bgp.announce t p ~path:[ 174; 65009 ];
  Bgp.announce t p ~path:[ 1299; 65001 ];
  match Bgp.best_route t (addr "10.0.1.1") with
  | Some a -> Alcotest.(check int) "lower origin wins tie" 65001 (Bgp.origin a)
  | None -> Alcotest.fail "route expected"

let test_bgp_moas () =
  let t = Bgp.create () in
  let p = pfx "10.0.0.0/16" in
  Bgp.announce t p ~path:[ 174; 65001 ];
  Bgp.announce t p ~path:[ 174; 65002 ];
  Bgp.announce t (pfx "10.1.0.0/16") ~path:[ 174; 65001 ];
  match Bgp.moas t with
  | [ (_, origins) ] -> Alcotest.(check (list int)) "origins" [ 65001; 65002 ] origins
  | other -> Alcotest.failf "expected one MOAS, got %d" (List.length other)

let test_bgp_derive_pfx2as () =
  let t = Bgp.create () in
  Bgp.announce t (pfx "10.0.0.0/16") ~path:[ 174; 65001 ];
  Bgp.announce t (pfx "10.0.1.0/24") ~path:[ 174; 3356; 65002 ];
  let table = Bgp.derive_pfx2as t in
  Alcotest.(check (option int)) "more specific wins" (Some 65002)
    (Prefix_table.lookup table (addr "10.0.1.9"));
  Alcotest.(check (option int)) "covering prefix" (Some 65001)
    (Prefix_table.lookup table (addr "10.0.2.9"))

let test_bgp_empty_path_rejected () =
  let t = Bgp.create () in
  Alcotest.check_raises "empty path" (Invalid_argument "Bgp.announce: empty AS path")
    (fun () -> Bgp.announce t (pfx "10.0.0.0/16") ~path:[])

let test_internet_bgp_consistent_with_pfx2as () =
  (* CAIDA-style derivation from the announcements must agree with the
     direct table the Internet maintains. *)
  let rng = Rng.create 21 in
  let net = Internet.create rng in
  let networks =
    List.map
      (fun (name, country, presence) ->
        Internet.register_network net ~name ~country ~presence ())
      [ ("N1", "US", [ "DE"; "JP" ]); ("N2", "FR", []); ("N3", "BR", [ "US" ]) ]
  in
  let derived = Bgp.derive_pfx2as (Internet.bgp net) in
  List.iter
    (fun n ->
      List.iter
        (fun (_, p) ->
          let a = Ipv4.nth_addr p 7 in
          Alcotest.(check (option int)) "derived = direct" (Internet.origin_as net a)
            (Prefix_table.lookup derived a))
        n.Internet.pops)
    networks;
  Alcotest.(check (list (pair (module struct
                                 type t = Ipv4.prefix
                                 let pp fmt p = Format.pp_print_string fmt (Ipv4.prefix_to_string p)
                                 let equal a b = Ipv4.compare_prefix a b = 0
                               end) (list int))))
    "no MOAS in a clean world" [] (Bgp.moas (Internet.bgp net))

(* --- Internet ---------------------------------------------------------------------- *)

let test_internet_register_and_lookup () =
  let rng = Rng.create 8 in
  let net = Internet.create rng in
  let n = Internet.register_network net ~name:"Cloudflare" ~country:"US" ~anycast:true
      ~presence:[ "DE"; "JP" ] () in
  Alcotest.(check int) "three pops" 3 (List.length n.Internet.pops);
  Alcotest.(check string) "HQ first" "US" (fst (List.hd n.Internet.pops));
  let a = Internet.address_in net n ~near:"DE" rng in
  (match Internet.org_of_addr net a with
  | Some o -> Alcotest.(check string) "org" "Cloudflare" o.Org.name
  | None -> Alcotest.fail "org lookup failed");
  Alcotest.(check bool) "anycast flagged" true (Internet.is_anycast_addr net a);
  (* Anycast prefixes geolocate to HQ. *)
  Alcotest.(check (option string)) "geo pins to HQ" (Some "US") (Internet.geolocate net a)

let test_internet_non_anycast_geo () =
  let rng = Rng.create 9 in
  let net = Internet.create rng in
  let n = Internet.register_network net ~name:"Hetzner" ~country:"DE" ~presence:[ "FI" ] () in
  let de_prefix = List.assoc "DE" n.Internet.pops in
  let fi_prefix = List.assoc "FI" n.Internet.pops in
  Alcotest.(check (option string)) "DE pop" (Some "DE")
    (Internet.geolocate net (Ipv4.nth_addr de_prefix 5));
  Alcotest.(check (option string)) "FI pop" (Some "FI")
    (Internet.geolocate net (Ipv4.nth_addr fi_prefix 5))

let test_internet_idempotent_registration () =
  let rng = Rng.create 10 in
  let net = Internet.create rng in
  let a = Internet.register_network net ~name:"X" ~country:"US" () in
  let b = Internet.register_network net ~name:"X" ~country:"FR" () in
  Alcotest.(check bool) "same org" true (Org.equal a.Internet.org b.Internet.org);
  Alcotest.(check int) "one network" 1 (Internet.network_count net)

let test_internet_fallback_pop () =
  let rng = Rng.create 11 in
  let net = Internet.create rng in
  let n = Internet.register_network net ~name:"Y" ~country:"JP" () in
  (* No pop near FR: falls back to HQ. *)
  let a = Internet.address_in net n ~near:"FR" rng in
  Alcotest.(check (option string)) "HQ geo" (Some "JP") (Internet.geolocate net a)

let test_internet_distinct_asns () =
  let rng = Rng.create 12 in
  let net = Internet.create rng in
  let a = Internet.register_network net ~name:"A" ~country:"US" () in
  let b = Internet.register_network net ~name:"B" ~country:"US" () in
  Alcotest.(check bool) "distinct asn" true (a.Internet.asn <> b.Internet.asn);
  Alcotest.(check (option int)) "origin as" (Some a.Internet.asn)
    (Internet.origin_as net (Ipv4.nth_addr (snd (List.hd a.Internet.pops)) 0))

let test_internet_block_edges () =
  (* Every lookup reads one record per allocated /20.  Probe both ends of
     each block, the first address past the last allocated block, the
     address just below the first one and addresses below 16.0.0.0;
     origins must agree with the BGP-derived pfx2as and geolocation with
     each pop's country (HQ for anycast).  Enough pops to outgrow the
     initial block array. *)
  let rng = Rng.create 13 in
  let net = Internet.create rng in
  let codes = List.map (fun c -> c.Webdep_geo.Country.code) Webdep_geo.Country.all in
  let networks =
    List.map
      (fun (name, country, anycast, presence) ->
        Internet.register_network net ~name ~country ~anycast ~presence ())
      ([ ("Anycast", "US", true, [ "DE"; "JP" ]); ("Regional", "DE", false, [ "FI" ]);
         ("Single", "FR", false, []) ]
      @ List.init 8 (fun i -> (Printf.sprintf "Global%d" i, "US", i mod 2 = 0, codes)))
  in
  let derived = Bgp.derive_pfx2as (Internet.bgp net) in
  let first_base = ref max_int and last_base = ref 0 in
  List.iter
    (fun (n : Internet.network) ->
      let hq = fst (List.hd n.Internet.pops) in
      List.iter
        (fun (cc, p) ->
          first_base := min !first_base (Ipv4.addr_to_int p.Ipv4.base);
          last_base := max !last_base (Ipv4.addr_to_int p.Ipv4.base);
          List.iter
            (fun a ->
              let what = Printf.sprintf "%s %s" n.Internet.org.Org.name (Ipv4.addr_to_string a) in
              Alcotest.(check (option int)) (what ^ " origin = derived") (Prefix_table.lookup derived a)
                (Internet.origin_as net a);
              Alcotest.(check (option int)) (what ^ " origin") (Some n.Internet.asn)
                (Internet.origin_as net a);
              Alcotest.(check (option string)) (what ^ " org") (Some n.Internet.org.Org.name)
                (Option.map (fun o -> o.Org.name) (Internet.org_of_addr net a));
              Alcotest.(check (option string)) (what ^ " geo")
                (Some (if n.Internet.anycast then hq else cc))
                (Internet.geolocate net a);
              Alcotest.(check bool) (what ^ " anycast") n.Internet.anycast
                (Internet.is_anycast_addr net a);
              Alcotest.(check (option string)) (what ^ " geo by number")
                (Internet.geolocate net a)
                (Some (Internet.geo_name net (Internet.geo_id net a)));
              Alcotest.(check bool) (what ^ " org by id") true
                (Internet.org net n.Internet.org.Org.id == n.Internet.org))
            [ Ipv4.nth_addr p 0; Ipv4.nth_addr p (Ipv4.prefix_size p - 1) ])
        n.Internet.pops)
    networks;
  Alcotest.(check bool) "outgrew the initial array" true
    ((!last_base - !first_base) lsr 12 >= 1024);
  List.iter
    (fun a ->
      let what = Ipv4.addr_to_string a in
      Alcotest.(check (option int)) (what ^ " not derived") None (Prefix_table.lookup derived a);
      Alcotest.(check (option int)) (what ^ " no origin") None (Internet.origin_as net a);
      Alcotest.(check bool) (what ^ " no org") true (Internet.org_of_addr net a = None);
      Alcotest.(check (option string)) (what ^ " no geo") None (Internet.geolocate net a);
      Alcotest.(check int) (what ^ " no geo number") (-1) (Internet.geo_id net a);
      Alcotest.(check bool) (what ^ " not anycast") false (Internet.is_anycast_addr net a))
    [ Ipv4.addr_of_int (!last_base + 4096); Ipv4.addr_of_int (!first_base - 1);
      addr "15.255.255.255"; addr "8.8.8.8"; addr "0.0.0.0" ]

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "webdep_netsim"
    [
      ( "ipv4",
        [
          Alcotest.test_case "roundtrip" `Quick test_addr_roundtrip;
          Alcotest.test_case "invalid" `Quick test_addr_invalid;
          Alcotest.test_case "of_int bounds" `Quick test_addr_of_int_bounds;
          Alcotest.test_case "prefix masking" `Quick test_prefix_masking;
          Alcotest.test_case "contains" `Quick test_prefix_contains;
          Alcotest.test_case "prefix size" `Quick test_prefix_size;
          Alcotest.test_case "nth addr" `Quick test_nth_addr;
          Alcotest.test_case "random in prefix" `Quick test_random_addr_in_prefix;
          qtest prop_addr_roundtrip;
        ] );
      ( "prefix_table",
        [
          Alcotest.test_case "longest prefix match" `Quick test_trie_longest_prefix_match;
          Alcotest.test_case "replace" `Quick test_trie_replace;
          Alcotest.test_case "default route" `Quick test_trie_default_route;
          Alcotest.test_case "lookup_prefix" `Quick test_trie_lookup_prefix;
          Alcotest.test_case "fold" `Quick test_trie_fold;
          qtest prop_trie_finds_inserted;
        ] );
      ( "geo_db",
        [
          Alcotest.test_case "exact" `Quick test_geo_exact;
          Alcotest.test_case "error model rate" `Quick test_geo_error_model;
          Alcotest.test_case "consistent errors" `Quick test_geo_consistent_per_prefix;
          Alcotest.test_case "invalid accuracy" `Quick test_geo_invalid_accuracy;
        ] );
      ( "bgp",
        [
          Alcotest.test_case "shortest path wins" `Quick test_bgp_best_route_prefers_short_path;
          Alcotest.test_case "tie on origin" `Quick test_bgp_tie_breaks_on_origin;
          Alcotest.test_case "moas" `Quick test_bgp_moas;
          Alcotest.test_case "derive pfx2as" `Quick test_bgp_derive_pfx2as;
          Alcotest.test_case "empty path" `Quick test_bgp_empty_path_rejected;
          Alcotest.test_case "consistent with internet" `Quick
            test_internet_bgp_consistent_with_pfx2as;
        ] );
      ( "internet",
        [
          Alcotest.test_case "register and lookup" `Quick test_internet_register_and_lookup;
          Alcotest.test_case "non-anycast geo" `Quick test_internet_non_anycast_geo;
          Alcotest.test_case "idempotent" `Quick test_internet_idempotent_registration;
          Alcotest.test_case "fallback pop" `Quick test_internet_fallback_pop;
          Alcotest.test_case "distinct asns" `Quick test_internet_distinct_asns;
          Alcotest.test_case "block edges" `Quick test_internet_block_edges;
        ] );
    ]
