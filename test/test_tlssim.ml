(* Tests for webdep_tlssim: CA/owner db, certificates, handshakes. *)

open Webdep_tlssim
module Ipv4 = Webdep_netsim.Ipv4

let addr s = Option.get (Ipv4.addr_of_string s)

let test_ca_owner_registration () =
  let db = Ca.create () in
  let le = Ca.register_owner db ~name:"Let's Encrypt" ~country:"US" in
  Ca.register_issuer db ~issuer_cn:"R3" le;
  Ca.register_issuer db ~issuer_cn:"E1" le;
  (match Ca.owner_of_issuer db "R3" with
  | Some o -> Alcotest.(check string) "rollup" "Let's Encrypt" o.Ca.name
  | None -> Alcotest.fail "issuer missing");
  Alcotest.(check int) "owner count" 1 (Ca.owner_count db);
  Alcotest.(check int) "issuer count" 2 (Ca.issuer_count db);
  Alcotest.(check bool) "unknown issuer" true (Ca.owner_of_issuer db "ZZ" = None)

let test_ca_owner_idempotent () =
  let db = Ca.create () in
  let a = Ca.register_owner db ~name:"DigiCert" ~country:"US" in
  let b = Ca.register_owner db ~name:"DigiCert" ~country:"US" in
  Alcotest.(check bool) "same" true (a = b);
  Alcotest.(check int) "one owner" 1 (Ca.owner_count db)

let test_ca_owner_by_name () =
  let db = Ca.create () in
  ignore (Ca.register_owner db ~name:"Sectigo" ~country:"US");
  Alcotest.(check bool) "found" true (Ca.owner_by_name db "Sectigo" <> None);
  Alcotest.(check int) "owners list" 1 (List.length (Ca.owners db))

let test_ca_owner_ids () =
  let db = Ca.create () in
  let owners =
    List.init 40 (fun i -> Ca.register_owner db ~name:(Printf.sprintf "CA %d" i) ~country:"US")
  in
  ignore (Ca.register_owner db ~name:"CA 3" ~country:"FR");
  List.iteri
    (fun i (o : Ca.owner) ->
      Alcotest.(check int) "registration order" i o.Ca.id;
      Alcotest.(check bool) "found by id" true (Ca.owner db i == o))
    owners;
  Alcotest.check_raises "unregistered id" (Invalid_argument "Ca.owner: id out of range")
    (fun () -> ignore (Ca.owner db 40))

let test_cert_validity () =
  let cert = { Cert.subject = "a.example"; issuer_cn = "R3"; not_before = 10; not_after = 100 } in
  Alcotest.(check bool) "inside" true (Cert.valid_at cert 50);
  Alcotest.(check bool) "edge low" true (Cert.valid_at cert 10);
  Alcotest.(check bool) "edge high" true (Cert.valid_at cert 100);
  Alcotest.(check bool) "before" false (Cert.valid_at cert 9);
  Alcotest.(check bool) "after" false (Cert.valid_at cert 101)

let test_cert_covers_exact () =
  let cert = { Cert.subject = "a.example"; issuer_cn = "R3"; not_before = 0; not_after = 1 } in
  Alcotest.(check bool) "exact" true (Cert.covers cert "a.example");
  Alcotest.(check bool) "other" false (Cert.covers cert "b.example")

let test_cert_covers_wildcard () =
  let cert = { Cert.subject = "*.example.com"; issuer_cn = "R3"; not_before = 0; not_after = 1 } in
  Alcotest.(check bool) "one label" true (Cert.covers cert "www.example.com");
  Alcotest.(check bool) "apex not covered" false (Cert.covers cert "example.com");
  Alcotest.(check bool) "two labels not covered" false (Cert.covers cert "a.b.example.com")

let test_handshake () =
  let hs = Handshake.create () in
  let cert = { Cert.subject = "a.example"; issuer_cn = "R3"; not_before = 0; not_after = 1 } in
  Handshake.install hs ~domain:"a.example" cert;
  (match Handshake.handshake hs ~addr:(addr "10.0.0.1") ~sni:"a.example" with
  | Some c -> Alcotest.(check string) "subject" "a.example" c.Cert.subject
  | None -> Alcotest.fail "handshake failed");
  Alcotest.(check bool) "no cert for other sni" true
    (Handshake.handshake hs ~addr:(addr "10.0.0.1") ~sni:"b.example" = None);
  Alcotest.(check int) "cert count" 1 (Handshake.cert_count hs)

let test_handshake_rejects_mismatched_subject () =
  let hs = Handshake.create () in
  (* A certificate installed under a domain it does not cover is not
     served: the handshake validates subject coverage. *)
  let cert = { Cert.subject = "other.example"; issuer_cn = "R3"; not_before = 0; not_after = 1 } in
  Handshake.install hs ~domain:"a.example" cert;
  Alcotest.(check bool) "rejected" true
    (Handshake.handshake hs ~addr:(addr "10.0.0.1") ~sni:"a.example" = None)

let test_handshake_multi_tenant () =
  (* Same address serves different certs by SNI, like a CDN edge. *)
  let hs = Handshake.create () in
  let mk subject = { Cert.subject; issuer_cn = "R3"; not_before = 0; not_after = 1 } in
  Handshake.install hs ~domain:"a.example" (mk "a.example");
  Handshake.install hs ~domain:"b.example" (mk "b.example");
  let a = Option.get (Handshake.handshake hs ~addr:(addr "10.0.0.1") ~sni:"a.example") in
  let b = Option.get (Handshake.handshake hs ~addr:(addr "10.0.0.1") ~sni:"b.example") in
  Alcotest.(check string) "a" "a.example" a.Cert.subject;
  Alcotest.(check string) "b" "b.example" b.Cert.subject

let test_root_store_defaults () =
  let store = Root_store.create () in
  Alcotest.(check bool) "LE trusted" true (Root_store.is_trusted store "Let's Encrypt");
  Alcotest.(check bool) "state CA distrusted" false
    (Root_store.is_trusted store "Russian Trusted Root CA")

let test_root_store_distrust_event () =
  let store = Root_store.create () in
  Alcotest.(check bool) "before" true (Root_store.is_trusted store "TrustCor");
  Root_store.distrust store "TrustCor";
  Alcotest.(check bool) "after" false (Root_store.is_trusted store "TrustCor")

let test_root_store_custom () =
  let store = Root_store.create ~distrusted:[ "Acme CA" ] () in
  Alcotest.(check bool) "custom distrust" false (Root_store.is_trusted store "Acme CA");
  Alcotest.(check bool) "default now trusted" true
    (Root_store.is_trusted store "Russian Trusted Root CA")

let () =
  Alcotest.run "webdep_tlssim"
    [
      ( "ca",
        [
          Alcotest.test_case "owner registration" `Quick test_ca_owner_registration;
          Alcotest.test_case "idempotent" `Quick test_ca_owner_idempotent;
          Alcotest.test_case "by name" `Quick test_ca_owner_by_name;
          Alcotest.test_case "ids" `Quick test_ca_owner_ids;
        ] );
      ( "cert",
        [
          Alcotest.test_case "validity" `Quick test_cert_validity;
          Alcotest.test_case "covers exact" `Quick test_cert_covers_exact;
          Alcotest.test_case "covers wildcard" `Quick test_cert_covers_wildcard;
        ] );
      ( "root_store",
        [
          Alcotest.test_case "defaults" `Quick test_root_store_defaults;
          Alcotest.test_case "distrust event" `Quick test_root_store_distrust_event;
          Alcotest.test_case "custom" `Quick test_root_store_custom;
        ] );
      ( "handshake",
        [
          Alcotest.test_case "basic" `Quick test_handshake;
          Alcotest.test_case "mismatched subject" `Quick test_handshake_rejects_mismatched_subject;
          Alcotest.test_case "multi-tenant sni" `Quick test_handshake_multi_tenant;
        ] );
    ]
