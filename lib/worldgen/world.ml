module Rng = Webdep_stats.Rng
module Sample = Webdep_stats.Sample
module Internet = Webdep_netsim.Internet
module Ipv4 = Webdep_netsim.Ipv4
module Zone_db = Webdep_dnssim.Zone_db
module Tls_ca = Webdep_tlssim.Ca
module Cert = Webdep_tlssim.Cert
module Handshake = Webdep_tlssim.Handshake
module Toplist = Webdep_crux.Toplist
module Churn = Webdep_crux.Churn

type epoch = May_2023 | May_2025

let epoch_name = function May_2023 -> "2023-05" | May_2025 -> "2025-05"

let m_snapshots = Webdep_obs.Metrics.counter "worldgen.snapshots"

(* Everything below is filled by [create] and only read afterwards. *)
type t = {
  seed : int;
  c : int;
  geo_accuracy : float;
  internet : Internet.t;  (* every hosting/DNS provider's network, by name *)
  ca_db : Tls_ca.t;
  base_rng : Rng.t;
  mixes : (epoch * Profiles.layer * string, (Mix.t, string) result) Hashtbl.t;
      (* keyed by [mix_epoch]; [Error] holds the calibrator's refusal *)
  issuers : (string, string array) Hashtbl.t;  (* by CA owner name *)
  tld_ids : (string, int) Hashtbl.t;  (* TLD label -> its number *)
  tld_labels : string array;  (* number -> TLD label *)
}

let multi_cdn_fraction = 0.06

let c t = t.c
let seed t = t.seed
let geo_accuracy t = t.geo_accuracy
let all_codes = List.map (fun c -> c.Webdep_geo.Country.code) Webdep_geo.Country.all
let countries _t = all_codes
let internet t = t.internet
let ca_db t = t.ca_db

(* Deterministic per-string hash for jitters and per-site choices. *)
let strhash s seed =
  let h = ref seed in
  String.iter (fun ch -> h := (!h * 131) + Char.code ch) s;
  abs !h

(* §5.4 longitudinal adjustments — hosting layer only.  Cloudflare grew
   +3.8 pts on average (TM +11.3, BR +10), fell slightly in Russia, and
   was flat in BY/UZ/MM; Brazil and Russia have anchored 2025 scores, the
   rest move by a small jitter consistent with rho ~= 0.98. *)
let hosting_overrides_2025 cc =
  let old_target = Profiles.target_score Hosting cc in
  let old_top = Profiles.top_share Hosting cc in
  match cc with
  | "BR" -> { Mix.target = Some 0.2354; top_share = Some 0.46; home_quota = None }
  | "RU" ->
      { Mix.target = Some 0.0499; top_share = Some (old_top -. 0.02); home_quota = Some 0.56 }
  | "TM" ->
      { Mix.target = Some (old_target +. 0.004); top_share = Some (old_top +. 0.113);
        home_quota = None }
  | "BY" | "UZ" | "MM" ->
      { Mix.target = Some old_target; top_share = Some old_top; home_quota = None }
  | _ ->
      let jitter = ((float_of_int (strhash cc 53 mod 1000) /. 1000.0) -. 0.5) *. 0.03 in
      let n = Profiles.n_providers Hosting cc in
      let floor_s = (1.0 /. float_of_int n) +. 0.002 in
      let target = Float.max floor_s (old_target +. jitter) in
      { Mix.target = Some target; top_share = Some (old_top +. 0.038); home_quota = None }

(* --- Mixes -------------------------------------------------------------- *)

(* The 2025 epoch re-derives hosting only; its other layers reuse the
   2023 mixes. *)
let mix_epoch epoch (layer : Profiles.layer) =
  match (epoch, layer) with May_2025, Hosting -> May_2025 | _ -> May_2023

let overrides epoch layer cc =
  match mix_epoch epoch layer with
  | May_2025 -> hosting_overrides_2025 cc
  | May_2023 -> Mix.no_overrides

(* A country's five distinct mixes. *)
let country_mixes =
  [ (May_2023, Profiles.Tld); (May_2023, Hosting); (May_2023, Dns); (May_2023, Ca);
    (May_2025, Hosting) ]

(* Every [Invalid_argument] out of [Mix.build] is the calibrator refusing
   a target this [c] cannot attain. *)
let calibrate ~c cc =
  List.map
    (fun (epoch, layer) ->
      let m =
        try Ok (Mix.build ~c ~overrides:(overrides epoch layer cc) layer cc)
        with Invalid_argument reason -> Error reason
      in
      ((epoch, layer, cc), m))
    country_mixes

type uncalibrated = {
  country : string;
  layer : Profiles.layer;
  epoch : epoch;
  c : int;
  reason : string;
  min_c : int option;
}

exception Uncalibrated of uncalibrated

(* How far above the requested [c] the smallest calibrating [c] is
   searched for. *)
let min_c_search = 10_000

let uncalibrated_message u =
  Printf.sprintf "cannot calibrate the %s mix of %s for %s at c=%d (%s); %s"
    (Webdep_reference.Paper_scores.layer_name u.layer)
    u.country (epoch_name u.epoch) u.c u.reason
    (match u.min_c with
    | Some m -> Printf.sprintf "the smallest c above %d that calibrates it is %d" u.c m
    | None -> Printf.sprintf "no c up to %d calibrates it" (u.c + min_c_search))

let mix t ?(epoch = May_2023) layer cc =
  match Hashtbl.find t.mixes (mix_epoch epoch layer, layer, cc) with
  | Ok m -> m
  | Error reason ->
      let overrides = overrides epoch layer cc in
      let rec smallest c' =
        if c' > t.c + min_c_search then None
        else
          match Mix.build ~c:c' ~overrides layer cc with
          | _ -> Some c'
          | exception Invalid_argument _ -> smallest (c' + 1)
      in
      raise
        (Uncalibrated { country = cc; layer; epoch; c = t.c; reason; min_c = smallest (t.c + 1) })

(* --- Registration ------------------------------------------------------- *)

(* The providers with more than an HQ pop, and the anycast ones: every
   name in either list maps to (global, anycast); the rest are regional
   unicast networks. *)
let reach =
  let global =
    "Cloudflare" :: "Amazon"
    :: List.map (fun p -> p.Provider.name) (Registry.hosting_global @ Registry.dns_global)
  and anycast =
    [ "Cloudflare"; "NSONE"; "Neustar UltraDNS"; "Verisign DNS"; "Dyn"; "DNS Made Easy";
      "easyDNS" ]
  in
  let t = Hashtbl.create 256 in
  List.iter (fun n -> Hashtbl.replace t n (List.mem n global, List.mem n anycast)) (global @ anycast);
  t

let fastly = Provider.make ~name:"Fastly" ~home:"US"

(* A hosting or DNS provider's network (ASN, prefixes, geolocation
   draws).  The first registration of a name wins. *)
let register_network internet (p : Provider.t) =
  let name = p.Provider.name in
  let global, anycast = Option.value ~default:(false, false) (Hashtbl.find_opt reach name) in
  ignore
    (Internet.register_network internet ~name ~country:p.Provider.home ~anycast
       ~presence:(if global then all_codes else [])
       ())

(* A couple of issuing intermediates per owner, like CCADB rollups:
   "<owner> Issuing CA R1" and "... R2". *)
let issuer_cns owner_name =
  Array.init 2 (fun k -> owner_name ^ " Issuing CA R" ^ string_of_int (k + 1))

let register_ca t root_store (owner_p : Provider.t) =
  if not (Hashtbl.mem t.issuers owner_p.Provider.name) then begin
    let issuers = issuer_cns owner_p.Provider.name in
    Hashtbl.replace t.issuers owner_p.Provider.name issuers;
    (* CCADB only lists root-program members: a browser-rejected CA
       (the Russian state root) gets no issuer mapping, so the pipeline
       cannot label its certificates. *)
    if Webdep_tlssim.Root_store.is_trusted root_store owner_p.Provider.name then begin
      let owner =
        Tls_ca.register_owner t.ca_db ~name:owner_p.Provider.name
          ~country:owner_p.Provider.home
      in
      Array.iter (fun issuer_cn -> Tls_ca.register_issuer t.ca_db ~issuer_cn owner) issuers
    end
  end

(* Every label the 2023 TLD mixes mint (the 2025 epoch reuses them),
   numbered in [Webdep_geo.Country.all] walk order.  A domain ends with
   its TLD provider's name, so a provider named ".xx" mints the label
   ".xx"; one named without a leading dot (a reused world-tail name)
   mints none. *)
let number_tlds mixes =
  let ids = Hashtbl.create 512 in
  List.iter
    (fun cc ->
      match Hashtbl.find mixes (May_2023, Profiles.Tld, cc) with
      | Error _ -> ()
      | Ok m ->
          List.iter
            (fun ((p : Provider.t), _) ->
              let label = p.Provider.name in
              if String.starts_with ~prefix:"." label && not (Hashtbl.mem ids label) then
                Hashtbl.add ids label (Hashtbl.length ids))
            m.Mix.assignments)
    all_codes;
  let labels = Array.make (Hashtbl.length ids) "" in
  Hashtbl.iter (fun label id -> labels.(id) <- label) ids;
  (ids, labels)

(* Calibrate every mix on the domain pool ([Mix.build] is pure, so the
   lanes cannot change the result), then register, serially and in one
   fixed walk, every network those mixes name: the multi-CDN
   secondaries, each country's 2023 hosting then DNS providers in
   [Webdep_geo.Country.all] order, then each country's 2025 hosting
   providers; and every CA owner of each country's 2023 CA mix.
   Allocation and geolocation draws follow the walk, so they never
   depend on which snapshots are taken, in what order, or where. *)
let create ?(c = 10_000) ?(geo_accuracy = 0.894) ~seed () =
  let base_rng = Rng.create seed in
  let geo_rng = Rng.split_named base_rng "geolocation-errors" in
  let mixes = Hashtbl.create 1024 in
  Webdep_obs.Span.with_ ~name:"worldgen.calibrate" (fun () ->
      List.iter
        (List.iter (fun (key, m) -> Hashtbl.replace mixes key m))
        (Webdep_par.map (calibrate ~c) all_codes));
  let providers epoch layer cc =
    match Hashtbl.find mixes (epoch, layer, cc) with
    | Ok m -> List.map fst m.Mix.assignments
    | Error _ -> []
  in
  Webdep_obs.Span.with_ ~name:"worldgen.register" @@ fun () ->
  let walk =
    ([ Registry.amazon; fastly ]
    :: List.concat_map
         (fun cc -> [ providers May_2023 Hosting cc; providers May_2023 Dns cc ])
         all_codes)
    @ List.map (providers May_2025 Hosting) all_codes
  in
  (* Every network is among the candidates, so the name index never
     grows during the walk. *)
  let candidates = List.fold_left (fun n ps -> n + List.length ps) 0 walk in
  let tld_ids, tld_labels = number_tlds mixes in
  let t =
    {
      seed;
      c;
      geo_accuracy;
      internet = Internet.create ~geo_accuracy ~networks:candidates geo_rng;
      ca_db = Tls_ca.create ();
      base_rng;
      mixes;
      issuers = Hashtbl.create 64;
      tld_ids;
      tld_labels;
    }
  in
  List.iter (List.iter (register_network t.internet)) walk;
  let root_store = Webdep_tlssim.Root_store.create () in
  List.iter (fun cc -> List.iter (register_ca t root_store) (providers May_2023 Ca cc)) all_codes;
  t

let tld_id t label = match Hashtbl.find t.tld_ids label with id -> id | exception Not_found -> -1

let tld_label t id =
  if id < 0 || id >= Array.length t.tld_labels then invalid_arg "World.tld_label: id out of range";
  t.tld_labels.(id)

(* Calibration is the only way a country's sites can fail to derive;
   ask for its mixes in the order a snapshot does. *)
let prepare t ?epoch ccs =
  List.iter
    (fun cc ->
      if Webdep_geo.Country.mem cc then
        List.iter (fun layer -> ignore (mix t ?epoch layer cc)) [ Profiles.Tld; Hosting; Dns; Ca ])
    ccs

(* Stable per-site address inside a network, preferring the point of
   presence nearest the client country.  Runs inside per-vantage Dynamic
   answer closures, i.e. on every DNS query, so it uses the network's
   country-indexed pop table rather than scanning the pops list. *)
let stable_addr (net : Internet.network) ~near idx =
  let prefix = Internet.pop_near net ~near in
  Ipv4.nth_addr prefix (idx mod Ipv4.prefix_size prefix)

(* The issuer that signed [domain]'s certificate among its owner's
   [issuer_cns]. *)
let issuer_cn_for issuers domain = issuers.(strhash domain 7 mod 2)

(* --- Mix expansion ---------------------------------------------------- *)

(* Expand (provider, count) pairs into a length-c array and shuffle so
   layers decorrelate site-by-site. *)
let expand rng assignments total =
  let arr = Array.make total (fst (List.hd assignments)) in
  let i = ref 0 in
  List.iter
    (fun (p, k) ->
      for _ = 1 to k do
        if !i < total then begin
          arr.(!i) <- p;
          incr i
        end
      done)
    assignments;
  Sample.shuffle rng arr;
  arr

(* --- Snapshots --------------------------------------------------------- *)

let network t (p : Provider.t) = Option.get (Internet.find_network t.internet p.Provider.name)

(* What a snapshot needs of a hosting or DNS provider for every site it
   serves: its network and the names derived from it. *)
type provider_names = {
  net : Internet.network;
  ns_hosts : string list;  (* "ns1.<slug>.sim"; "ns2.<slug>.sim" *)
  cdn_suffix : string;  (* ".cdn.<slug>.sim" for anycast networks, else "" *)
}

let provider_names t p =
  let net = network t p and slug = Provider.slug p in
  {
    net;
    ns_hosts = [ "ns1." ^ slug ^ ".sim"; "ns2." ^ slug ^ ".sim" ];
    cdn_suffix = (if net.Internet.anycast then ".cdn." ^ slug ^ ".sim" else "");
  }

type snapshot = {
  country : string;
  epoch : epoch;
  toplist : Toplist.t;
  zones : Zone_db.t;
  tls : Handshake.t;
  assigned : (string, Provider.t * Provider.t * Provider.t) Hashtbl.t;
  content_language : (string, string) Hashtbl.t;
}

(* "<tag>s<idx zero-padded to 5 digits>-<lcc><tld>", written straight
   into one string: every site of every snapshot mints its domain. *)
let mint_domain ~epoch_tag ~lcc idx tld =
  let digits = string_of_int idx in
  let lt = String.length epoch_tag and ld = String.length digits in
  let lc = String.length lcc in
  let o = lt + 1 + Stdlib.max 0 (5 - ld) in
  let b = Bytes.make (o + ld + 1 + lc + String.length tld) '0' in
  Bytes.blit_string epoch_tag 0 b 0 lt;
  Bytes.set b lt 's';
  Bytes.blit_string digits 0 b o ld;
  Bytes.set b (o + ld) '-';
  Bytes.blit_string lcc 0 b (o + ld + 1) lc;
  Bytes.blit_string tld 0 b (o + ld + 1 + lc) (String.length tld);
  Bytes.unsafe_to_string b

let toplist_2023 t rng cc =
  let tld_assign = expand (Rng.split_named rng "tld") (mix t Tld cc).Mix.assignments t.c in
  let lcc = String.lowercase_ascii cc in
  let domains =
    Array.init t.c (fun i -> mint_domain ~epoch_tag:"" ~lcc i tld_assign.(i).Provider.name)
  in
  Toplist.create ~country:cc domains

(* Per-country churn: mean 0.37, Russia anchored at 0.4. *)
let target_jaccard cc =
  if cc = "RU" then 0.40
  else 0.30 +. (float_of_int (strhash cc 61 mod 141) /. 1000.0)

let toplist_for t rng cc = function
  | May_2023 -> toplist_2023 t rng cc
  | May_2025 ->
      let rng23 = Rng.split_named (Rng.split_named t.base_rng ("snap/" ^ cc)) "toplist" in
      let old = toplist_2023 t rng23 cc in
      let tld_assign =
        expand (Rng.split_named rng "tld25") (mix t Tld cc).Mix.assignments t.c
      in
      let lcc = String.lowercase_ascii cc in
      let fresh i = mint_domain ~epoch_tag:"n25" ~lcc i tld_assign.(i mod t.c).Provider.name in
      Churn.evolve (Rng.split_named rng "churn") ~target_jaccard:(target_jaccard cc) ~fresh old

(* Country rng for one snapshot sweep.  [split_named] never advances
   [base_rng], so the derivation is independent of the order (or domain)
   in which countries are materialized. *)
let snap_rng t epoch cc =
  Rng.split_named t.base_rng
    (match epoch with May_2023 -> "snap/" ^ cc | May_2025 -> "snap25/" ^ cc)

(* Whether a site has a multi-CDN secondary (keyed off the domain name
   so the choice survives re-derivation): Fastly for Amazon-hosted
   sites, Amazon for the rest. *)
let has_secondary domain =
  float_of_int (strhash domain 97 mod 10_000) /. 10_000.0 < multi_cdn_fraction

let snapshot t ?(epoch = May_2023) cc =
  if not (Webdep_geo.Country.mem cc) then
    invalid_arg (Printf.sprintf "World.snapshot: %S is not one of the dataset's countries" cc);
  Webdep_obs.Metrics.incr m_snapshots;
  (* One duration histogram per epoch; the country rides along as a span
     attribute for the trace sinks. *)
  Webdep_obs.Span.with_
    ~name:("world.snapshot." ^ epoch_name epoch)
    ~attrs:[ ("country", cc) ]
  @@ fun () ->
  let rng = snap_rng t epoch cc in
  let toplist = toplist_for t (Rng.split_named rng "toplist") cc epoch in
  (* Each provider's names and issuers are looked up once per mix, not
     per site. *)
  let names p = provider_names t p in
  let issuers a = Hashtbl.find t.issuers a.Provider.name in
  let assign stream find layer =
    let resolved = List.map (fun (p, k) -> ((p, find p), k)) (mix t ~epoch layer cc).Mix.assignments in
    expand (Rng.split_named rng stream) resolved t.c
  in
  let hosting = assign "hosting" names Hosting in
  let dns = assign "dns" names Dns in
  let ca = assign "ca" issuers Ca in
  let amazon_net = network t Registry.amazon and fastly_net = network t fastly in
  (* The tables are sized to what the loop below inserts: the zone table
     takes every site plus one CNAME target per CDN-fronted site, the
     host table two glue hosts per DNS provider, the certificate store
     one leaf per site. *)
  let secondary = Array.map has_secondary toplist.Toplist.domains in
  let fronted = ref 0 in
  Array.iteri
    (fun i sec -> if (snd hosting.(i)).net.Internet.anycast && not sec then incr fronted)
    secondary;
  let dns_providers = List.length (mix t ~epoch Dns cc).Mix.assignments in
  let zones = Zone_db.create ~domains:(t.c + !fronted) ~hosts:(2 * dns_providers) () in
  let tls = Handshake.create ~certs:t.c () in
  let assigned = Hashtbl.create t.c in
  let content_language = Hashtbl.create t.c in
  let glue_done = Hashtbl.create dns_providers in
  let day0 = 19_500 (* arbitrary simulation clock origin *) in
  Array.iteri
    (fun i domain ->
      let h, h_names = hosting.(i) and d, d_names = dns.(i) and a, issuers = ca.(i) in
      let h_net = h_names.net in
      (* Nameservers: two hosts per DNS provider, glue registered once
         per slug (keyed by the first host, which names the slug). *)
      let ns_hosts = d_names.ns_hosts in
      let ns1 = List.hd ns_hosts in
      if not (Hashtbl.mem glue_done ns1) then begin
        Hashtbl.replace glue_done ns1 ();
        List.iteri
          (fun k host ->
            Zone_db.add_host zones ~host
              ~a:(Zone_db.Static [ stable_addr d_names.net ~near:d.Provider.home (k + 1) ]))
          ns_hosts
      end;
      (* A answer: primary provider, with a multi-CDN secondary for a few
         sites that shows through from non-home vantages. *)
      let alt =
        if not secondary.(i) then None
        else if Provider.equal h Registry.amazon then Some fastly_net
        else Some amazon_net
      in
      let primary_addr vantage =
        (* Anycast providers answer with one global address; others with a
           front-end near the client. *)
        if h_net.Internet.anycast then stable_addr h_net ~near:h.Provider.home i
        else stable_addr h_net ~near:vantage i
      in
      let answer vantage =
        match alt with
        | Some alt_net when vantage <> cc && strhash (domain ^ vantage) 11 mod 100 < 35 ->
            [ stable_addr alt_net ~near:vantage i ]
        | _ -> [ primary_addr vantage ]
      in
      (* CDN-fronted sites resolve through a CNAME into the provider's
         namespace, as Cloudflare-style onboarding works; the terminal
         name carries the geo-dependent A answer. *)
      if h_net.Internet.anycast && Option.is_none alt then begin
        let cdn_name =
          String.map (fun ch -> if ch = '.' then '-' else ch) domain ^ h_names.cdn_suffix
        in
        Zone_db.add_domain zones ~domain:cdn_name ~ns_hosts ~a:(Zone_db.Dynamic answer);
        Zone_db.add_alias zones ~domain ~target:cdn_name ~ns_hosts
      end
      else Zone_db.add_domain zones ~domain ~ns_hosts ~a:(Zone_db.Dynamic answer);
      (* Leaf certificate labelled with the CA owner via CCADB. *)
      let cert =
        { Cert.subject = domain; issuer_cn = issuer_cn_for issuers domain;
          not_before = day0; not_after = day0 + 90 }
      in
      Handshake.install tls ~domain cert;
      Hashtbl.replace assigned domain (h, d, a);
      Hashtbl.replace content_language domain
        (Language.assign ~cc ~provider_home:h.Provider.home ~domain))
    toplist.Toplist.domains;
  { country = cc; epoch; toplist; zones; tls; assigned; content_language }
