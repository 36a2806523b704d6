let p name home = Provider.make ~name ~home

let cloudflare = p "Cloudflare" "US"
let amazon = p "Amazon" "US"

(* Synthetic-but-stable padding names.  Cycling a country pool spreads the
   mid-tier global providers over a few HQ countries as in reality. *)
let synth prefix homes n =
  List.init n (fun i -> p (Printf.sprintf "%s-%02d" prefix (i + 1)) (List.nth homes (i mod List.length homes)))

let hosting_global =
  (* 6 L-GP *)
  [ p "Google" "US"; p "Akamai" "US"; p "Microsoft" "US"; p "Fastly" "US";
    p "GoDaddy" "US"; p "DigitalOcean" "US" ]
  (* 2 L-GP (R): global reach, European HQ *)
  @ [ p "OVH" "FR"; p "Hetzner" "DE" ]
  (* 22 M-GP *)
  @ [ p "Incapsula" "US"; p "Sucuri" "US"; p "StackPath" "US"; p "Linode" "US";
      p "Vultr" "US"; p "Rackspace" "US"; p "Leaseweb" "NL"; p "Contabo" "DE" ]
  @ synth "MidCloud" [ "US"; "GB"; "DE"; "NL" ] 14
  (* 73 S-GP *)
  @ [ p "Wix" "IL"; p "Squarespace" "US"; p "Shopify" "CA"; p "Netlify" "US";
      p "Vercel" "US"; p "Render" "US"; p "Heroku" "US" ]
  @ synth "SmallCloud" [ "US"; "GB"; "DE"; "SG"; "CA"; "NL" ] 66

let dns_global =
  (* 10 L-GP: managed DNS pushes more providers into the large class. *)
  [ p "NSONE" "US"; p "Neustar UltraDNS" "US"; p "Google" "US"; p "Akamai" "US";
    p "Microsoft" "US"; p "GoDaddy" "US"; p "Verisign DNS" "US"; p "Dyn" "US";
    p "easyDNS" "CA"; p "DNS Made Easy" "US" ]
  (* 2 L-GP (R) *)
  @ [ p "OVH" "FR"; p "Hetzner" "DE" ]
  (* 17 M-GP *)
  @ [ p "DNSimple" "US"; p "ClouDNS" "BG"; p "Gandi" "FR" ]
  @ synth "MidDNS" [ "US"; "GB"; "DE" ] 14
  (* 78 S-GP *)
  @ [ p "Sucuri" "US"; p "Netlify" "US" ]
  @ synth "SmallDNS" [ "US"; "GB"; "DE"; "SG"; "NL"; "CA" ] 76

(* The largest regional provider of a few countries is a real anchor the
   paper names. *)
let hosting_anchor = function
  | "RU" -> Some "Beget LLC"
  | "BG" -> Some "SuperHosting.BG"
  | "LT" -> Some "UAB"
  | "GR" -> Some "Forthnet"
  | "SE" -> Some "Loopia"
  | "CZ" -> Some "WEDOS"
  | "IR" -> Some "Arvan Cloud"
  | "JP" -> Some "Sakura Internet"
  | "KR" -> Some "Naver Cloud"
  | "FR" -> Some "Online S.A.S"
  | "DE" -> Some "IONOS"
  | "US" -> Some "Liquid Web"
  | _ -> None

let dns_anchor = function
  | "RU" -> Some "Beget LLC"
  | "CZ" -> Some "Scalaxy"
  | "GR" -> Some "Forthnet"
  | "IR" -> Some "Arvan Cloud"
  | "JP" -> Some "Sakura Internet"
  | _ -> None

(* "<kind>-<cc>-<i zero-padded to 3 digits>": every mix mints one per
   bucket it walks, so the name is concatenated rather than formatted. *)
let regional ~layer cc i =
  let anchor = match layer with "dns" -> dns_anchor cc | _ -> hosting_anchor cc in
  match (i, anchor) with
  | 0, Some name -> p name cc
  | _ ->
      let kind = if String.equal layer "dns" then "DNS-" else "Host-" in
      let digits = string_of_int i in
      let pad = match String.length digits with 1 -> "00" | 2 -> "0" | _ -> "" in
      p (kind ^ cc ^ "-" ^ pad ^ digits) cc

let ca_global7 =
  [ p "Let's Encrypt" "US"; p "DigiCert" "US"; p "Sectigo" "US";
    p "Google Trust Services" "US"; p "Amazon Trust Services" "US";
    p "GlobalSign" "BE"; p "GoDaddy" "US" ]

let ca_medium = [ p "Entrust" "US"; p "IdenTrust" "US" ]

let asseco = p "Asseco (Certum)" "PL"

(* The 2022 state-sponsored root CA §7.2 discusses: operating in Russia,
   rejected by every browser root program. *)
let russian_state_ca = p "Russian Trusted Root CA" "RU"

(* The ~24 countries observed using a CA based in their own country
   (§7.2 names US, PL, TW, JP as most insular; the rest are smaller
   national CAs). *)
let ca_regional_table =
  [ ("PL", asseco); ("TW", p "TWCA" "TW"); ("JP", p "SECOM Trust" "JP");
    ("US", p "DigiCert" "US"); ("ES", p "FNMT" "ES"); ("IT", p "Actalis" "IT");
    ("CH", p "SwissSign" "CH"); ("NL", p "KPN PKI" "NL"); ("HU", p "Microsec" "HU");
    ("TR", p "TurkTrust" "TR"); ("KR", p "KICA" "KR"); ("AT", p "A-Trust" "AT"); ("BE", p "GlobalSign" "BE"); ("GR", p "Hellenic Academic CA" "GR");
    ("IL", p "ComSign" "IL"); ("IN", p "eMudhra" "IN"); ("BR", p "Certisign" "BR");
    ("MX", p "PSC Mexico" "MX"); ("AR", p "Encode CA" "AR"); ("RU", p "Kontur CA" "RU");
    ("UA", p "Diia CA" "UA"); ("RS", p "MUP CA" "RS"); ("SK", p "Disig" "SK");
    ("CZ", p "eIdentity" "CZ") ]

let ca_regional cc =
  match List.assoc_opt cc ca_regional_table with
  | Some prov when prov.Provider.home = cc -> Some prov
  | _ -> None

let ca_regional_countries =
  List.filter_map
    (fun (cc, prov) -> if prov.Provider.home = cc then Some cc else None)
    ca_regional_table

(* ~15 extra-small CAs rounding the world total to the paper's 45. *)
let ca_xsmall =
  [ p "TrustCor" "CA"; p "Buypass" "NO"; p "Harica" "GR"; p "Izenpe" "ES";
    p "ACCV" "ES"; p "NetLock" "HU"; p "Telia CA" "FI"; p "D-Trust" "DE";
    p "Certigna" "FR"; p "e-commerce monitoring" "AT"; p "Chunghwa Telecom" "TW";
    p "GDCA" "CN"; p "Camerfirma" "ES"; p "OISTE" "CH"; p "SSL.com" "US" ]

let global_tld_homes =
  [ (".com", "US"); (".net", "US"); (".org", "US"); (".info", "US"); (".io", "GB");
    (".co", "CO"); (".biz", "US"); (".xyz", "US"); (".online", "US"); (".site", "US");
    (".app", "US"); (".dev", "US"); (".me", "ME"); (".tv", "US"); (".cc", "US");
    (".shop", "JP"); (".store", "US"); (".club", "US"); (".pro", "US"); (".top", "CN") ]

let tld name =
  match List.assoc_opt name global_tld_homes with
  | Some home -> p name home
  | None ->
      (* ccTLD: ".uk" belongs to GB, otherwise the code is the TLD label. *)
      let label = String.uppercase_ascii (String.sub name 1 (String.length name - 1)) in
      let home = if label = "UK" then "GB" else label in
      p name home

let global_tlds = List.map (fun (n, _) -> tld n) (List.tl global_tld_homes)

(* A long tail of real generic TLDs for the TLD layer's tail buckets. *)
let gtld_tail =
  List.map
    (fun n -> p n "US")
    [ ".academy"; ".agency"; ".art"; ".bar"; ".beauty"; ".best"; ".blog"; ".build";
      ".cafe"; ".care"; ".cash"; ".casino"; ".center"; ".chat"; ".church"; ".city";
      ".cloud"; ".coach"; ".codes"; ".coffee"; ".community"; ".company"; ".cool";
      ".design"; ".digital"; ".directory"; ".earth"; ".education"; ".email"; ".energy";
      ".expert"; ".express"; ".farm"; ".finance"; ".fit"; ".fun"; ".fund"; ".gallery";
      ".games"; ".global"; ".gold"; ".group"; ".guide"; ".guru"; ".health"; ".help";
      ".host"; ".house"; ".info2"; ".ink"; ".institute"; ".international"; ".jobs";
      ".land"; ".law"; ".life"; ".link"; ".live"; ".loan"; ".ltd"; ".market";
      ".media"; ".money"; ".network"; ".news"; ".ninja"; ".one"; ".page"; ".partners";
      ".photo"; ".pics"; ".pizza"; ".plus"; ".press"; ".racing"; ".rocks"; ".run";
      ".school"; ".services"; ".show"; ".social"; ".software"; ".solutions"; ".space";
      ".studio"; ".style"; ".systems"; ".team"; ".tech"; ".tips"; ".today"; ".tools";
      ".tours"; ".town"; ".trade"; ".training"; ".travel"; ".video"; ".vip"; ".watch";
      ".website"; ".wiki"; ".work"; ".works"; ".world"; ".zone" ]
