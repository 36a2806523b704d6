let table =
  [ ("AF", "ps"); ("IR", "fa"); ("TJ", "tg");
    ("DE", "de"); ("AT", "de"); ("CH", "de"); ("LU", "de");
    ("FR", "fr"); ("BE", "fr"); ("RE", "fr"); ("GP", "fr"); ("MQ", "fr"); ("HT", "fr");
    ("BF", "fr"); ("CI", "fr"); ("ML", "fr"); ("SN", "fr"); ("TG", "fr"); ("BJ", "fr");
    ("CM", "fr"); ("CD", "fr"); ("GA", "fr"); ("MG", "fr"); ("DZ", "ar"); ("TN", "ar");
    ("MA", "ar"); ("EG", "ar"); ("LY", "ar"); ("SD", "ar"); ("SY", "ar"); ("IQ", "ar");
    ("SA", "ar"); ("YE", "ar"); ("OM", "ar"); ("AE", "ar"); ("QA", "ar"); ("BH", "ar");
    ("KW", "ar"); ("JO", "ar"); ("LB", "ar"); ("PS", "ar");
    ("RU", "ru"); ("BY", "ru"); ("KZ", "ru"); ("KG", "ru"); ("TM", "ru"); ("UZ", "ru");
    ("UA", "uk"); ("MD", "ro"); ("RO", "ro");
    ("ES", "es"); ("MX", "es"); ("AR", "es"); ("CO", "es"); ("CL", "es"); ("PE", "es");
    ("VE", "es"); ("EC", "es"); ("BO", "es"); ("PY", "es"); ("UY", "es"); ("CU", "es");
    ("DO", "es"); ("GT", "es"); ("HN", "es"); ("NI", "es"); ("CR", "es"); ("PA", "es");
    ("SV", "es"); ("PR", "es");
    ("PT", "pt"); ("BR", "pt"); ("AO", "pt"); ("MZ", "pt");
    ("IT", "it"); ("GR", "el"); ("TR", "tr"); ("PL", "pl"); ("CZ", "cs"); ("SK", "sk");
    ("HU", "hu"); ("BG", "bg"); ("RS", "sr"); ("HR", "hr"); ("SI", "sl"); ("BA", "bs");
    ("MK", "mk"); ("ME", "sr"); ("AL", "sq"); ("LT", "lt"); ("LV", "lv"); ("EE", "et");
    ("FI", "fi"); ("SE", "sv"); ("NO", "no"); ("DK", "da"); ("IS", "is"); ("NL", "nl");
    ("JP", "ja"); ("KR", "ko"); ("TW", "zh"); ("HK", "zh"); ("MO", "zh"); ("MN", "mn");
    ("VN", "vi"); ("TH", "th"); ("ID", "id"); ("MY", "ms"); ("BN", "ms"); ("KH", "km");
    ("LA", "lo"); ("MM", "my"); ("PH", "tl"); ("IN", "hi"); ("PK", "ur"); ("BD", "bn");
    ("LK", "si"); ("NP", "ne"); ("MV", "dv"); ("IL", "he"); ("GE", "ka"); ("AM", "hy");
    ("AZ", "az"); ("ET", "am"); ("SO", "so"); ]

(* Every site reads both tables below, so they compare keys as
   strings. *)
module Stbl = Hashtbl.Make (String)

(* [table] indexed once; the first binding of a country wins, as
   [List.assoc_opt] over the list would. *)
let primary_of =
  let index = Stbl.create (List.length table) in
  List.iter (fun (cc, lang) -> if not (Stbl.mem index cc) then Stbl.add index cc lang) table;
  index

let primary cc = match Stbl.find primary_of cc with lang -> lang | exception Not_found -> "en"

(* Every label [assign] returns — the table's languages in first
   appearance, then "en" — numbered by place. *)
let label_ids =
  let ids = Stbl.create 64 in
  List.iter
    (fun lang -> if not (Stbl.mem ids lang) then Stbl.add ids lang (Stbl.length ids))
    (List.map snd table @ [ "en" ]);
  ids

let labels =
  let a = Array.make (Stbl.length label_ids) "" in
  Stbl.iter (fun lang id -> a.(id) <- lang) label_ids;
  a

let id lang = Stbl.find label_ids lang

let label id =
  if id < 0 || id >= Array.length labels then invalid_arg "Language.label: id out of range";
  labels.(id)

let label_count = Array.length labels

let hash s seed =
  let h = ref seed in
  String.iter (fun c -> h := (!h * 131) + Char.code c) s;
  abs !h mod 1000

let assign ~cc ~provider_home ~domain =
  let roll = hash domain 71 in
  match cc with
  | "AF" ->
      (* Anchored to §5.3.3: 31.4% of Afghan sites in Persian, 60.8% of
         the Persian ones hosted in Iran: with ~20% of all sites on
         Iranian providers, IR-hosted sites are Persian and ~15% of the
         rest are too. *)
      if provider_home = "IR" then "fa"
      else if roll < 150 then "fa"
      else if roll < 850 then "ps"
      else "en"
  | _ ->
      if provider_home <> cc && provider_home <> "US" && roll < 400 then
        (* Foreign-partner-hosted sites lean toward the partner's
           language (German sites in Austria, Czech sites in Slovakia). *)
        primary provider_home
      else if roll < 800 then primary cc
      else "en"
