type overrides = {
  target : float option;
  top_share : float option;
  home_quota : float option;
}

let no_overrides = { target = None; top_share = None; home_quota = None }

type t = {
  country : string;
  layer : Profiles.layer;
  assignments : (Provider.t * int) list;
  achieved_score : float;
}

(* Identity categories for the bucket walk. *)
type category = Global | Home | Partner of string | World_tail

(* Providers already given a bucket; equal providers share a name. *)
module Used = Hashtbl.Make (struct
  type t = Provider.t

  let equal = Provider.equal
  let hash (p : Provider.t) = Hashtbl.hash p.Provider.name
end)

let hash cc seed =
  let h = ref seed in
  String.iter (fun ch -> h := (!h * 131) + Char.code ch) cc;
  abs !h

let rotate n xs =
  let len = List.length xs in
  if len = 0 then xs
  else
    let n = n mod len in
    let rec split i acc = function
      | rest when i = 0 -> rest @ List.rev acc
      | x :: rest -> split (i - 1) (x :: acc) rest
      | [] -> List.rev acc
    in
    split n [] xs

let all_country_codes =
  Array.of_list (List.map (fun c -> c.Webdep_geo.Country.code) Webdep_geo.Country.all)

let country_code k = all_country_codes.(k mod Array.length all_country_codes)

(* Ordered global roster for a layer, seen from one country: the XL pair
   first, then large / medium / small segments with a per-country rotation
   of the mid-tiers so different countries emphasize different mid-size
   globals. *)
let global_roster layer cc =
  match (layer : Profiles.layer) with
  | Hosting | Dns ->
      let pool =
        match layer with Hosting -> Registry.hosting_global | _ -> Registry.dns_global
      in
      let large, rest =
        (* 6 L-GP + 2 L-GP (R) for hosting; 10 + 2 for DNS. *)
        let n_large = match layer with Hosting -> 8 | _ -> 12 in
        (List.filteri (fun i _ -> i < n_large) pool, List.filteri (fun i _ -> i >= n_large) pool)
      in
      (* OVH and Hetzner are the L-GP (R) pair: global but European-
         concentrated, so they lead the large segment in Europe and sink
         to the back of the roster elsewhere. *)
      let is_lgp_r p = List.mem p.Provider.name [ "OVH"; "Hetzner" ] in
      let lgp_r, large = List.partition is_lgp_r large in
      let in_europe =
        match Webdep_geo.Country.of_code cc with
        | Some c -> Webdep_geo.Country.continent c = Webdep_geo.Region.Europe
        | None -> false
      in
      let n_medium = match layer with Hosting -> 22 | _ -> 17 in
      let medium = List.filteri (fun i _ -> i < n_medium) rest in
      let small = List.filteri (fun i _ -> i >= n_medium) rest in
      let head = [ Registry.cloudflare; Registry.amazon ] in
      if in_europe then
        head @ lgp_r @ rotate (hash cc 3) large @ rotate (hash cc 5) medium
        @ rotate (hash cc 7) small
      else
        head @ rotate (hash cc 3) large @ rotate (hash cc 5) medium
        @ rotate (hash cc 7) small @ lgp_r
  | Ca ->
      let g7 = Registry.ca_global7 in
      let g7 =
        if List.mem cc Profiles.digicert_first then
          match g7 with le :: dc :: rest -> dc :: le :: rest | short -> short
        else g7
      in
      g7 @ Registry.ca_medium @ rotate (hash cc 11) Registry.ca_xsmall
  | Tld -> (Registry.tld ".com" :: Registry.global_tlds) @ rotate (hash cc 13) Registry.gtld_tail

(* Home / partner rosters.  Hosting and DNS mint unlimited regional
   providers; CA and TLD have at most one home identity. *)
let category_roster layer cc category i =
  match ((layer : Profiles.layer), category) with
  | (Hosting | Dns), Home ->
      Some (Registry.regional ~layer:(if layer = Dns then "dns" else "hosting") cc i)
  | (Hosting | Dns), Partner p ->
      Some (Registry.regional ~layer:(if layer = Dns then "dns" else "hosting") p i)
  | (Hosting | Dns), World_tail ->
      let owner = country_code (hash cc 19 + (i * 13)) in
      Some (Registry.regional ~layer:(if layer = Dns then "dns" else "hosting") owner (40 + i))
  | Ca, Home -> if i = 0 then Registry.ca_regional cc else None
  | Ca, Partner p -> if i = 0 then Registry.ca_regional p else None
  | Ca, World_tail -> None
  | Tld, Home ->
      if i = 0 then Some (Registry.tld (Webdep_geo.Country.ccTLD (Webdep_geo.Country.of_code_exn cc)))
      else None
  | Tld, Partner p ->
      if i = 0 then Some (Registry.tld (Webdep_geo.Country.ccTLD (Webdep_geo.Country.of_code_exn p)))
      else None
  | Tld, World_tail ->
      let owner = country_code (hash cc 29 + (i * 17)) in
      if owner = cc then None
      else Some (Registry.tld (Webdep_geo.Country.ccTLD (Webdep_geo.Country.of_code_exn owner)))
  | _, Global -> None (* globals use the explicit roster, not this path *)

(* The CA layer has its own calibration: the seven large global CAs
   carry ~98% of websites (80–99.7% per country, §7.1), named regional
   CAs (Asseco, TWCA, SECOM, …) take their anchored shares, and a micro
   tail of medium / extra-small CAs shares the remainder.  A generic
   Zipf tail would leak far too much mass past the seventh CA. *)
let build_ca ~c ~overrides cc =
  let target =
    match overrides.target with Some t -> t | None -> Profiles.target_score Ca cc
  in
  let p1 =
    match overrides.top_share with Some s -> s | None -> Profiles.top_share Ca cc
  in
  let q7 = Profiles.ca_global_share cc in
  let home = match overrides.home_quota with Some q -> q | None -> Profiles.home_quota Ca cc in
  let partners = Profiles.partners Ca cc in
  let pinned =
    (if home > 0.0 then
       match Registry.ca_regional cc with Some p -> [ (p, home) ] | None -> []
     else [])
    @ List.filter_map
        (fun (pcc, f) ->
          match Registry.ca_regional pcc with Some p -> Some ((p, f)) | None -> None)
        partners
    (* A sliver of Russian sites use the browser-rejected state CA. *)
    @ (if cc = "RU" then [ (Registry.russian_state_ca, 0.005) ] else [])
  in
  let pinned_mass = List.fold_left (fun acc (_, f) -> acc +. f) 0.0 pinned in
  let pinned_hhi = List.fold_left (fun acc (_, f) -> acc +. (f *. f)) 0.0 pinned in
  let n = Profiles.n_providers Ca cc in
  let tail_n = Stdlib.max 2 (n - 7 - List.length pinned) in
  let tail_mass = Float.max 0.005 (1.0 -. q7 -. pinned_mass) in
  (* Renormalize if quotas collide. *)
  let q7 = 1.0 -. pinned_mass -. tail_mass in
  let tail_hhi = tail_mass *. tail_mass /. float_of_int tail_n in
  let hhi_target = target +. (1.0 /. float_of_int c) in
  let head_budget = hhi_target -. pinned_hhi -. tail_hhi in
  (* Head: p1 plus six buckets of mass (q7 − p1) with Zipf exponent
     bisected to land the budget; adjust p1 when infeasible. *)
  let head_hhi alpha p1 =
    let z = Webdep_stats.Sample.zipf_probabilities ~s:alpha 6 in
    (p1 *. p1)
    +. Array.fold_left (fun acc zi -> acc +. (((q7 -. p1) *. zi) ** 2.0)) 0.0 z
  in
  let p1 =
    (* Clamp so a uniform rest cannot overshoot: solve
       (1+z) p1^2 − 2 z q7 p1 + z q7^2 − budget = 0 with z = 1/6. *)
    let z = 1.0 /. 6.0 in
    if head_hhi 0.0 p1 > head_budget then begin
      let a = 1.0 +. z and b = -2.0 *. z *. q7 and cst = (z *. q7 *. q7) -. head_budget in
      let disc = (b *. b) -. (4.0 *. a *. cst) in
      if disc >= 0.0 then
        let root = (-.b +. sqrt disc) /. (2.0 *. a) in
        Float.max 0.05 (Float.min p1 root)
      else p1
    end
    else p1
  in
  let alpha =
    let lo = ref 0.0 and hi = ref 8.0 in
    if head_hhi !hi p1 < head_budget then !hi
    else begin
      for _ = 1 to 50 do
        let mid = (!lo +. !hi) /. 2.0 in
        if head_hhi mid p1 < head_budget then lo := mid else hi := mid
      done;
      (!lo +. !hi) /. 2.0
    end
  in
  let z = Webdep_stats.Sample.zipf_probabilities ~s:alpha 6 in
  let head_shares = p1 :: Array.to_list (Array.map (fun zi -> (q7 -. p1) *. zi) z) in
  (* Identities. *)
  let g7 =
    let base = Registry.ca_global7 in
    if List.mem cc Profiles.digicert_first then
      match base with le :: dc :: rest -> dc :: le :: rest | short -> short
    else base
  in
  let tail_roster =
    Registry.ca_medium @ rotate (hash cc 11) Registry.ca_xsmall
  in
  let tail_roster =
    (* Skip identities already pinned (e.g. GlobalSign as a home CA). *)
    List.filter (fun p -> not (List.exists (fun (q, _) -> Provider.equal p q) pinned)) tail_roster
  in
  let tail_shares = List.init tail_n (fun _ -> tail_mass /. float_of_int tail_n) in
  let tail_pairs =
    List.filteri (fun i _ -> i < tail_n) tail_roster
    |> List.mapi (fun i p -> (p, List.nth tail_shares i))
  in
  let share_pairs =
    List.map2 (fun p s -> (p, s)) (List.filteri (fun i _ -> i < 7) g7) head_shares
    @ pinned @ tail_pairs
  in
  let shares = Array.of_list (List.map snd share_pairs) in
  let counts = Webdep_stats.Sample.round_shares ~total:c shares in
  let assignments =
    List.mapi (fun i (p, _) -> (p, counts.(i))) share_pairs
    |> List.filter (fun (_, k) -> k > 0)
    |> List.sort (fun (_, a) (_, b) -> Stdlib.compare b a)
  in
  let achieved =
    Calibrate.score_of_counts (Array.of_list (List.map snd assignments))
  in
  { country = cc; layer = Profiles.Ca; assignments; achieved_score = achieved }

let build_generic ~c ~overrides layer cc =
  let target =
    match overrides.target with Some t -> t | None -> Profiles.target_score layer cc
  in
  let top_share =
    match overrides.top_share with Some s -> s | None -> Profiles.top_share layer cc
  in
  let home_quota =
    match overrides.home_quota with Some q -> q | None -> Profiles.home_quota layer cc
  in
  let partners = Profiles.partners layer cc in
  let n_providers = min (Profiles.n_providers layer cc) (c / 4) in
  let top = Profiles.top_provider layer cc in
  (* Only a ccTLD-primary TLD top bucket comes from the Home category; a
     US-homed global (Cloudflare in the US) does not absorb the home
     quota. *)
  let top_is_home = layer = Profiles.Tld && top.Provider.home = cc in
  let home_quota = if top_is_home then 0.0 else home_quota in
  let partner_total = List.fold_left (fun acc (_, f) -> acc +. f) 0.0 partners in
  let cap = 0.98 -. top_share in
  let scale =
    if home_quota +. partner_total > cap && home_quota +. partner_total > 0.0 then
      cap /. (home_quota +. partner_total)
    else 1.0
  in
  let home_quota = home_quota *. scale in
  let partners = List.map (fun (p, f) -> (p, f *. scale)) partners in
  let second_share = Profiles.second_share_anchor layer cc in
  (* Single-identity categories (the TLD layer's local ccTLD and partner
     ccTLDs) get exact-share buckets pinned into the calibration so the
     anchored shares materialize precisely. *)
  let pinned =
    match layer with
    | Profiles.Tld ->
        (if home_quota > 0.0 then [ home_quota ] else [])
        @ List.filter_map (fun (_, f) -> if f > 0.0 then Some f else None) partners
    | Profiles.Hosting | Profiles.Dns | Profiles.Ca -> []
  in
  let { Calibrate.counts; achieved } =
    Calibrate.counts ~top_share ?second_share ~pinned ~c ~n_providers ~target ()
  in
  let n = Array.length counts in
  let cf = float_of_int c in
  (* The categories in play, each with a slot in the arrays below: the
     global roster, home providers, the world tail, then the partners. *)
  let cats =
    Array.of_list (Global :: Home :: World_tail :: List.map (fun (p, _) -> Partner p) partners)
  in
  (* Remaining quotas in websites. *)
  let quotas = Array.make (Array.length cats) 0.0 in
  quotas.(1) <- home_quota *. cf;
  List.iteri (fun k (_, f) -> quotas.(3 + k) <- f *. cf) partners;
  let top_count = counts.(0) in
  let global_quota =
    cf -. float_of_int top_count -. (home_quota *. cf)
    -. List.fold_left (fun acc (_, f) -> acc +. (f *. cf)) 0.0 partners
  in
  quotas.(0) <- Float.max 0.0 global_quota;
  (* Cursors, used identities, exhaustion tracking. *)
  let used = Used.create (2 * n) in
  let cursors = Array.make (Array.length cats) 0 in
  let globals = ref (global_roster layer cc) in
  let exhausted = Array.make (Array.length cats) false in
  let take_identity k =
    let rec from_roster () =
      match cats.(k) with
      | Global -> (
          match !globals with
          | [] -> None
          | p :: rest ->
              globals := rest;
              if Used.mem used p then from_roster () else Some p)
      | cat -> (
          let i = cursors.(k) in
          cursors.(k) <- i + 1;
          match category_roster layer cc cat i with
          | None -> None
          | Some p -> if Used.mem used p then from_roster () else Some p)
    in
    from_roster ()
  in
  let mark_exhausted k =
    exhausted.(k) <- true;
    (* Transfer unmet quota to the world tail so insularity targets are
       not silently inflated. *)
    let leftover = quotas.(k) in
    if leftover > 0.0 then begin
      quotas.(k) <- 0.0;
      quotas.(2) <- leftover +. quotas.(2)
    end
  in
  let assignment : Provider.t option array = Array.make n None in
  let assign i p =
    assignment.(i) <- Some p;
    Used.replace used p ()
  in
  let top_identity = top in
  assign 0 top_identity;
  if top_is_home then quotas.(1) <- 0.0;
  (* Single-identity categories (CA/TLD home & partners) are pinned to the
     unassigned bucket whose size is closest to their quota. *)
  let single_identity k =
    match (layer, cats.(k)) with
    | (Profiles.Ca | Profiles.Tld), (Home | Partner _) -> true
    | _ -> false
  in
  (* Anchored dominant #2 providers (SuperHosting.BG, UAB) take the second
     bucket from the named category before the walk begins. *)
  (match Profiles.second_provider layer cc with
  | Some hint when n >= 2 && not (single_identity 1) ->
      let cat =
        match hint with
        | Profiles.Second_home -> Home
        | Profiles.Second_partner p -> Partner p
      in
      (match category_roster layer cc cat 0 with
      | Some p when not (Used.mem used p) ->
          assign 1 p;
          (* A partner outside [partners] has no slot and no turn in the
             walk, so nothing reads its cursor or quota. *)
          Option.iter
            (fun k ->
              cursors.(k) <- 1;
              quotas.(k) <- quotas.(k) -. float_of_int counts.(1))
            (Array.find_index (( = ) cat) cats)
      | Some _ | None -> ())
  | Some _ | None -> ());
  let pin_single k =
    let quota = quotas.(k) in
    if quota > 0.0 then begin
      match take_identity k with
      | None -> mark_exhausted k
      | Some p ->
          (* Closest free bucket to the quota. *)
          let best = ref (-1) and best_gap = ref infinity in
          for i = 1 to n - 1 do
            if assignment.(i) = None then begin
              let gap = Float.abs (float_of_int counts.(i) -. quota) in
              if gap < !best_gap then begin
                best_gap := gap;
                best := i
              end
            end
          done;
          if !best >= 0 then begin
            assign !best p;
            quotas.(k) <- 0.0
          end
    end
  in
  Array.iteri (fun k _ -> if single_identity k then pin_single k) cats;
  (* Walk the remaining buckets in descending size. *)
  for i = 1 to n - 1 do
    if assignment.(i) = None then begin
      let rec choose () =
        let best = ref (-1) and best_q = ref neg_infinity in
        Array.iteri
          (fun k q ->
            if (not exhausted.(k)) && (not (single_identity k)) && q > !best_q then begin
              best_q := q;
              best := k
            end)
          quotas;
        if !best < 0 then None
        else
          match take_identity !best with
          | Some p -> Some (!best, p)
          | None ->
              mark_exhausted !best;
              choose ()
      in
      match choose () with
      | Some (k, p) ->
          assign i p;
          quotas.(k) <- quotas.(k) -. float_of_int counts.(i)
      | None ->
          (* Every roster exhausted: reuse the world tail with a fresh
             index far beyond normal cursors. *)
          assign i
            (Provider.make
               ~name:("Tail-" ^ cc ^ "-" ^ string_of_int i)
               ~home:(country_code (hash cc i)))
    end
  done;
  let assignments =
    Array.to_list (Array.mapi (fun i p -> (Option.get p, counts.(i))) assignment)
  in
  { country = cc; layer; assignments; achieved_score = achieved }

let build ?(c = 10_000) ?(overrides = no_overrides) layer cc =
  if not (Webdep_geo.Country.mem cc) then raise Not_found;
  if layer = Profiles.Ca then build_ca ~c ~overrides cc
  else build_generic ~c ~overrides layer cc

let total t = List.fold_left (fun acc (_, k) -> acc + k) 0 t.assignments
let provider_count t = List.length t.assignments

let share t provider =
  let c = float_of_int (total t) in
  List.fold_left
    (fun acc (p, k) -> if Provider.equal p provider then acc +. (float_of_int k /. c) else acc)
    0.0 t.assignments

let insular_share t =
  let c = float_of_int (total t) in
  List.fold_left
    (fun acc (p, k) ->
      if String.equal p.Provider.home t.country then acc +. (float_of_int k /. c) else acc)
    0.0 t.assignments
