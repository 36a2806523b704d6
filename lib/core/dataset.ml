type layer = Webdep_reference.Paper_scores.layer = Hosting | Dns | Ca | Tld

type entity = { name : string; country : string }

type site = {
  domain : string;
  hosting : entity option;
  dns : entity option;
  ca : entity option;
  tld : entity;
  hosting_geo : string option;
  ns_geo : string option;
  hosting_anycast : bool;
  ns_anycast : bool;
  language : string option;
}

type country_data = { country : string; sites : site list }

let dummy_entity = { name = ""; country = "" }

let grow a fill need =
  let b = Array.make (max need (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* ---- compact interned storage ------------------------------------------

   A dataset does not keep the [site] records callers hand it: each site
   is encoded into a handful of integers against a per-dataset pool —
   one dense id per distinct (name, country) entity (providers, CAs,
   TLDs share the pool) and one per distinct small string (geo country
   codes, language labels).  At the paper's full scale (150 countries x
   10K sites, ~1.5M records) this stores, per country, four int32
   columns, one word column and the domain names packed into one byte
   buffer instead of ~1.5M boxed records with per-site entity/option
   allocations.

   The columns and the buffer are Bigarrays, off the OCaml heap: ~41
   bytes a site, ~61 MiB at full scale.  The major GC lets garbage grow
   in proportion to the live heap, so data kept on it cost ~2.4 times
   its size in resident memory while a sweep allocates behind it; off
   the heap a finished dataset costs its own size.

   The string-facing API ([country]/[country_exn]) decodes on demand and
   memoizes the decoded [country_data] per country, so callers that walk
   [.sites] see byte-identical records to what was encoded; the metric
   queries below ([counts_by_entity], [distribution], ...) run directly
   on the int arrays and never decode.

   Ids are assigned in first-encounter order during encoding, which the
   measurement pipeline performs sequentially in canonical country
   order, so pool ids are independent of [--jobs]. *)

(* Keyed by the (name, country) pair itself: no joined string to build
   per site, and no separator byte two distinct pairs could share. *)
module Entity_tbl = Hashtbl.Make (struct
  type t = entity

  let equal a b = String.equal a.name b.name && String.equal a.country b.country
  let hash (e : t) = Hashtbl.hash e
end)

type pool = {
  mutable entities : entity array; (* id -> entity (first-seen record) *)
  mutable ecount : int;
  eindex : int Entity_tbl.t; (* entity -> id *)
  ssyms : Symbol.t; (* geo country codes and language labels *)
}

let pool_create () =
  {
    entities = Array.make 1024 dummy_entity;
    ecount = 0;
    eindex = Entity_tbl.create 1024;
    ssyms = Symbol.create ~size:256 ();
  }

let intern_entity p e =
  match Entity_tbl.find p.eindex e with
  | id -> id
  | exception Not_found ->
      let id = p.ecount in
      if id = Array.length p.entities then begin
        let bigger = Array.make (2 * id) dummy_entity in
        Array.blit p.entities 0 bigger 0 id;
        p.entities <- bigger
      end;
      p.entities.(id) <- e;
      p.ecount <- id + 1;
      Entity_tbl.add p.eindex e id;
      id

(* Small-string ids and the two anycast flags pack into one aux word:
   20 bits each for hosting_geo / ns_geo / language (0 = None, else
   id + 1), flags in bits 60-61.  A million distinct geo or language
   labels would overflow the field; the simulated world has ~150. *)
let str_bits = 20
let str_mask = (1 lsl str_bits) - 1

let intern_str p s =
  let id = Symbol.intern p.ssyms s in
  if id >= str_mask then invalid_arg "Dataset: too many distinct geo/language labels";
  id

let intern_opt_str p = function None -> 0 | Some s -> 1 + intern_str p s

let flag_bits = (1 lsl 60) lor (1 lsl 61)

(* ---- off-heap columns ----------------------------------------------------- *)

type ids = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
type words = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type chars = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let zero_ids n : ids =
  let a = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n in
  Bigarray.Array1.fill a 0l;
  a

let zero_words n : words =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  Bigarray.Array1.fill a 0;
  a

let id_at (a : ids) i = Int32.to_int a.{i}
let set_id (a : ids) i v = a.{i} <- Int32.of_int v

(* Domain [i] is the bytes [starts.{i}, starts.{i + 1}) of [chars]. *)
type domains = { chars : chars; starts : ids }

let pack_domains names =
  let n = Array.length names in
  let starts = zero_ids (n + 1) in
  let total = Array.fold_left (fun acc d -> acc + String.length d) 0 names in
  if total > Int32.to_int Int32.max_int then invalid_arg "Dataset: domain names too long";
  let chars = Bigarray.Array1.create Bigarray.char Bigarray.c_layout total in
  let o = ref 0 in
  Array.iteri
    (fun i d ->
      let base = !o in
      set_id starts i base;
      for j = 0 to String.length d - 1 do
        Bigarray.Array1.unsafe_set chars (base + j) (String.unsafe_get d j)
      done;
      o := base + String.length d)
    names;
  set_id starts n total;
  { chars; starts }

let domain_count d = Bigarray.Array1.dim d.starts - 1

let domain_at d i =
  let o = id_at d.starts i in
  String.init (id_at d.starts (i + 1) - o) (fun j -> Bigarray.Array1.unsafe_get d.chars (o + j))

let pack_aux ~hgeo ~nsgeo ~lang ~hany ~nany =
  hgeo
  lor (nsgeo lsl str_bits)
  lor (lang lsl (2 * str_bits))
  lor (if hany then 1 lsl 60 else 0)
  lor (if nany then 1 lsl 61 else 0)

let aux_hgeo aux = aux land str_mask
let aux_nsgeo aux = (aux lsr str_bits) land str_mask
let aux_lang aux = (aux lsr (2 * str_bits)) land str_mask

type packed = {
  cc : string;
  domains : domains;
  hosting : ids; (* entity id + 1; 0 = None *)
  dns : ids;
  ca : ids;
  tld : ids; (* entity id + 1; never 0 *)
  aux : words;
  decoded : country_data option Atomic.t;
}

type t = {
  pool : pool;
  by_country : (string, packed) Hashtbl.t;
  order : string list;
}

let intern_opt_entity p = function None -> 0 | Some e -> 1 + intern_entity p e

let encode_country pool (cd : country_data) =
  let n = List.length cd.sites in
  let hosting = zero_ids n in
  let dns = zero_ids n in
  let ca = zero_ids n in
  let tld = zero_ids n in
  let aux = zero_words n in
  List.iteri
    (fun i (s : site) ->
      set_id hosting i (intern_opt_entity pool s.hosting);
      set_id dns i (intern_opt_entity pool s.dns);
      set_id ca i (intern_opt_entity pool s.ca);
      set_id tld i (1 + intern_entity pool s.tld);
      (* Language, NS geo, hosting geo: the order every encoder interns
         small strings in, so one site list gives one pool. *)
      let lang = intern_opt_str pool s.language in
      let nsgeo = intern_opt_str pool s.ns_geo in
      let hgeo = intern_opt_str pool s.hosting_geo in
      aux.{i} <- pack_aux ~hgeo ~nsgeo ~lang ~hany:s.hosting_anycast ~nany:s.ns_anycast)
    cd.sites;
  let domains = pack_domains (Array.of_list (List.map (fun (s : site) -> s.domain) cd.sites)) in
  { cc = cd.country; domains; hosting; dns; ca; tld; aux;
    decoded = Atomic.make None }

let entity_at pool v = if v = 0 then None else Some pool.entities.(v - 1)
let str_at pool v = if v = 0 then None else Some (Symbol.name pool.ssyms (v - 1))

let decode_site pool pk i : site =
  let aux = pk.aux.{i} in
  {
    domain = domain_at pk.domains i;
    hosting = entity_at pool (id_at pk.hosting i);
    dns = entity_at pool (id_at pk.dns i);
    ca = entity_at pool (id_at pk.ca i);
    tld = pool.entities.(id_at pk.tld i - 1);
    hosting_geo = str_at pool (aux_hgeo aux);
    ns_geo = str_at pool (aux_nsgeo aux);
    hosting_anycast = aux land (1 lsl 60) <> 0;
    ns_anycast = aux land (1 lsl 61) <> 0;
    language = str_at pool (aux_lang aux);
  }

(* Decode is deterministic, so a lost CAS race just discards an
   identical copy; the memo makes repeated [.sites] walks free and keeps
   the decoded structure physically shared between them. *)
let decode_country pool pk =
  match Atomic.get pk.decoded with
  | Some cd -> cd
  | None ->
      let n = domain_count pk.domains in
      let sites = ref [] in
      for i = n - 1 downto 0 do
        sites := decode_site pool pk i :: !sites
      done;
      let cd = { country = pk.cc; sites = !sites } in
      if Atomic.compare_and_set pk.decoded None (Some cd) then cd
      else Option.get (Atomic.get pk.decoded)

(* ---- sites against the world's ids -------------------------------------- *)

type world_ids = {
  w_country : string;
  w_domains : domains;
  w_hosting : ids;
  w_dns : ids;
  w_ca : ids;
  w_tld : ids;
  w_aux : words;
  w_other_tlds : entity array;
}

let world_ids ~country names =
  let n = Array.length names in
  {
    w_country = country;
    w_domains = pack_domains names;
    w_hosting = zero_ids n;
    w_dns = zero_ids n;
    w_ca = zero_ids n;
    w_tld = zero_ids n;
    w_aux = zero_words n;
    w_other_tlds = [||];
  }

type names = {
  org_entity : int -> entity;
  ca_entity : int -> entity;
  tld_entity : int -> entity;
  geo_label : int -> string;
  lang_label : int -> string;
}

let decode_world_ids names w =
  let opt name v = if v = 0 then None else Some (name (v - 1)) in
  let site i =
    let aux = w.w_aux.{i} and tld = id_at w.w_tld i in
    {
      domain = domain_at w.w_domains i;
      hosting = opt names.org_entity (id_at w.w_hosting i);
      dns = opt names.org_entity (id_at w.w_dns i);
      ca = opt names.ca_entity (id_at w.w_ca i);
      tld = (if tld > 0 then names.tld_entity (tld - 1) else w.w_other_tlds.(-tld - 1));
      hosting_geo = opt names.geo_label (aux_hgeo aux);
      ns_geo = opt names.geo_label (aux_nsgeo aux);
      hosting_anycast = aux land (1 lsl 60) <> 0;
      ns_anycast = aux land (1 lsl 61) <> 0;
      language = opt names.lang_label (aux_lang aux);
    }
  in
  { country = w.w_country; sites = List.init (domain_count w.w_domains) site }

(* One pass takes each kind's largest id; [names] raises
   [Invalid_argument] outside each kind's range, so trying those is
   enough.  A negative aux word has bit 62 set, outside [pack_aux]'s
   fields. *)
let world_ids_fit names w =
  let tops = Array.make 5 0 and ok = ref true in
  let see k v = if v < 0 then ok := false else tops.(k) <- max tops.(k) v in
  for i = 0 to domain_count w.w_domains - 1 do
    let tld = id_at w.w_tld i and aux = w.w_aux.{i} in
    see 0 (id_at w.w_hosting i);
    see 0 (id_at w.w_dns i);
    see 1 (id_at w.w_ca i);
    if tld = 0 || -tld > Array.length w.w_other_tlds then ok := false;
    see 2 (max tld 0);
    if aux < 0 then ok := false;
    see 3 (aux_hgeo aux);
    see 3 (aux_nsgeo aux);
    see 4 (aux_lang aux)
  done;
  let named k name =
    tops.(k) = 0 || match name (tops.(k) - 1) with _ -> true | exception Invalid_argument _ -> false
  in
  !ok && named 0 names.org_entity && named 1 names.ca_entity && named 2 names.tld_entity
  && named 3 names.geo_label && named 4 names.lang_label

(* ---- streaming construction --------------------------------------------- *)

type builder = {
  b_pool : pool;
  b_by_country : (string, packed) Hashtbl.t;
  mutable b_rev_order : string list;
  (* One remap per kind of world id: slot id holds the dataset id + 1
     the world id was interned as, 0 = not met yet. *)
  b_orgs : int array ref;
  b_cas : int array ref;
  b_tlds : int array ref;
  b_geos : int array ref;
  b_langs : int array ref;
}

let builder () =
  let remap () = ref (Array.make 64 0) in
  {
    b_pool = pool_create ();
    b_by_country = Hashtbl.create 64;
    b_rev_order = [];
    b_orgs = remap ();
    b_cas = remap ();
    b_tlds = remap ();
    b_geos = remap ();
    b_langs = remap ();
  }

let add_packed b pk =
  Hashtbl.replace b.b_by_country pk.cc pk;
  b.b_rev_order <- pk.cc :: b.b_rev_order

let builder_add b cd = add_packed b (encode_country b.b_pool cd)

(* [v] is a world id + 1 (0 = none); the result the dataset id + 1.  A
   world id is named and interned only the first time this builder
   meets it, so the interner sees each entity's first encounter in the
   order the string path would. *)
let remapped r name intern v =
  if v = 0 then 0
  else begin
    let id = v - 1 in
    if id >= Array.length !r then r := grow !r 0 (id + 1);
    let d = !r.(id) in
    if d > 0 then d
    else begin
      let d = 1 + intern (name id) in
      !r.(id) <- d;
      d
    end
  end

let builder_append b names w =
  let p = b.b_pool in
  let entity e = intern_entity p e and label s = intern_str p s in
  let org col i = set_id col i (remapped b.b_orgs names.org_entity entity (id_at col i)) in
  for i = 0 to domain_count w.w_domains - 1 do
    (* Per site, in [encode_country]'s order. *)
    org w.w_hosting i;
    org w.w_dns i;
    set_id w.w_ca i (remapped b.b_cas names.ca_entity entity (id_at w.w_ca i));
    let tld = id_at w.w_tld i in
    set_id w.w_tld i
      (if tld > 0 then remapped b.b_tlds names.tld_entity entity tld
       else 1 + entity w.w_other_tlds.(-tld - 1));
    let aux = w.w_aux.{i} in
    let lang = remapped b.b_langs names.lang_label label (aux_lang aux) in
    let nsgeo = remapped b.b_geos names.geo_label label (aux_nsgeo aux) in
    let hgeo = remapped b.b_geos names.geo_label label (aux_hgeo aux) in
    w.w_aux.{i} <-
      hgeo lor (nsgeo lsl str_bits) lor (lang lsl (2 * str_bits)) lor (aux land flag_bits)
  done;
  add_packed b
    { cc = w.w_country; domains = w.w_domains; hosting = w.w_hosting; dns = w.w_dns;
      ca = w.w_ca; tld = w.w_tld; aux = w.w_aux; decoded = Atomic.make None }

let builder_finish b =
  { pool = b.b_pool; by_country = b.b_by_country;
    order = List.rev b.b_rev_order }

let of_country_data data =
  let b = builder () in
  List.iter (builder_add b) data;
  builder_finish b

let countries t = t.order

let packed t cc = Hashtbl.find_opt t.by_country cc

let packed_exn t cc =
  match packed t cc with Some pk -> pk | None -> raise Not_found

let country t cc = Option.map (decode_country t.pool) (packed t cc)

let country_exn t cc = decode_country t.pool (packed_exn t cc)

let size t =
  Hashtbl.fold (fun _ pk acc -> acc + domain_count pk.domains) t.by_country 0

let site_count t cc = domain_count (packed_exn t cc).domains

let entity_of (s : site) = function
  | Hosting -> s.hosting
  | Dns -> s.dns
  | Ca -> s.ca
  | Tld -> Some s.tld

let layer_ids pk = function
  | Hosting -> pk.hosting
  | Dns -> pk.dns
  | Ca -> pk.ca
  | Tld -> pk.tld

let iter_ids f (a : ids) =
  for i = 0 to Bigarray.Array1.dim a - 1 do
    f (Int32.to_int (Bigarray.Array1.unsafe_get a i))
  done

(* ---- metric queries on the int arrays ------------------------------------ *)

(* Per-domain counts indexed by entity id, all zero between calls: a
   country touches a few hundred of the pool's ids, so each call clears
   only those instead of allocating and scanning a pool-sized array (at
   c = 10 000 that was ~0.5 MB per (country, layer) query). *)
let counts_scratch = Domain.DLS.new_key (fun () -> ref [||])

let counts_by_entity t layer cc =
  let pk = packed_exn t cc in
  let scratch = Domain.DLS.get counts_scratch in
  if Array.length !scratch < t.pool.ecount then scratch := Array.make t.pool.ecount 0;
  let counts = !scratch in
  let touched = ref [] in
  iter_ids
    (fun v ->
      if v > 0 then begin
        let id = v - 1 in
        let c = counts.(id) in
        if c = 0 then touched := id :: !touched;
        counts.(id) <- c + 1
      end)
    (layer_ids pk layer);
  let out =
    List.rev_map
      (fun id ->
        let c = counts.(id) in
        counts.(id) <- 0;
        (t.pool.entities.(id), c))
      !touched
  in
  (* Count-descending with a deterministic tie-break: entities are
     distinct (name, country) pairs, so the order is total and the
     order ids were met in cannot show. *)
  List.sort
    (fun (e1, a) (e2, b) ->
      let c = Int.compare b a in
      if c <> 0 then c
      else
        let c = String.compare e1.name e2.name in
        if c <> 0 then c else String.compare e1.country e2.country)
    out

let distribution t layer cc =
  let counts = List.map snd (counts_by_entity t layer cc) in
  if counts = [] then raise Not_found;
  Webdep_emd.Dist.of_counts (Array.of_list counts)

(* Pooled counts in first-encounter order over countries in dataset
   order — the same order the per-layer string interner of the previous
   representation assigned, so the resulting distribution is
   bit-identical. *)
let merged_distribution t layer =
  let remap = Array.make (max 1 t.pool.ecount) (-1) in
  let counts = ref (Array.make 256 0) in
  let n = ref 0 in
  List.iter
    (fun cc ->
      match packed t cc with
      | None -> ()
      | Some pk ->
          iter_ids
            (fun v ->
              if v > 0 then begin
                let id = v - 1 in
                let local =
                  if remap.(id) >= 0 then remap.(id)
                  else begin
                    let local = !n in
                    if local = Array.length !counts then begin
                      let bigger = Array.make (2 * local) 0 in
                      Array.blit !counts 0 bigger 0 local;
                      counts := bigger
                    end;
                    remap.(id) <- local;
                    incr n;
                    local
                  end
                in
                !counts.(local) <- !counts.(local) + 1
              end)
            (layer_ids pk layer))
    t.order;
  Webdep_emd.Dist.of_counts (Array.sub !counts 0 !n)

let entity_share t layer cc ~name =
  let pk = packed_exn t cc in
  let total = domain_count pk.domains in
  if total = 0 then 0.0
  else begin
    let hits = ref 0 in
    iter_ids
      (fun v ->
        if v > 0 && String.equal t.pool.entities.(v - 1).name name then
          incr hits)
      (layer_ids pk layer);
    float_of_int !hits /. float_of_int total
  end

let home_label_count t layer cc =
  let pk = packed_exn t cc in
  let hits = ref 0 in
  iter_ids
    (fun v ->
      if v > 0 && String.equal t.pool.entities.(v - 1).country cc then incr hits)
    (layer_ids pk layer);
  !hits

(* ---- the interner pool (exposed for tests) ------------------------------ *)

module Compact = struct
  let entity_count t = t.pool.ecount
  let entities t = Array.sub t.pool.entities 0 t.pool.ecount
end

(* ---- incremental tallies ------------------------------------------------ *)

(* Dense tally: one id per distinct entity and a count per id, plus the
   count histogram the scores are read from: [freq.(k)] entities have
   exactly [k] sites ([k >= 1]; slot 0 unused), [labelled] is the sum of
   the counts and [largest] the biggest one (0 when empty).  [freq] is
   sized to [largest], not to the country's site count. *)
type tally = {
  ids : int Entity_tbl.t;
  mutable entities : entity array; (* id -> entity *)
  mutable counts : int array; (* id -> count *)
  mutable freq : int array;
  mutable labelled : int;
  mutable largest : int;
}

module Tally = struct
  type nonrec t = tally

  let create () =
    {
      ids = Entity_tbl.create 16;
      entities = Array.make 16 dummy_entity;
      counts = Array.make 16 0;
      freq = Array.make 16 0;
      labelled = 0;
      largest = 0;
    }

  let id t e =
    match Entity_tbl.find t.ids e with
    | id -> id
    | exception Not_found ->
        let id = Entity_tbl.length t.ids in
        if id = Array.length t.counts then begin
          t.counts <- grow t.counts 0 (id + 1);
          t.entities <- grow t.entities dummy_entity (id + 1)
        end;
        t.entities.(id) <- e;
        Entity_tbl.add t.ids e id;
        id

  let add_id t id =
    let c = t.counts.(id) in
    if c > 0 then t.freq.(c) <- t.freq.(c) - 1;
    let k = c + 1 in
    t.counts.(id) <- k;
    if k = Array.length t.freq then t.freq <- grow t.freq 0 (k + 1);
    t.freq.(k) <- t.freq.(k) + 1;
    if k > t.largest then t.largest <- k;
    t.labelled <- t.labelled + 1;
    c = 0

  let remove_id t id =
    let c = t.counts.(id) in
    if c <= 0 then invalid_arg "Dataset.Tally.remove_id: count already zero";
    t.counts.(id) <- c - 1;
    t.freq.(c) <- t.freq.(c) - 1;
    if c > 1 then t.freq.(c - 1) <- t.freq.(c - 1) + 1;
    (* The largest count falls only when its last holder steps down,
       and then by one: that entity keeps c - 1 sites, or c = 1 and
       the tally is empty. *)
    if c = t.largest && t.freq.(c) = 0 then t.largest <- c - 1;
    t.labelled <- t.labelled - 1;
    c = 1

  let labelled t = t.labelled

  (* [Centralization.score] over the canonical list adds (m/c)^2 per
     entity in count-descending order.  Entities with equal counts add
     equal terms, so walking the histogram down from the largest count
     and adding each count's term [freq.(k)] times runs the very same
     float additions: one [pow] per distinct count, no list, no sort. *)
  let score t =
    if t.labelled = 0 then raise Not_found;
    let c = float_of_int t.labelled in
    let acc = ref 0.0 in
    for k = t.largest downto 1 do
      let n = t.freq.(k) in
      if n > 0 then begin
        let term = (float_of_int k /. c) ** 2.0 in
        for _ = 1 to n do
          acc := !acc +. term
        done
      end
    done;
    !acc -. (1.0 /. c)

  let home_count t cc =
    let acc = ref 0 in
    for id = 0 to Entity_tbl.length t.ids - 1 do
      if t.counts.(id) > 0 && String.equal t.entities.(id).country cc then
        acc := !acc + t.counts.(id)
    done;
    !acc
end
