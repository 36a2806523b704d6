type network = {
  org : Org.t;
  asn : int;
  pops : (string * Ipv4.prefix) list;
  pop_index : (string, Ipv4.prefix) Hashtbl.t option;
  hq_prefix : Ipv4.prefix;
  anycast : bool;
}

let pop_near network ~near =
  match network.pop_index with
  | None -> network.hq_prefix
  | Some index -> (
      match Hashtbl.find_opt index near with Some p -> p | None -> network.hq_prefix)

(* Everything a per-address lookup answers about one allocated /20,
   kept in the option form the lookups return so they allocate nothing. *)
type block = {
  b_org : Org.t option;
  b_asn : int option;
  b_geo : string option;  (* the geolocation database's verdict *)
  b_geo_id : int;  (* the verdict's number; -1 with [b_geo = None] *)
  b_anycast : bool;
}

let unallocated =
  { b_org = None; b_asn = None; b_geo = None; b_geo_id = -1; b_anycast = false }

type t = {
  geo : Geo_db.t;  (* the error model the per-block verdicts are drawn from *)
  networks : (string, network) Hashtbl.t;  (* the one name index *)
  mutable org_blocks : int array;
      (* slot i: the [blocks] slot of org id i's HQ /20 (ints, so
         registration stores them without a write barrier) *)
  mutable blocks : block array;
      (* slot i describes /20 number [first_block + i]; [unallocated]
         fills the slots past the allocator cursor *)
  mutable registered : int;  (* networks so far: the next org id *)
  mutable next_block : int;  (* /20 allocator cursor *)
  geo_ids : (string, int) Hashtbl.t;  (* verdict -> its number *)
  mutable geo_names : string array;  (* number -> verdict; the tail is filler *)
}

(* Synthetic tier-1 transit ASNs through which every network announces. *)
let transit_asns = [| 174; 3356; 1299; 2914; 6453 |]

(* Allocations start at /20 number 16, i.e. 0.1.0.0 — not 16.0.0.0:
   every generated address derives from this origin. *)
let first_block = 16

(* Private-use ASNs, one per network in registration order. *)
let first_asn = 64_512

let create ?(geo_accuracy = 1.0) ?(networks = 16) rng =
  {
    geo = Geo_db.create ~accuracy:geo_accuracy rng ();
    networks = Hashtbl.create networks;
    org_blocks = Array.make networks 0;
    blocks = Array.make 1024 unallocated;
    registered = 0;
    next_block = first_block;
    geo_ids = Hashtbl.create 256;
    geo_names = Array.make 256 "";
  }

(* [a] with slot [i] set to [x], grown by doubling (filled with [fill])
   when [i] is just past its end. *)
let put a i x fill =
  let a =
    if i < Array.length a then a
    else begin
      let bigger = Array.make (max 16 (2 * i)) fill in
      Array.blit a 0 bigger 0 i;
      bigger
    end
  in
  a.(i) <- x;
  a

(* Verdicts are numbered in the order registration first draws them. *)
let geo_number t verdict =
  match Hashtbl.find t.geo_ids verdict with
  | id -> id
  | exception Not_found ->
      let id = Hashtbl.length t.geo_ids in
      t.geo_names <- put t.geo_names id verdict "";
      Hashtbl.add t.geo_ids verdict id;
      id

let alloc_prefix t =
  let base = t.next_block lsl 12 in
  t.next_block <- t.next_block + 1;
  if base >= 1 lsl 32 then failwith "Internet: address space exhausted";
  Ipv4.prefix (Ipv4.addr_of_int base) 20

let slot (p : Ipv4.prefix) = (Ipv4.addr_to_int p.Ipv4.base lsr 12) - first_block

(* The allocator hands out consecutive /20s, so slot [i] is filled in
   order. *)
let set_block t (p : Ipv4.prefix) block =
  let i = slot p in
  let blocks = t.blocks in
  if i < Array.length blocks then blocks.(i) <- block
  else begin
    let bigger = Array.make (max (i + 1) (2 * Array.length blocks)) unallocated in
    Array.blit blocks 0 bigger 0 (Array.length blocks);
    bigger.(i) <- block;
    t.blocks <- bigger
  end

(* One read of the array, bound-checked against that array's own length. *)
let block_of t addr =
  let blocks = t.blocks in
  let i = (Ipv4.addr_to_int addr lsr 12) - first_block in
  if i >= 0 && i < Array.length blocks then blocks.(i) else unallocated

let register_network t ~name ~country ?(anycast = false) ?(presence = []) () =
  match Hashtbl.find_opt t.networks name with
  | Some n -> n
  | None ->
      let id = t.registered in
      t.registered <- id + 1;
      let org = { Org.id; name; country } and asn = first_asn + id in
      let b_org = Some org and b_asn = Some asn in
      let pop cc =
        let p = alloc_prefix t in
        (* Anycast blocks geolocate to the registrant's HQ. *)
        let verdict = Geo_db.verdict t.geo (if anycast then country else cc) in
        set_block t p
          { b_org; b_asn; b_geo = Some verdict; b_geo_id = geo_number t verdict;
            b_anycast = anycast };
        (cc, p)
      in
      let hq = pop country in
      t.org_blocks <- put t.org_blocks id (slot (snd hq)) 0;
      (* Further points of presence, in [presence] order without
         repeats, are indexed by country so that per-site address picks
         do not rescan the list (global providers have one pop per
         country).  Without [presence] the HQ pop is the only one, and
         there is nothing to index. *)
      let pops, pop_index =
        if presence = [] then ([ hq ], None)
        else begin
          let index = Hashtbl.create (List.length presence + 1) in
          Hashtbl.add index country (snd hq);
          let rest =
            List.filter_map
              (fun cc ->
                if Hashtbl.mem index cc then None
                else begin
                  let ((_, p) as pop) = pop cc in
                  Hashtbl.add index cc p;
                  Some pop
                end)
              presence
          in
          (hq :: rest, Some index)
        end
      in
      let network = { org; asn; pops; pop_index; hq_prefix = snd hq; anycast } in
      Hashtbl.add t.networks name network;
      network

let find_network t name = Hashtbl.find_opt t.networks name

let org t id =
  if id < 0 || id >= t.registered then invalid_arg "Internet.org: id out of range";
  Option.get t.blocks.(t.org_blocks.(id)).b_org

let address_in _t network ~near rng = Ipv4.random_addr rng (pop_near network ~near)

let origin_as t addr = (block_of t addr).b_asn
let org_of_addr t addr = (block_of t addr).b_org
let geolocate t addr = (block_of t addr).b_geo
let geo_id t addr = (block_of t addr).b_geo_id

let is_anycast_addr t addr = (block_of t addr).b_anycast
let network_count t = t.registered

let geo_name t id =
  if id < 0 || id >= Hashtbl.length t.geo_ids then invalid_arg "Internet.geo_name: id out of range";
  t.geo_names.(id)

(* Each network announces its i-th prefix through a tier-1 transit.
   Every prefix has one announcement, so the walk order over networks
   cannot change the table. *)
let bgp t =
  let bgp = Bgp.create () in
  Hashtbl.iter
    (fun _ n ->
      List.iteri
        (fun i (_, p) ->
          let transit = transit_asns.((n.asn + i) mod Array.length transit_asns) in
          Bgp.announce bgp p ~path:[ transit; n.asn ])
        n.pops)
    t.networks;
  bgp
