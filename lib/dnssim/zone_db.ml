module Ipv4 = Webdep_netsim.Ipv4

type answer =
  | Static of Ipv4.addr list
  | Geo of (string * Ipv4.addr list) list * Ipv4.addr list
  | Dynamic of (string -> Ipv4.addr list)

(* Lookup-ready form of an answer, cooked once at registration: the
   addresses from a vantage.  Geo per-country lists become a sorted
   parallel array pair so a per-query vantage lookup is a binary search
   instead of a List.assoc scan; a Dynamic answer is its own closure. *)
type cooked = string -> Ipv4.addr list

let no_addrs : cooked = fun _ -> []

let geo_lookup countries answers default vantage =
  let lo = ref 0 and hi = ref (Array.length countries - 1) in
  let found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = String.compare vantage countries.(mid) in
    if c = 0 then begin
      found := mid;
      lo := !hi + 1
    end
    else if c < 0 then hi := mid - 1
    else lo := mid + 1
  done;
  if !found >= 0 then answers.(!found) else default

let cook = function
  | Static addrs -> fun _ -> addrs
  | Dynamic f -> f
  | Geo (per_country, default) ->
      (* First binding wins on duplicate countries, as List.assoc_opt did. *)
      let seen = Hashtbl.create 16 in
      let uniq =
        List.filter
          (fun (cc, _) ->
            if Hashtbl.mem seen cc then false
            else begin
              Hashtbl.add seen cc ();
              true
            end)
          per_country
      in
      let arr = Array.of_list uniq in
      Array.sort (fun (a, _) (b, _) -> String.compare a b) arr;
      geo_lookup (Array.map fst arr) (Array.map snd arr) default

type entry = { ns_hosts : string list; addrs : cooked; cname : string option }

(* [String.hash] is [Hashtbl.hash] on a string, so these tables fill
   and fold in the order a polymorphic table would. *)
module Tbl = Hashtbl.Make (String)

type t = { domains : entry Tbl.t; hosts : cooked Tbl.t }

let create ?(domains = 16) ?(hosts = 16) () =
  { domains = Tbl.create domains; hosts = Tbl.create hosts }

let add_domain t ~domain ~ns_hosts ~a =
  Tbl.replace t.domains domain { ns_hosts; addrs = cook a; cname = None }

let add_alias t ~domain ~target ~ns_hosts =
  Tbl.replace t.domains domain { ns_hosts; addrs = no_addrs; cname = Some target }

let add_host t ~host ~a = Tbl.replace t.hosts host (cook a)

let find t domain = Tbl.find_opt t.domains domain
let ns_hosts e = e.ns_hosts
let cname e = e.cname
let addrs e ~vantage = e.addrs vantage

let host_addr t ~vantage host =
  match Tbl.find t.hosts host with
  | addrs -> addrs vantage
  | exception Not_found -> []

let domain_count t = Tbl.length t.domains
let fold_domains f t init = Tbl.fold (fun domain _ acc -> f domain acc) t.domains init
let fold_hosts f t init = Tbl.fold (fun host _ acc -> f host acc) t.hosts init
