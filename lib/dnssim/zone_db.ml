type answer =
  | Static of Webdep_netsim.Ipv4.addr list
  | Geo of (string * Webdep_netsim.Ipv4.addr list) list * Webdep_netsim.Ipv4.addr list
  | Dynamic of (string -> Webdep_netsim.Ipv4.addr list)

(* Lookup-ready form of an answer, cooked once at registration: Geo
   per-country lists become a sorted parallel array pair so a per-query
   vantage lookup is a binary search instead of a List.assoc scan. *)
type cooked =
  | C_static of Webdep_netsim.Ipv4.addr list
  | C_geo of string array * Webdep_netsim.Ipv4.addr list array * Webdep_netsim.Ipv4.addr list
  | C_dynamic of (string -> Webdep_netsim.Ipv4.addr list)

let cook = function
  | Static addrs -> C_static addrs
  | Dynamic f -> C_dynamic f
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
      C_geo (Array.map fst arr, Array.map snd arr, default)

let lookup_cooked ~vantage = function
  | C_static addrs -> addrs
  | C_dynamic f -> f vantage
  | C_geo (countries, answers, default) ->
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

type entry = { ns_hosts : string list; a : answer; cooked : cooked; cname : string option }

type t = {
  domains : (string, entry) Hashtbl.t;
  hosts : (string, answer * cooked) Hashtbl.t;
}

let create ?(domains = 16) ?(hosts = 16) () =
  { domains = Hashtbl.create domains; hosts = Hashtbl.create hosts }

let add_domain t ~domain ~ns_hosts ~a =
  Hashtbl.replace t.domains domain { ns_hosts; a; cooked = cook a; cname = None }

let add_alias t ~domain ~target ~ns_hosts =
  Hashtbl.replace t.domains domain
    { ns_hosts; a = Static []; cooked = C_static []; cname = Some target }

let cname_of t domain =
  Option.bind (Hashtbl.find_opt t.domains domain) (fun e -> e.cname)

let add_host t ~host ~a = Hashtbl.replace t.hosts host (a, cook a)

let domain_data t domain =
  Option.map (fun e -> (e.ns_hosts, e.a)) (Hashtbl.find_opt t.domains domain)

let answer_addrs t ~vantage domain =
  Option.map
    (fun e -> lookup_cooked ~vantage e.cooked)
    (Hashtbl.find_opt t.domains domain)

let host_addr t ~vantage host =
  match Hashtbl.find_opt t.hosts host with
  | None -> []
  | Some (_, cooked) -> lookup_cooked ~vantage cooked

let domain_count t = Hashtbl.length t.domains

let fold_domains f t init =
  Hashtbl.fold (fun domain e acc -> f domain e.ns_hosts e.a acc) t.domains init

let fold_hosts f t init = Hashtbl.fold (fun host (a, _) acc -> f host a acc) t.hosts init
