module Ipv4 = Webdep_netsim.Ipv4

type referral = {
  zone : string;
  ns_hosts : string list;
  glue : (string * Ipv4.addr list) list;
}

type response =
  | Answer of Ipv4.addr list
  | Cname of string
  | Referral of referral
  | Name_error

(* Server roles keyed by address. *)
type role =
  | Root
  | Tld_server of string  (* the TLD label it serves, without the dot *)
  | Auth  (* a provider nameserver; answers from the zone data *)

type t = {
  db : Zone_db.t;
  roles : (int, role) Hashtbl.t;  (* keyed by Ipv4.addr_to_int *)
  roots : Ipv4.addr list;
  tld_servers : (string, Ipv4.addr list) Hashtbl.t;  (* label -> addresses *)
  tlds : (string, unit) Hashtbl.t;
  auth_addrs : (string, Ipv4.addr list) Hashtbl.t;  (* ns host -> addresses *)
}

let tld_of domain =
  match String.rindex_opt domain '.' with
  | None -> domain
  | Some i -> String.sub domain (i + 1) (String.length domain - i - 1)

(* Fixed infrastructure address blocks, outside the 16.0.0.0+ space the
   world allocator uses. *)
let root_block = Ipv4.prefix (Ipv4.addr_of_int (12 lsl 24)) 24
let tld_block = Ipv4.prefix (Ipv4.addr_of_int ((12 lsl 24) lor (1 lsl 16))) 16

let build db =
  let roles = Hashtbl.create 4096 in
  let tlds = Hashtbl.create 512 in
  let tld_servers = Hashtbl.create 512 in
  let auth_addrs = Hashtbl.create 4096 in
  let roots = List.init 13 (fun i -> Ipv4.nth_addr root_block (i + 1)) in
  List.iter (fun a -> Hashtbl.replace roles (Ipv4.addr_to_int a) Root) roots;
  (* One TLD zone per distinct TLD, two servers each, numbered in label
     order: server addresses then depend only on the records, not on the
     zone table's capacity or insertion order. *)
  Zone_db.fold_domains
    (fun domain _ns _a () -> Hashtbl.replace tlds (tld_of domain) ())
    db ();
  let labels = List.sort String.compare (Hashtbl.fold (fun l () acc -> l :: acc) tlds []) in
  List.iteri
    (fun i label ->
      let index = i + 1 in
      let addrs =
        [ Ipv4.nth_addr tld_block (2 * index); Ipv4.nth_addr tld_block ((2 * index) + 1) ]
      in
      Hashtbl.replace tld_servers label addrs;
      List.iter (fun a -> Hashtbl.replace roles (Ipv4.addr_to_int a) (Tld_server label)) addrs)
    labels;
  (* Every glue host is an authoritative server at its addresses. *)
  Zone_db.fold_hosts
    (fun host _answer () ->
      let addrs = Zone_db.host_addr db ~vantage:"US" host in
      Hashtbl.replace auth_addrs host addrs;
      List.iter (fun a -> Hashtbl.replace roles (Ipv4.addr_to_int a) Auth) addrs)
    db ();
  { db; roles; roots; tld_servers; tlds; auth_addrs }

let root_addrs t = t.roots

let tld_referral t label =
  match Hashtbl.find_opt t.tld_servers label with
  | None -> Name_error
  | Some addrs ->
      let ns_hosts =
        List.mapi (fun i _ -> Printf.sprintf "%c.%s-servers.sim" (Char.chr (97 + i)) label) addrs
      in
      Referral
        {
          zone = label;
          ns_hosts;
          glue = List.map2 (fun h a -> (h, [ a ])) ns_hosts addrs;
        }

let domain_referral t ~vantage domain =
  match Zone_db.domain_data t.db domain with
  | None -> Name_error
  | Some (ns_hosts, _) ->
      let glue =
        List.map (fun h -> (h, Zone_db.host_addr t.db ~vantage h)) ns_hosts
      in
      Referral { zone = domain; ns_hosts; glue }

let query t ~server ~vantage ~qname =
  match Hashtbl.find_opt t.roles (Ipv4.addr_to_int server) with
  | None -> Name_error
  | Some Root ->
      (* The root also serves infrastructure glue directly (stand-in for
         the real world's in-bailiwick TLD glue). *)
      if Hashtbl.mem t.auth_addrs qname then
        Answer (Zone_db.host_addr t.db ~vantage qname)
      else tld_referral t (tld_of qname)
  | Some (Tld_server label) ->
      if String.equal (tld_of qname) label then domain_referral t ~vantage qname
      else Name_error
  | Some Auth -> (
      match Zone_db.domain_data t.db qname with
      | None -> Name_error
      | Some (ns_hosts, _answer) ->
          (* Only answer for zones this server actually hosts. *)
          let serves =
            List.exists
              (fun h ->
                match Hashtbl.find_opt t.auth_addrs h with
                | Some addrs -> List.exists (fun a -> Ipv4.compare_addr a server = 0) addrs
                | None -> false)
              ns_hosts
          in
          if not serves then Name_error
          else
            match Zone_db.cname_of t.db qname with
            | Some target -> Cname target
            | None ->
                Answer
                  (Option.value ~default:[]
                     (Zone_db.answer_addrs t.db ~vantage qname)))

let tld_count t = Hashtbl.length t.tlds
let auth_server_count t = Hashtbl.length t.auth_addrs
