type announcement = { prefix : Ipv4.prefix; path : int list }

let rec last = function
  | [ o ] -> o
  | _ :: rest -> last rest
  | [] -> invalid_arg "Bgp.origin: empty path"

let origin a = last a.path

(* Routes keyed by (base, length) packed into one int. *)
module Routes = Hashtbl.Make (Int)

type t = {
  routes : announcement list Routes.t;
  mutable count : int;
}

let create () = { routes = Routes.create 4096; count = 0 }

let announce t prefix ~path =
  if path = [] then invalid_arg "Bgp.announce: empty AS path";
  let key = (Ipv4.addr_to_int prefix.Ipv4.base lsl 6) lor prefix.Ipv4.len in
  let existing = Option.value ~default:[] (Routes.find_opt t.routes key) in
  Routes.replace t.routes key ({ prefix; path } :: existing);
  t.count <- t.count + 1

(* Shortest AS path wins; ties break toward the lowest origin ASN —
   deterministic, like a route collector's stable choice. *)
let better a b =
  match compare (List.length a.path) (List.length b.path) with
  | 0 -> compare (origin a) (origin b) < 0
  | c -> c < 0

let best_of = function
  | [] -> None
  | first :: rest ->
      Some (List.fold_left (fun best a -> if better a best then a else best) first rest)

let best_table t =
  let table = Prefix_table.create () in
  Routes.iter
    (fun _ anns ->
      match best_of anns with
      | Some best -> Prefix_table.add table best.prefix best
      | None -> ())
    t.routes;
  table

let best_route t addr = Prefix_table.lookup (best_table t) addr

let derive_pfx2as t =
  let table = Prefix_table.create () in
  Routes.iter
    (fun _ anns ->
      match best_of anns with
      | Some best -> Prefix_table.add table best.prefix (origin best)
      | None -> ())
    t.routes;
  table

let moas t =
  Routes.fold
    (fun _ anns acc ->
      match anns with
      | [] | [ _ ] -> acc
      | a :: _ -> (
          match List.sort_uniq compare (List.map origin anns) with
          | _ :: _ :: _ as origins -> (a.prefix, origins) :: acc
          | _ -> acc))
    t.routes []

let announcement_count t = t.count
let prefix_count t = Routes.length t.routes
