type diff = { kept : string list; added : string list; removed : string list }

(* Membership set of a list's domains, built once: [Toplist.mem] is a
   linear scan, which made a per-domain membership test O(c^2) overall. *)
let domain_set (t : Toplist.t) =
  let set = Hashtbl.create (Array.length t.Toplist.domains) in
  Array.iter (fun d -> Hashtbl.replace set d ()) t.Toplist.domains;
  set

let diff old_t new_t =
  let in_old = domain_set old_t and in_new = domain_set new_t in
  let kept = ref [] and added = ref [] and removed = ref [] in
  Array.iter
    (fun d -> if Hashtbl.mem in_old d then kept := d :: !kept else added := d :: !added)
    new_t.Toplist.domains;
  Array.iter
    (fun d -> if not (Hashtbl.mem in_new d) then removed := d :: !removed)
    old_t.Toplist.domains;
  { kept = List.rev !kept; added = List.rev !added; removed = List.rev !removed }

let retention_for_jaccard j =
  if j < 0.0 || j > 1.0 then invalid_arg "Churn.retention_for_jaccard: j outside [0,1]";
  2.0 *. j /. (1.0 +. j)

let evolve rng ~target_jaccard ~fresh t =
  let n = Toplist.length t in
  let keep = int_of_float (Float.round (retention_for_jaccard target_jaccard *. float_of_int n)) in
  let old = t.Toplist.domains in
  let in_old = domain_set t in
  (* Decide survivors uniformly over ranks so the churn is not
     popularity-biased (CrUX churn affects all rank bands). *)
  let index = Array.init n Fun.id in
  Webdep_stats.Sample.shuffle rng index;
  let survives = Array.make n false in
  for i = 0 to keep - 1 do
    survives.(index.(i)) <- true
  done;
  let minted = ref 0 in
  let mint () =
    let rec try_mint attempts =
      let d = fresh !minted in
      incr minted;
      if Hashtbl.mem in_old d then
        if attempts > 100 then invalid_arg "Churn.evolve: fresh produced existing domains"
        else try_mint (attempts + 1)
      else d
    in
    try_mint 0
  in
  let next = Array.init n (fun i -> if survives.(i) then old.(i) else mint ()) in
  (* Bounded rank jitter: swap each slot with a neighbour within a small
     window, preserving coarse popularity structure. *)
  let window = Stdlib.max 1 (n / 50) in
  for i = 0 to n - 1 do
    let j = Stdlib.min (n - 1) (i + Webdep_stats.Rng.int rng window) in
    let tmp = next.(i) in
    next.(i) <- next.(j);
    next.(j) <- tmp
  done;
  Toplist.create ~country:t.country next
