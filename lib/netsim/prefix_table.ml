type 'a node = {
  mutable value : 'a option;
  mutable zero : 'a node option;
  mutable one : 'a node option;
}

type 'a t = { root : 'a node; mutable count : int }

let new_node () = { value = None; zero = None; one = None }

let create () = { root = new_node (); count = 0 }

let bit addr i = (Ipv4.addr_to_int addr lsr (31 - i)) land 1

let add t prefix v =
  let { Ipv4.base; len } = (prefix : Ipv4.prefix) in
  let node = ref t.root in
  for i = 0 to len - 1 do
    let next =
      if bit base i = 0 then (
        match !node.zero with
        | Some n -> n
        | None ->
            let n = new_node () in
            !node.zero <- Some n;
            n)
      else
        match !node.one with
        | Some n -> n
        | None ->
            let n = new_node () in
            !node.one <- Some n;
            n
    in
    node := next
  done;
  if !node.value = None then t.count <- t.count + 1;
  !node.value <- Some v

let lookup t addr =
  let best = ref None in
  let node = ref (Some t.root) in
  let depth = ref 0 in
  let continue = ref true in
  while !continue do
    match !node with
    | None -> continue := false
    | Some n ->
        (match n.value with Some _ as v -> best := v | None -> ());
        if !depth = 32 then continue := false
        else begin
          node := (if bit addr !depth = 0 then n.zero else n.one);
          incr depth
        end
  done;
  !best

let size t = t.count

let fold f t init =
  (* Depth-first walk reconstructing each stored prefix from the path. *)
  let rec go node bits len acc =
    let acc =
      match node.value with
      | Some v -> f (Ipv4.prefix (Ipv4.addr_of_int (bits lsl (32 - len))) len) v acc
      | None -> acc
    in
    let acc =
      match node.zero with Some n -> go n (bits lsl 1) (len + 1) acc | None -> acc
    in
    match node.one with
    | Some n -> go n ((bits lsl 1) lor 1) (len + 1) acc
    | None -> acc
  in
  go t.root 0 0 init
