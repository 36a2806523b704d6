type owner = { id : int; name : string; country : string }

type t = {
  owners : (string, owner) Hashtbl.t;
  mutable by_id : owner array;  (* slot i holds owner id i; the tail is filler *)
  issuers : (string, owner) Hashtbl.t;
}

let create () =
  { owners = Hashtbl.create 64; by_id = [||]; issuers = Hashtbl.create 256 }

let register_owner t ~name ~country =
  match Hashtbl.find_opt t.owners name with
  | Some o -> o
  | None ->
      let id = Hashtbl.length t.owners in
      let o = { id; name; country } in
      if id = Array.length t.by_id then begin
        let bigger = Array.make (max 16 (2 * id)) o in
        Array.blit t.by_id 0 bigger 0 id;
        t.by_id <- bigger
      end;
      t.by_id.(id) <- o;
      Hashtbl.replace t.owners name o;
      o

let register_issuer t ~issuer_cn owner = Hashtbl.replace t.issuers issuer_cn owner

let owner_of_issuer t issuer_cn = Hashtbl.find_opt t.issuers issuer_cn
let owner_by_name t name = Hashtbl.find_opt t.owners name

let owner t id =
  if id < 0 || id >= Hashtbl.length t.owners then invalid_arg "Ca.owner: id out of range";
  t.by_id.(id)

let owner_count t = Hashtbl.length t.owners
let issuer_count t = Hashtbl.length t.issuers
let owners t = Hashtbl.fold (fun _ o acc -> o :: acc) t.owners []
