type entry = { believed : string; truth : string }

type t = {
  table : entry Prefix_table.t;
  accuracy : float;
  candidates : string array;
  rng : Webdep_stats.Rng.t;
}

let create ?(accuracy = 1.0) ?candidates rng () =
  if accuracy < 0.0 || accuracy > 1.0 then invalid_arg "Geo_db.create: accuracy outside [0,1]";
  let candidates =
    match candidates with
    | Some cs -> Array.of_list cs
    | None -> Array.of_list (List.map (fun c -> c.Webdep_geo.Country.code) Webdep_geo.Country.all)
  in
  { table = Prefix_table.create (); accuracy; candidates; rng }

let verdict t truth =
  if Webdep_stats.Rng.float t.rng 1.0 < t.accuracy then truth
  else begin
    (* Draw a wrong country; retry a few times to avoid the truth. *)
    let rec pick tries =
      let c = Webdep_stats.Sample.choose t.rng t.candidates in
      if c <> truth || tries > 5 then c else pick (tries + 1)
    in
    pick 0
  end

let add t prefix truth = Prefix_table.add t.table prefix { believed = verdict t truth; truth }

let lookup t addr = Option.map (fun e -> e.believed) (Prefix_table.lookup t.table addr)
let true_country t addr = Option.map (fun e -> e.truth) (Prefix_table.lookup t.table addr)
let size t = Prefix_table.size t.table
