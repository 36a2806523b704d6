type t = { accuracy : float; candidates : string array; rng : Webdep_stats.Rng.t }

let create ?(accuracy = 1.0) ?candidates rng () =
  if accuracy < 0.0 || accuracy > 1.0 then invalid_arg "Geo_db.create: accuracy outside [0,1]";
  let candidates =
    match candidates with
    | Some cs -> Array.of_list cs
    | None -> Array.of_list (List.map (fun c -> c.Webdep_geo.Country.code) Webdep_geo.Country.all)
  in
  { accuracy; candidates; rng }

let verdict t truth =
  if Webdep_stats.Rng.float t.rng 1.0 < t.accuracy then truth
  else if Array.for_all (String.equal truth) t.candidates then truth
  else
    (* Draw a wrong country: redraw until it is not the truth. *)
    let rec pick () =
      let c = Webdep_stats.Sample.choose t.rng t.candidates in
      if c <> truth then c else pick ()
    in
    pick ()
