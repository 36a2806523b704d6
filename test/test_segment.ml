(* webdep_faults.Segment, the one on-disk format, and the two schemas
   on top of it: sweep checkpoint and epoch churn log.

   - the framing: atomic writes, appends, header refusal, CRC-32
     known answers;
   - one crash-point enumerator: every file is cut at every record
     boundary and in the middle of every record, and has one byte
     flipped per record; each load must keep a committed prefix and flag
     the damage;
   - one fuzzer over the reader, the payload codec and the checkpoint's
     record decoder: mutated or truncated bytes only ever produce the
     typed verdicts. *)

module Segment = Webdep_faults.Segment
module Checkpoint = Webdep_faults.Checkpoint
module Degrade = Webdep_faults.Degrade
module Log = Webdep_epoch.Log
module World = Webdep_worldgen.World
module Measure = Webdep_pipeline.Measure
module D = Webdep.Dataset

let temp_path () =
  let p = Filename.temp_file "webdep_segment_test" ".seg" in
  Sys.remove p;
  p

(* Every record of a file with header "H1", newest first. *)
let collect path =
  Segment.fold ~path
    ~init:(fun h -> if h = "H1" then Some [] else None)
    ~f:(fun acc p -> Some (p :: acc))

(* --- framing --------------------------------------------------------------- *)

let test_crc32_known_answers () =
  Alcotest.(check int) "check value" 0xCBF43926 (Segment.crc32 "123456789");
  Alcotest.(check int) "empty" 0 (Segment.crc32 "");
  Alcotest.(check int) "pangram" 0x414FA339
    (Segment.crc32 "The quick brown fox jumps over the lazy dog")

(* The byte-at-a-time CRC-32 that [Segment.crc32] reads eight bytes at a
   time: the reference the property below holds it to. *)
let crc32_bytewise s =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFF in
  String.iter (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8)) s;
  !c lxor 0xFFFFFFFF

(* Lengths 0-300 cover every length mod 8, so every tail the eight-byte
   loop leaves to the byte loop. *)
let qcheck_crc32_bytewise =
  QCheck.Test.make ~count:500 ~name:"crc32 = byte-at-a-time reference"
    QCheck.(string_gen_of_size Gen.(int_range 0 300) Gen.char)
    (fun s -> Segment.crc32 s = crc32_bytewise s)

let test_roundtrip () =
  let path = temp_path () in
  let records = [ "one"; ""; String.make 70000 'x' ] in
  Segment.write ~path ~header:"H1" records;
  (match collect path with
  | Segment.Folded { acc; torn } ->
      Alcotest.(check (list string)) "records round-trip" records (List.rev acc);
      Alcotest.(check bool) "not torn" false torn
  | _ -> Alcotest.fail "expected Folded");
  Segment.append ~path [ "four"; "five" ];
  (match collect path with
  | Segment.Folded { acc; torn = false } ->
      Alcotest.(check (list string)) "appended" (records @ [ "four"; "five" ]) (List.rev acc)
  | _ -> Alcotest.fail "expected Folded after append");
  Alcotest.(check (option string)) "last record" (Some "five") (Segment.last ~path ~len:4);
  Alcotest.(check (option string)) "last, wrong length" None (Segment.last ~path ~len:3);
  (* No stray temp files left behind by the atomic write. *)
  let dir = Filename.dirname path and base = Filename.basename path in
  Array.iter
    (fun f ->
      if String.length f > String.length base && String.sub f 0 (String.length base) = base
      then Alcotest.fail ("stray temp file " ^ f))
    (Sys.readdir dir);
  Sys.remove path

let test_torn_tail () =
  let path = temp_path () in
  Segment.write ~path ~header:"H1" [ "one"; "two" ];
  (* A kill mid-append: a record frame whose payload never arrived. *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\x00\x00\x00\x10\x00\x00\x00\x00half";
  close_out oc;
  (match collect path with
  | Segment.Folded { acc; torn } ->
      Alcotest.(check (list string)) "intact prefix kept" [ "one"; "two" ] (List.rev acc);
      Alcotest.(check bool) "reported torn" true torn
  | _ -> Alcotest.fail "expected Folded with torn tail");
  Alcotest.(check (option string)) "no intact last record" None (Segment.last ~path ~len:4);
  (* A callback refusing a record stops the fold the same way. *)
  Segment.write ~path ~header:"H1" [ "one"; "bad"; "three" ];
  (match
     Segment.fold ~path ~init:(fun _ -> Some []) ~f:(fun acc p ->
         if p = "bad" then raise (Segment.Malformed "bad") else Some (p :: acc))
   with
  | Segment.Folded { acc = [ "one" ]; torn = true } -> ()
  | _ -> Alcotest.fail "a refused record must stop the fold");
  Sys.remove path

let test_header_mismatch_and_absent () =
  let path = temp_path () in
  (match collect path with Segment.No_file -> () | _ -> Alcotest.fail "expected No_file");
  Segment.write ~path ~header:"H2" [ "one" ];
  (match collect path with
  | Segment.Header_mismatch -> ()
  | _ -> Alcotest.fail "expected Header_mismatch");
  (* A file of the previous JSON-lines formats has no intact header. *)
  Frames.write path "{\"schema\":\"webdep-store/1\"}\n";
  (match collect path with
  | Segment.Header_mismatch -> ()
  | _ -> Alcotest.fail "a JSON-lines file must be refused");
  Frames.write path "";
  (match collect path with
  | Segment.Header_mismatch -> ()
  | _ -> Alcotest.fail "an empty file must be refused");
  Sys.remove path

(* A length prefix of 0xFFFFFFFF is refused before any buffer for it is
   allocated, in a record frame and in a codec count alike. *)
let test_huge_length_does_not_allocate () =
  let path = temp_path () in
  Segment.write ~path ~header:"H1" [ "one"; "two" ];
  let full = Frames.read path in
  let b = Array.of_list (Frames.boundaries full) in
  let poison at =
    let s = Bytes.of_string full in
    Bytes.set_int32_be s at 0xFFFFFFFFl;
    Frames.write path (Bytes.to_string s)
  in
  let allocated f =
    let before = Gc.allocated_bytes () in
    let v = f () in
    (v, Gc.allocated_bytes () -. before)
  in
  poison b.(1);
  (match allocated (fun () -> collect path) with
  | Segment.Folded { acc = []; torn = true }, bytes ->
      Alcotest.(check bool) (Printf.sprintf "record: %.0f bytes allocated" bytes) true
        (bytes < 1e6)
  | _ -> Alcotest.fail "expected a torn fold");
  poison 0;
  (match allocated (fun () -> collect path) with
  | Segment.Header_mismatch, bytes ->
      Alcotest.(check bool) (Printf.sprintf "header: %.0f bytes allocated" bytes) true
        (bytes < 1e6)
  | _ -> Alcotest.fail "expected Header_mismatch");
  Sys.remove path;
  let refused payload get =
    match Segment.decode payload get with
    | () -> Alcotest.fail "a huge count must be refused"
    | exception Segment.Malformed _ -> ()
  in
  refused "\xff\xff\xff\xff" (fun cur -> ignore (Segment.get_strs cur));
  refused "\x00\x00\xff\xff\xff\xff" (fun cur -> ignore (Segment.get_sites cur))

(* --- crash-point enumerator ---------------------------------------------- *)

let fixture =
  lazy
    (let countries = [ "US"; "DE"; "BR" ] in
     let world = World.create ~c:60 ~seed:2024 () in
     let ds23 = Measure.measure_all ~countries world in
     let ds25 = Measure.measure_all ~epoch:World.May_2025 ~countries world in
     (ds23, ds25))

(* [full] itself, then for each record: a cut at its start, a cut in its
   middle, and its middle byte flipped.  [intact] counts the records
   before the damage, header included; [boundary] marks a clean cut,
   which leaves a shorter well-formed file. *)
type damage = { bytes : string; intact : int; boundary : bool; what : string }

let damages full =
  let b = Array.of_list (Frames.boundaries full) in
  let n = Array.length b - 1 in
  let cut at = String.sub full 0 at in
  let at i what bytes boundary =
    { bytes; intact = i; boundary; what = Printf.sprintf "%s record %d" what i }
  in
  { bytes = full; intact = n; boundary = true; what = "intact" }
  :: List.concat
       (List.init n (fun i ->
            let mid = (b.(i) + b.(i + 1)) / 2 in
            [
              at i "cut before" (cut b.(i)) true;
              at i "cut inside" (cut mid) false;
              at i "byte flipped in" (Frames.flip full mid) false;
            ]))

let take n l = List.filteri (fun i _ -> i < n) l

let for_each_damage path f =
  let full = Frames.read path in
  List.iter
    (fun d ->
      Frames.write path d.bytes;
      f d)
    (damages full);
  Sys.remove path

(* Log: records are the header, one base record per country, the base
   commit, then per epoch its churn records and commit.  A load keeps
   exactly the epochs whose commit lies before the damage, and flags the
   damage unless the cut fell just after a commit. *)
let test_enumerate_log () =
  let ds23, ds25 = Lazy.force fixture in
  let base = List.map (D.country_exn ds23) (D.countries ds23) in
  let donors =
    List.map (fun cc -> (cc, Array.of_list (D.country_exn ds25 cc).D.sites)) (D.countries ds25)
  in
  let events =
    Webdep_epoch.Synth.generate ~seed:5 ~fraction:0.1 ~epochs:3 ~base_epoch:0 ~base ~donors
  in
  let path = temp_path () in
  Log.create ~path ~meta:[ ("seed", Webdep_json.Int 5) ] ~base_epoch:0 ~base ();
  List.iter (fun (ev : Log.event) -> Log.append ~path ~epoch:ev.Log.epoch ev.Log.changes) events;
  (* For each record, the number of events committed once it is read
     (None until the baseline commits) and whether it is a commit. *)
  let kinds =
    ((None, false) :: List.map (fun _ -> (None, false)) base)
    @ [ (Some 0, true) ]
    @ List.concat
        (List.mapi
           (fun i (ev : Log.event) ->
             List.map (fun _ -> (Some i, false)) ev.Log.changes @ [ (Some (i + 1), true) ])
           events)
  in
  for_each_damage path (fun d ->
      let committed, at_commit =
        if d.intact = 0 then (None, false) else List.nth kinds (d.intact - 1)
      in
      match (Log.load ~path, committed) with
      | Log.Mismatch _, None -> ()
      | Log.Loaded log, Some k ->
          Alcotest.(check int) (d.what ^ ": head") k log.Log.head;
          Alcotest.(check bool) (d.what ^ ": committed prefix") true
            (log.Log.base = base && log.Log.events = take k events
            && log.Log.meta = [ ("seed", Webdep_json.Int 5) ]);
          Alcotest.(check bool) (d.what ^ ": damage flagged") (not (d.boundary && at_commit))
            log.Log.dropped
      | _ -> Alcotest.fail (d.what ^ ": unexpected verdict"))

(* A country's ids as a measuring lane hands them over, on the
   fixture's domains: every column varied, and every ninth site under
   one of two TLDs the world has no id for. *)
let lane_ids (cd : D.country_data) =
  let domains = Array.of_list (List.map (fun (s : D.site) -> s.D.domain) cd.D.sites) in
  let w = D.world_ids ~country:cd.D.country domains in
  Array.iteri
    (fun i _ ->
      let set (col : D.ids) v = col.{i} <- Int32.of_int v in
      set w.D.w_hosting (i mod 7);
      set w.D.w_dns (i mod 5);
      set w.D.w_ca (i mod 3);
      set w.D.w_tld (if i mod 9 = 0 then -1 - (i mod 2) else 1 + (i mod 4));
      w.D.w_aux.{i} <-
        D.pack_aux ~hgeo:(i mod 6) ~nsgeo:(i mod 4) ~lang:(i mod 11) ~hany:(i mod 2 = 0)
          ~nany:(i mod 3 = 0))
    domains;
  let tail j = { D.name = Printf.sprintf "Tail-%s-%d" cd.D.country j; country = "US" } in
  { w with D.w_other_tlds = [| tail 1; tail 2 |] }

let any_ids _ = true

(* Checkpoint: reopening resumes exactly the intact (epoch, country)
   shards, of both epochs alike, and leaves a file with no torn tail.
   Damage inside the header record leaves no checkpoint header to
   recognize the file by, so it is refused and keeps its bytes (a crash
   cannot cause it: the header is written through a temp file and a
   rename); an empty file starts fresh. *)
let test_enumerate_checkpoint () =
  let ds23, ds25 = Lazy.force fixture in
  let entries =
    List.concat_map
      (fun (epoch, ds) ->
        List.mapi
          (fun i cc ->
            {
              Checkpoint.epoch;
              tally = { Degrade.clean = 40 - i; degraded = i; failed = 1 };
              ids = lane_ids (D.country_exn ds cc);
            })
          (D.countries ds))
      [ ("2023-05", ds23); ("2025-05", ds25) ]
  in
  let meta = [ ("seed", Webdep_json.Int 1) ] in
  let path = temp_path () in
  let cp = Checkpoint.open_ ~path ~meta in
  List.iter (Checkpoint.record cp) entries;
  for_each_damage path (fun d ->
      let header_damaged = d.intact = 0 && d.bytes <> "" in
      match Checkpoint.open_ ~path ~meta with
      | exception Checkpoint.Not_a_checkpoint p ->
          Alcotest.(check bool) (d.what ^ ": refused only for a damaged header") true
            header_damaged;
          Alcotest.(check string) (d.what ^ ": refusal names the file") path p;
          Alcotest.(check bool) (d.what ^ ": bytes untouched") true (Frames.read path = d.bytes)
      | cp -> (
          Alcotest.(check bool) (d.what ^ ": a damaged header is not overwritten") false
            header_damaged;
          let resumed = max 0 (d.intact - 1) in
          List.iteri
            (fun i (e : Checkpoint.entry) ->
              let cc = e.Checkpoint.ids.D.w_country in
              Alcotest.(check bool)
                (Printf.sprintf "%s: entry %s %s" d.what e.Checkpoint.epoch cc)
                true
                (Checkpoint.find cp ~epoch:e.Checkpoint.epoch ~fits:any_ids cc
                = if i < resumed then Some e else None))
            entries;
          match Segment.fold ~path ~init:(fun _ -> Some 0) ~f:(fun n _ -> Some (n + 1)) with
          | Segment.Folded { acc; torn = false } ->
              Alcotest.(check int) (d.what ^ ": records kept") resumed acc
          | _ -> Alcotest.fail (d.what ^ ": reopened file still damaged")))

(* --- fuzzing -------------------------------------------------------------- *)

let gen_site =
  let open QCheck.Gen in
  let str = string_size ~gen:printable (int_range 0 6) in
  let entity = map2 (fun name country -> { D.name; country }) str str in
  str >>= fun domain ->
  opt entity >>= fun hosting ->
  opt entity >>= fun dns ->
  opt entity >>= fun ca ->
  entity >>= fun tld ->
  opt str >>= fun hosting_geo ->
  opt str >>= fun ns_geo ->
  opt str >>= fun language ->
  bool >>= fun hosting_anycast ->
  bool >|= fun ns_anycast ->
  {
    D.domain;
    hosting;
    dns;
    ca;
    tld;
    hosting_geo;
    ns_geo;
    hosting_anycast;
    ns_anycast;
    language;
  }

type mutation = Flip of int | Truncate of int | Poison of int

let gen_mutation =
  QCheck.Gen.(
    oneof
      [ map (fun i -> Flip i) nat; map (fun i -> Truncate i) nat; map (fun i -> Poison i) nat ])

let mutate s = function
  | Flip i -> if s = "" then s else Frames.flip s (i mod String.length s)
  | Truncate i -> String.sub s 0 (i mod (String.length s + 1))
  | Poison i ->
      if String.length s < 4 then s
      else
        let b = Bytes.of_string s in
        Bytes.set_int32_be b (i mod (String.length s - 3)) 0xFFFFFFFFl;
        Bytes.to_string b

let print_mutation = function
  | Flip i -> Printf.sprintf "flip %d" i
  | Truncate i -> Printf.sprintf "truncate %d" i
  | Poison i -> Printf.sprintf "poison %d" i

(* Site lists round-trip exactly, and mutated encodings decode to a site
   list or Malformed, nothing else. *)
let qcheck_codec =
  QCheck.Test.make ~count:300 ~name:"site codec: exact round-trip, typed failure on mutation"
    QCheck.(
      make
        ~print:(fun (sites, m) ->
          Printf.sprintf "%d sites, %s" (List.length sites) (print_mutation m))
        Gen.(pair (list_size (int_range 0 8) gen_site) gen_mutation))
    (fun (sites, m) ->
      let b = Buffer.create 256 in
      Segment.add_sites b sites;
      let enc = Buffer.contents b in
      Segment.decode enc Segment.get_sites = sites
      &&
      match Segment.decode (mutate enc m) Segment.get_sites with
      | _ -> true
      | exception Segment.Malformed _ -> true)

(* Mutated segment files fold to a typed verdict whose records are a
   prefix of what was written, never an exception. *)
let qcheck_fold =
  QCheck.Test.make ~count:300 ~name:"fold: mutated files give a typed verdict over a prefix"
    QCheck.(
      make
        ~print:(fun (rs, m) ->
          Printf.sprintf "%d records, %s" (List.length rs) (print_mutation m))
        Gen.(pair (list_size (int_range 0 6) (string_size (int_range 0 40))) gen_mutation))
    (fun (records, m) ->
      let path = temp_path () in
      Segment.write ~path ~header:"H1" records;
      Frames.write path (mutate (Frames.read path) m);
      let verdict = collect path in
      Sys.remove path;
      match verdict with
      | Segment.No_file -> false
      | Segment.Header_mismatch -> true
      | Segment.Folded { acc; torn = _ } -> List.rev acc = take (List.length acc) records)

(* Checkpoints of both epochs: a mutated file opens to a subset of the
   entries written.  The CRC stops mutated bytes before the record
   decoder sees them, so the same mutation is also applied to one
   record's payload and the file rewritten with valid CRCs: the decoder
   then answers an absence or an entry of the key asked for.  Neither
   raises, except that a file whose header record the mutation damaged
   may be refused as not a checkpoint, and then keeps its bytes. *)
let gen_entry =
  let open QCheck.Gen in
  let str = string_size ~gen:printable (int_range 0 6) in
  oneofl [ "2023-05"; "2025-05" ] >>= fun epoch ->
  oneofl [ "US"; "DE"; "BR" ] >>= fun country ->
  array_size (int_range 0 4) str >>= fun domains ->
  let n = Array.length domains in
  let column = array_size (return n) ui32 in
  quad column column column column >>= fun (hosting, dns, ca, tld) ->
  array_size (return n) int >>= fun aux ->
  array_size (int_range 0 2) (map2 (fun name country -> { D.name; country }) str str)
  >>= fun w_other_tlds ->
  triple (int_bound 1000) (int_bound 1000) (int_bound 1000) >|= fun (clean, degraded, failed) ->
  let w = D.world_ids ~country domains in
  let fill (col : D.ids) = Array.iteri (fun i v -> col.{i} <- v) in
  fill w.D.w_hosting hosting;
  fill w.D.w_dns dns;
  fill w.D.w_ca ca;
  fill w.D.w_tld tld;
  Array.iteri (fun i v -> w.D.w_aux.{i} <- v) aux;
  { Checkpoint.epoch; tally = { Degrade.clean; degraded; failed }; ids = { w with D.w_other_tlds } }

let qcheck_checkpoint =
  QCheck.Test.make ~count:300 ~name:"checkpoint: mutated files open to a subset of the entries"
    QCheck.(
      make
        ~print:(fun (es, m, in_payload) ->
          Printf.sprintf "%d entries, %s%s" (List.length es) (print_mutation m)
            (if in_payload then " in one payload" else ""))
        Gen.(triple (list_size (int_range 0 6) gen_entry) gen_mutation bool))
    (fun (entries, m, in_payload) ->
      let path = temp_path () in
      let meta = [ ("seed", Webdep_json.Int 1) ] in
      List.iter (Checkpoint.record (Checkpoint.open_ ~path ~meta)) entries;
      let header =
        match Segment.fold ~path ~init:Option.some ~f:(fun h _ -> Some h) with
        | Segment.Folded { acc; _ } -> acc
        | Segment.No_file | Segment.Header_mismatch -> ""
      in
      (if in_payload then
         match
           Segment.fold ~path
             ~init:(fun h -> Some (h, []))
             ~f:(fun (h, rs) r -> Some (h, r :: rs))
         with
         | Segment.Folded { acc = header, (_ :: _ as rev); torn = false } ->
             let records = List.rev rev in
             let k = (match m with Flip i | Truncate i | Poison i -> i) mod List.length records in
             Segment.write ~path ~header
               (List.mapi (fun i r -> if i = k then mutate r m else r) records)
         | _ -> ()
       else Frames.write path (mutate (Frames.read path) m));
      let mutated = Frames.read path in
      match Checkpoint.open_ ~path ~meta with
      | exception Checkpoint.Not_a_checkpoint p ->
          let header_damaged =
            match
              Segment.fold ~path
                ~init:(fun h -> if h = header then Some () else None)
                ~f:(fun () _ -> Some ())
            with
            | Segment.Folded _ -> false
            | Segment.No_file | Segment.Header_mismatch -> true
          in
          let untouched = Frames.read path = mutated in
          Sys.remove path;
          p = path && untouched && header_damaged && not in_payload
      | cp ->
          Sys.remove path;
          List.for_all
            (fun (e : Checkpoint.entry) ->
              let cc = e.Checkpoint.ids.D.w_country in
              match Checkpoint.find cp ~epoch:e.Checkpoint.epoch ~fits:any_ids cc with
              | None -> true
              | Some got when in_payload ->
                  got.Checkpoint.epoch = e.Checkpoint.epoch && got.Checkpoint.ids.D.w_country = cc
              | Some got -> List.mem got entries)
            entries)

let () =
  Webdep_obs.Reporter.setup ~level:Logs.Error ();
  Alcotest.run "webdep_segment"
    [
      ( "segment",
        [
          Alcotest.test_case "crc32 known answers" `Quick test_crc32_known_answers;
          QCheck_alcotest.to_alcotest qcheck_crc32_bytewise;
          Alcotest.test_case "atomic write round-trip" `Quick test_roundtrip;
          Alcotest.test_case "torn tail recovery" `Quick test_torn_tail;
          Alcotest.test_case "header mismatch / absent" `Quick test_header_mismatch_and_absent;
          Alcotest.test_case "0xFFFFFFFF length does not allocate" `Quick
            test_huge_length_does_not_allocate;
        ] );
      ( "crash points",
        [
          Alcotest.test_case "epoch log" `Quick test_enumerate_log;
          Alcotest.test_case "checkpoint" `Quick test_enumerate_checkpoint;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest qcheck_codec;
          QCheck_alcotest.to_alcotest qcheck_fold;
          QCheck_alcotest.to_alcotest qcheck_checkpoint;
        ] );
    ]
