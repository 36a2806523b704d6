(* Tests for webdep_serve: qcheck round-trips of the wire protocol
   (encode ∘ decode = id, truncated frames rejected), the framing layer,
   the JSON debug representation, golden wire and JSON-lines bytes,
   [State]'s answer tables against the per-request reference in
   [State_reference], the response cache and its two-generation bound,
   and socket-level integration — daemon answers byte-identical to
   [State.answer] for every query kind, load shedding past the admission
   queue, JSON-lines debug mode and its line cap, requests too wide for
   the wire format, and clean shutdown. *)

module P = Webdep_serve.Protocol
module State = Webdep_serve.State
module Server = Webdep_serve.Server
module Client = Webdep_serve.Client
module Chaos = Webdep_serve.Chaos
module Supervisor = Webdep_serve.Supervisor
module FP = Webdep_faults.Fault_plan
module Wire = Webdep_faults.Wire
module World = Webdep_worldgen.World
module Measure = Webdep_pipeline.Measure
module D = Webdep.Dataset

(* --- generators --------------------------------------------------------- *)

let layer_gen = QCheck.Gen.oneofl [ D.Hosting; D.Dns; D.Ca; D.Tld ]

(* Epoch names on the wire are free-form strings; stick to
   canonical-stable ones (the JSON codec normalizes "2023" -> "2023-05",
   which would break round-trip equality). *)
let epoch_gen = QCheck.Gen.oneofl [ "2023-05"; "2025-05"; "e3"; "e17" ]

let cc_gen =
  QCheck.Gen.(
    oneof
      [ oneofl [ "US"; "DE"; "JP"; "BR"; "IN"; "ZA" ];
        map (String.make 2) (char_range 'A' 'Z');
        small_string ~gen:printable ])

let k_gen = QCheck.Gen.int_range 1 0xffff

let request_gen =
  QCheck.Gen.(
    oneof
      [ return P.Ping;
        return P.Shutdown;
        map3
          (fun epoch layer country -> P.Score { epoch; layer; country })
          epoch_gen layer_gen cc_gen;
        (let* epoch = epoch_gen in
         let* layer = layer_gen in
         let* country = cc_gen in
         let* k = k_gen in
         return (P.Top_shares { epoch; layer; country; k }));
        map3 (fun epoch layer k -> P.Ranking { epoch; layer; k }) epoch_gen layer_gen k_gen;
        (let* layer = layer_gen in
         let* country = cc_gen in
         let* old_epoch = epoch_gen in
         let* new_epoch = epoch_gen in
         return (P.Delta { layer; country; old_epoch; new_epoch }));
        return P.Epochs ])

let float_gen = QCheck.Gen.float

let response_gen =
  QCheck.Gen.(
    oneof
      [ return P.Pong;
        return P.Overloaded;
        return P.Bye;
        return P.Draining;
        map (fun msg -> P.Error msg) (small_string ~gen:printable);
        map3 (fun s hhi insularity -> P.Scores { s; hhi; insularity }) float_gen float_gen
          float_gen;
        map
          (fun items ->
            P.Shares
              (List.map (fun ((provider, home), share) -> { P.provider; home; share }) items))
          (small_list (pair (pair (small_string ~gen:printable) cc_gen) float_gen));
        map (fun items -> P.Ranks items) (small_list (pair cc_gen float_gen));
        (let* old_epoch = epoch_gen in
         let* new_epoch = epoch_gen in
         let* old_s = float_gen in
         let* new_s = float_gen in
         let* delta = float_gen in
         return (P.Deltas { old_epoch; new_epoch; old_s; new_s; delta }));
        map (fun names -> P.Epoch_list names) (small_list epoch_gen) ])

let request_arb = QCheck.make ~print:(fun r -> Webdep_json.to_string (P.request_to_json r)) request_gen
let response_arb = QCheck.make ~print:(fun r -> Webdep_json.to_string (P.response_to_json r)) response_gen

(* NaN-tolerant structural equality: encoded floats round-trip
   bit-exactly, but [=] on NaN is false. *)
let float_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let response_eq a b =
  match (a, b) with
  | P.Scores a, P.Scores b ->
      float_eq a.s b.s && float_eq a.hhi b.hhi && float_eq a.insularity b.insularity
  | P.Shares a, P.Shares b ->
      List.length a = List.length b
      && List.for_all2
           (fun (x : P.share) (y : P.share) ->
             String.equal x.provider y.provider
             && String.equal x.home y.home
             && float_eq x.share y.share)
           a b
  | P.Ranks a, P.Ranks b ->
      List.length a = List.length b
      && List.for_all2
           (fun (c1, s1) (c2, s2) -> String.equal c1 c2 && float_eq s1 s2)
           a b
  | P.Deltas a, P.Deltas b ->
      String.equal a.old_epoch b.old_epoch
      && String.equal a.new_epoch b.new_epoch
      && float_eq a.old_s b.old_s && float_eq a.new_s b.new_s && float_eq a.delta b.delta
  | a, b -> a = b

(* --- protocol round-trips ----------------------------------------------- *)

let qcheck_request_roundtrip =
  QCheck.Test.make ~count:500 ~name:"request encode/decode round-trip" request_arb
    (fun req ->
      match P.decode_request (P.encode_request req) with
      | Ok req' -> req = req'
      | Error _ -> false)

let qcheck_response_roundtrip =
  QCheck.Test.make ~count:500 ~name:"response encode/decode round-trip" response_arb
    (fun resp ->
      match P.decode_response (P.encode_response resp) with
      | Ok resp' -> response_eq resp resp'
      | Error _ -> false)

let qcheck_truncated_rejected =
  QCheck.Test.make ~count:200 ~name:"every strict payload prefix is rejected"
    request_arb (fun req ->
      let payload = P.encode_request req in
      let ok = ref true in
      for n = 0 to String.length payload - 1 do
        match P.decode_request (String.sub payload 0 n) with
        | Ok _ -> ok := false
        | Error _ -> ()
      done;
      (* Trailing garbage is rejected too. *)
      (match P.decode_request (payload ^ "\x00") with
      | Ok _ -> ok := false
      | Error _ -> ());
      !ok)

let qcheck_json_roundtrip =
  QCheck.Test.make ~count:300 ~name:"JSON debug representation round-trips"
    request_arb (fun req ->
      P.request_of_json_string (Webdep_json.to_string (P.request_to_json req)) = Ok req)

(* --- golden bytes ----------------------------------------------------------- *)

(* The wire layout and the JSON-lines rendering, pinned byte for byte.
   The round-trip properties above still pass when encoder and decoder
   change together; these do not. *)
let hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let unhex h =
  String.init (String.length h / 2) (fun i -> Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let golden_requests =
  [ (P.Ping, "00", {|{"kind":"ping"}|});
    ( P.Score { epoch = "2023-05"; layer = D.Hosting; country = "US" },
      "010007323032332d30350000025553",
      {|{"kind":"score","epoch":"2023-05","layer":"hosting","country":"US"}|} );
    ( P.Top_shares { epoch = "2025-05"; layer = D.Dns; country = "DE"; k = 5 },
      "020007323032352d303501000244450005",
      {|{"kind":"topk","epoch":"2025-05","layer":"dns","country":"DE","k":5}|} );
    ( P.Ranking { epoch = "e7"; layer = D.Ca; k = 300 },
      "030002653702012c",
      {|{"kind":"ranking","epoch":"e7","layer":"ca","k":300}|} );
    ( P.Delta { layer = D.Tld; country = "BR"; old_epoch = "2023-05"; new_epoch = "e12" },
      "0403000242520007323032332d30350003653132",
      {|{"kind":"delta","layer":"tld","country":"BR","old_epoch":"2023-05","new_epoch":"e12"}|} );
    (P.Shutdown, "05", {|{"kind":"shutdown"}|});
    (P.Epochs, "06", {|{"kind":"epochs"}|}) ]

let golden_responses =
  [ (P.Pong, "00", {|{"kind":"pong"}|});
    ( P.Scores { s = Float.nan; hhi = 0.25; insularity = 0.75 },
      "017ff80000000000013fd00000000000003fe8000000000000",
      {|{"kind":"scores","s":null,"hhi":0.25,"insularity":0.75}|} );
    (P.Shares [], "020000", {|{"kind":"shares","shares":[]}|});
    ( P.Shares
        [ { P.provider = "Amazon"; home = "US"; share = 0.5 };
          { provider = "OVH"; home = "FR"; share = 0.25 };
          { provider = "Hetzner"; home = "DE"; share = 0.125 } ],
      "0200030006416d617a6f6e000255533fe000000000000000034f5648000246523fd00000000000000007\
       4865747a6e6572000244453fc0000000000000",
      {|{"kind":"shares","shares":[{"provider":"Amazon","home":"US","share":0.5},{"provider":"OVH","home":"FR","share":0.25},{"provider":"Hetzner","home":"DE","share":0.125}]}|}
    );
    (P.Ranks [], "030000", {|{"kind":"ranking","ranks":[]}|});
    ( P.Ranks [ ("RU", 0.75); ("BR", 0.5); ("US", 0.1358) ],
      "030003000252553fe8000000000000000242523fe0000000000000000255533fc161e4f765fd8b",
      {|{"kind":"ranking","ranks":[{"country":"RU","s":0.75},{"country":"BR","s":0.5},{"country":"US","s":0.1358}]}|}
    );
    ( P.Deltas
        { old_epoch = "2023-05"; new_epoch = "2025-05"; old_s = 0.5; new_s = 0.375; delta = -0.125 },
      "040007323032332d30350007323032352d30353fe00000000000003fd8000000000000bfc0000000000000",
      {|{"kind":"delta","old_epoch":"2023-05","new_epoch":"2025-05","old":0.5,"new":0.375,"delta":-0.125}|}
    );
    (P.Overloaded, "05", {|{"kind":"overloaded"}|});
    (P.Bye, "06", {|{"kind":"bye"}|});
    (P.Draining, "08", {|{"kind":"draining"}|});
    (P.Epoch_list [], "090000", {|{"kind":"epochs","epochs":[]}|});
    ( P.Epoch_list [ "2023-05"; "2025-05"; "e1" ],
      "0900030007323032332d30350007323032352d303500026531",
      {|{"kind":"epochs","epochs":["2023-05","2025-05","e1"]}|} );
    ( P.Error "no data for country XX",
      "0700166e6f206461746120666f7220636f756e747279205858",
      {|{"kind":"error","message":"no data for country XX"}|} ) ]

let test_golden_requests () =
  List.iter
    (fun (req, h, line) ->
      Alcotest.(check string) (line ^ ": bytes") h (hex (P.encode_request req));
      Alcotest.(check bool) (line ^ ": decodes") true (P.decode_request (unhex h) = Ok req);
      Alcotest.(check string) (line ^ ": JSON") line (Webdep_json.to_string (P.request_to_json req)))
    golden_requests

let test_golden_responses () =
  List.iter
    (fun (resp, h, line) ->
      Alcotest.(check string) (line ^ ": bytes") h (hex (P.encode_response resp));
      Alcotest.(check bool) (line ^ ": decodes") true
        (match P.decode_response (unhex h) with Ok r -> response_eq r resp | Error _ -> false);
      Alcotest.(check string) (line ^ ": JSON line") line
        (Webdep_json.to_string (P.response_to_json resp)))
    golden_responses

(* The lines a JSON-lines client sends: each pinned request line, plus
   the shorthand forms — "2023" names the 2023-05 epoch, and a delta
   without a range compares 2023-05 with 2025-05. *)
let test_golden_json_requests () =
  List.iter
    (fun (line, req) ->
      match P.request_of_json_string line with
      | Ok r -> Alcotest.(check string) line (hex (P.encode_request req)) (hex (P.encode_request r))
      | Error msg -> Alcotest.failf "%s: %s" line msg)
    (List.map (fun (req, _, line) -> (line, req)) golden_requests
    @ [ ( {|{"kind":"score","epoch":"2023","layer":"hosting","country":"US"}|},
          P.Score { epoch = "2023-05"; layer = D.Hosting; country = "US" } );
        ( {|{"kind":"delta","layer":"hosting","country":"BR"}|},
          P.Delta { layer = D.Hosting; country = "BR"; old_epoch = "2023-05"; new_epoch = "2025-05" } );
        ( {|{"kind":"delta","layer":"tld","country":"BR","old_epoch":"2023","new_epoch":"e12"}|},
          P.Delta { layer = D.Tld; country = "BR"; old_epoch = "2023-05"; new_epoch = "e12" } ) ])

(* Strings carry a u16 length: 65 535 bytes is the widest field. *)
let test_golden_string_limit () =
  let score epoch = P.Score { epoch; layer = D.Hosting; country = "US" } in
  Alcotest.(check int) "65 535-byte epoch encodes" 65543
    (String.length (P.encode_request (score (String.make 65535 'e'))));
  Alcotest.check_raises "65 536-byte epoch refused" (P.Protocol_error "u16 out of range: 65536")
    (fun () -> ignore (P.encode_request (score (String.make 65536 'e'))))

let test_framing () =
  let payloads = [ P.encode_request P.Ping; P.encode_request P.Shutdown; "xyz" ] in
  let stream = String.concat "" (List.map P.frame payloads) in
  let partial = String.sub stream 0 (String.length stream - 2) in
  let buf = Bytes.of_string partial in
  let got, consumed = P.parse_frames buf (Bytes.length buf) in
  Alcotest.(check (list string)) "partial stream yields only complete frames"
    [ List.nth payloads 0; List.nth payloads 1 ]
    got;
  Alcotest.(check bool) "consumed stops before the partial frame" true
    (consumed = String.length stream - 4 - 3);
  (* A corrupt length prefix is an error, not a silent desync. *)
  let bad = Bytes.of_string "\xff\xff\xff\xff rest" in
  Alcotest.check_raises "negative length rejected"
    (P.Protocol_error "bad frame length -1") (fun () ->
      ignore (P.parse_frames bad (Bytes.length bad)))

let test_parse_query () =
  let epoch = "2023" in
  (match P.parse_query ~epoch [ "score"; "hosting"; "us" ] with
  | Ok (P.Score { country = "US"; layer = D.Hosting; epoch = "2023-05" }) -> ()
  | _ -> Alcotest.fail "score query (epoch canonicalized)");
  (match P.parse_query ~epoch [ "epochs" ] with
  | Ok P.Epochs -> ()
  | _ -> Alcotest.fail "epochs query");
  (match P.parse_query ~epoch [ "delta"; "hosting"; "br" ] with
  | Ok (P.Delta { country = "BR"; old_epoch = "2023-05"; new_epoch = "2025-05"; _ }) -> ()
  | _ -> Alcotest.fail "delta defaults to the two measured epochs");
  (match P.parse_query ~epoch [ "delta"; "hosting"; "br"; "e2"; "e9" ] with
  | Ok (P.Delta { old_epoch = "e2"; new_epoch = "e9"; _ }) -> ()
  | _ -> Alcotest.fail "delta epoch range");
  (match P.parse_query ~epoch:"e7" [ "score"; "dns"; "de" ] with
  | Ok (P.Score { epoch = "e7"; _ }) -> ()
  | _ -> Alcotest.fail "churn-log epoch passes through");
  (match P.parse_query ~epoch [ "topk"; "dns"; "de"; "7" ] with
  | Ok (P.Top_shares { k = 7; layer = D.Dns; country = "DE"; _ }) -> ()
  | _ -> Alcotest.fail "topk query");
  (match P.parse_query ~epoch [ "bogus" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus accepted");
  match P.parse_query ~epoch [ "topk"; "dns"; "de"; "0" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "k = 0 accepted"

(* --- shared warm state --------------------------------------------------- *)

let test_countries = [ "US"; "DE"; "JP"; "BR" ]

let world = lazy (World.create ~c:60 ~seed:2024 ())

let datasets =
  lazy
    (let world = Lazy.force world in
     let ds23 = Measure.measure_all ~countries:test_countries world in
     let ds25 = Measure.measure_all ~epoch:World.May_2025 ~countries:test_countries world in
     [ ("2023-05", ds23); ("2025-05", ds25) ])

let state = lazy (State.make (Lazy.force datasets))

let sample_requests () =
  [ P.Ping;
    P.Epochs;
    P.Score { epoch = "2023-05"; layer = D.Hosting; country = "US" };
    P.Score { epoch = "2025-05"; layer = D.Ca; country = "DE" };
    P.Top_shares { epoch = "2023-05"; layer = D.Hosting; country = "JP"; k = 5 };
    P.Ranking { epoch = "2023-05"; layer = D.Dns; k = 4 };
    P.Delta
      { layer = D.Hosting; country = "BR";
        old_epoch = "2023-05"; new_epoch = "2025-05" };
    P.Score { epoch = "2023-05"; layer = D.Tld; country = "XX" } ]

let test_answer_kinds () =
  let st = Lazy.force state in
  (match State.answer st P.Ping with P.Pong -> () | _ -> Alcotest.fail "ping");
  (match State.answer st P.Epochs with
  | P.Epoch_list [ "2023-05"; "2025-05" ] -> ()
  | _ -> Alcotest.fail "epochs listing");
  (match State.answer st (P.Score { epoch = "2023-05"; layer = D.Hosting; country = "US" }) with
  | P.Scores { s; hhi; insularity } ->
      Alcotest.(check bool) "s finite" true (Float.is_finite s);
      Alcotest.(check bool) "hhi >= s" true (hhi >= s);
      Alcotest.(check bool) "insularity in [0,1]" true (insularity >= 0.0 && insularity <= 1.0)
  | _ -> Alcotest.fail "score");
  (match State.answer st (P.Top_shares { epoch = "2023-05"; layer = D.Hosting; country = "US"; k = 3 }) with
  | P.Shares shares ->
      Alcotest.(check int) "k shares" 3 (List.length shares);
      Alcotest.(check bool) "descending shares" true
        (let rec mono = function
           | (a : P.share) :: (b :: _ as rest) -> a.share >= b.share && mono rest
           | _ -> true
         in
         mono shares)
  | _ -> Alcotest.fail "topk");
  (match State.answer st (P.Ranking { epoch = "2023-05"; layer = D.Hosting; k = 10 }) with
  | P.Ranks ranks ->
      Alcotest.(check int) "all four countries ranked" 4 (List.length ranks)
  | _ -> Alcotest.fail "ranking");
  (match
     State.answer st
       (P.Delta
          { layer = D.Hosting; country = "US";
            old_epoch = "2023-05"; new_epoch = "2025-05" })
   with
  | P.Deltas { old_epoch = "2023-05"; new_epoch = "2025-05"; old_s; new_s; delta } ->
      Alcotest.(check (float 1e-12)) "delta = new - old" (new_s -. old_s) delta
  | _ -> Alcotest.fail "delta");
  (match State.answer st (P.Score { epoch = "2023-05"; layer = D.Hosting; country = "XX" }) with
  | P.Error _ -> ()
  | _ -> Alcotest.fail "unknown country must be an error");
  (* Unknown epoch: the error enumerates what is actually loaded. *)
  match State.answer st (P.Score { epoch = "e99"; layer = D.Hosting; country = "US" }) with
  | P.Error msg ->
      Alcotest.(check bool) "error lists loaded epochs" true
        (let has sub =
           let n = String.length sub and m = String.length msg in
           let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
           go 0
         in
         has "2023-05" && has "2025-05")
  | _ -> Alcotest.fail "unknown epoch must be an error"

(* Scores served from the warm tallies must be bit-identical to the cold
   per-dataset computation. *)
let test_answer_matches_cold () =
  let world = World.create ~c:60 ~seed:2024 () in
  let ds23 = Measure.measure_all ~countries:test_countries world in
  let st = Lazy.force state in
  List.iter
    (fun cc ->
      match
        State.answer st (P.Score { epoch = "2023-05"; layer = D.Hosting; country = cc })
      with
      | P.Scores { s; hhi; insularity } ->
          Alcotest.(check bool) "S bit-identical" true
            (float_eq s (Webdep.Metrics.centralization ds23 D.Hosting cc));
          Alcotest.(check bool) "HHI bit-identical" true
            (float_eq hhi
               (Webdep_emd.Centralization.hhi (D.distribution ds23 D.Hosting cc)));
          Alcotest.(check bool) "insularity bit-identical" true
            (float_eq insularity (Webdep.Regionalization.insularity ds23 D.Hosting cc))
      | _ -> Alcotest.fail ("score " ^ cc))
    test_countries

(* Scored (churn-log) epochs ride alongside the warm ones: score,
   ranking and delta answer from the per-country float tables; queries
   that need provider tallies error clearly instead of lying. *)
let test_scored_epochs () =
  let rows =
    [ ( "e2",
        [ ( D.Hosting,
            [ ("US", { State.s = 0.5; hhi = 0.6; insularity = 0.25 });
              ("DE", { State.s = 0.4; hhi = 0.5; insularity = 0.5 }) ] ) ] ) ]
  in
  let st = State.make ~scored:rows (Lazy.force datasets) in
  (match State.answer st P.Epochs with
  | P.Epoch_list names ->
      Alcotest.(check bool) "scored epoch listed" true (List.mem "e2" names)
  | _ -> Alcotest.fail "epochs");
  (match State.answer st (P.Score { epoch = "e2"; layer = D.Hosting; country = "US" }) with
  | P.Scores { s; hhi; insularity } ->
      Alcotest.(check (float 0.0)) "s" 0.5 s;
      Alcotest.(check (float 0.0)) "hhi" 0.6 hhi;
      Alcotest.(check (float 0.0)) "insularity" 0.25 insularity
  | _ -> Alcotest.fail "scored score");
  (match State.answer st (P.Ranking { epoch = "e2"; layer = D.Hosting; k = 10 }) with
  | P.Ranks [ ("US", 0.5); ("DE", 0.4) ] -> ()
  | _ -> Alcotest.fail "scored ranking");
  (match
     State.answer st
       (P.Delta
          { layer = D.Hosting; country = "US";
            old_epoch = "2023-05"; new_epoch = "e2" })
   with
  | P.Deltas { new_s = 0.5; old_s; delta; _ } ->
      Alcotest.(check (float 1e-12)) "mixed-epoch delta" (0.5 -. old_s) delta
  | _ -> Alcotest.fail "mixed warm/scored delta");
  match
    State.answer st (P.Top_shares { epoch = "e2"; layer = D.Hosting; country = "US"; k = 3 })
  with
  | P.Error msg ->
      Alcotest.(check bool) "topk on scored epoch explains itself" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "topk on a scored epoch must error"

(* --- byte-identity against the reference State ----------------------------- *)

(* [State] answers from tables built at start-up; [State_reference]
   recomputes every answer per request.  Built from the same inputs,
   they must encode the same reply for every request of an exhaustive
   grid.  The inputs reach the corners: the 2025 sweep covers a shifted
   country slice (a measured ranking ranks the first dataset's
   countries), scored epochs come from a 4-epoch churn-log replay, e2
   lacks two layers, two names repeat (the first one loaded wins), and
   the 2023 sweep gains AQ, whose sites have no CA label (no CA score,
   an empty CA top-k, and no place in the CA ranking) and every other
   one no DNS label (its DNS shares are over all its sites). *)
let grid_countries = [ "US"; "DE"; "JP"; "BR"; "IN"; "ZA" ]
let unlabelled_cc = "AQ"
let grid_countries_25 = [ "US"; "DE"; "JP"; "BR"; "IN"; "RU" ]

(* The grid's two sweeps and its 4-epoch churn log, built once. *)
let grid_sweeps_and_log =
  lazy
    (let world = World.create ~c:80 ~seed:2024 () in
     let ds23 = Measure.measure_all ~countries:grid_countries world in
     let ds25 = Measure.measure_all ~epoch:World.May_2025 ~countries:grid_countries_25 world in
     let base = List.map (D.country_exn ds23) (D.countries ds23) in
     let donors =
       List.map (fun cc -> (cc, Array.of_list (D.country_exn ds25 cc).D.sites)) (D.countries ds25)
     in
     let path = Filename.temp_file "webdep_serve_grid" ".log" in
     Webdep_epoch.Log.create ~path ~base_epoch:0 ~base ();
     List.iter
       (fun (ev : Webdep_epoch.Log.event) ->
         Webdep_epoch.Log.append ~path ~epoch:ev.epoch ev.changes)
       (Webdep_epoch.Synth.generate ~seed:2024 ~fraction:0.1 ~epochs:4 ~base_epoch:0 ~base ~donors);
     let log =
       match Webdep_epoch.Log.load ~path with
       | Webdep_epoch.Log.Loaded log -> log
       | _ -> Alcotest.fail "grid churn log did not load"
     in
     Sys.remove path;
     (ds23, ds25, log))

let grid_inputs () =
  let ds23, ds25, log = Lazy.force grid_sweeps_and_log in
  let scored = State.scored_of_log log in
  let scored =
    List.map
      (fun (name, rows) ->
        if name = "e2" then (name, List.filter (fun (l, _) -> l = D.Hosting || l = D.Dns) rows)
        else (name, rows))
      scored
    @ [ ("e1", List.assoc "e3" scored); ("2025-05", List.assoc "e4" scored) ]
  in
  let unlabelled =
    {
      D.country = unlabelled_cc;
      sites =
        List.mapi
          (fun i (s : D.site) -> { s with D.ca = None; dns = (if i mod 2 = 0 then None else s.D.dns) })
          (D.country_exn ds23 "ZA").D.sites;
    }
  in
  let ds23 =
    D.of_country_data (List.map (D.country_exn ds23) (D.countries ds23) @ [ unlabelled ])
  in
  ([ ("2023-05", ds23); ("2025-05", ds25) ], scored)

let test_state_matches_reference () =
  let datasets, scored = grid_inputs () in
  let st = State.make ~scored datasets in
  let rf = State_reference.make ~scored datasets in
  let epochs =
    List.sort_uniq String.compare (List.map fst datasets @ List.map fst scored) @ [ "e99"; "" ]
  in
  Alcotest.(check int) "7 loaded epochs and 2 unknown ones" 9 (List.length epochs);
  let countries =
    List.sort_uniq String.compare (unlabelled_cc :: grid_countries @ grid_countries_25)
    @ [ "XX"; "" ]
  in
  let n = List.length grid_countries in
  let ks = [ 0; 1; n; n + 1; 0xffff ] in
  let layers = [ D.Hosting; D.Dns; D.Ca; D.Tld ] in
  let per_layer f = List.concat_map f layers in
  let reqs =
    [ P.Ping; P.Shutdown; P.Epochs ]
    @ List.concat_map
        (fun epoch ->
          per_layer (fun layer ->
              List.map (fun k -> P.Ranking { epoch; layer; k }) ks
              @ List.concat_map
                  (fun country ->
                    P.Score { epoch; layer; country }
                    :: List.map (fun k -> P.Top_shares { epoch; layer; country; k }) ks)
                  countries))
        epochs
    @ per_layer (fun layer ->
          List.concat_map
            (fun country ->
              List.concat_map
                (fun old_epoch ->
                  List.map
                    (fun new_epoch -> P.Delta { layer; country; old_epoch; new_epoch })
                    epochs)
                epochs)
            countries)
  in
  let show q = Webdep_json.to_string (P.request_to_json q) in
  let differing =
    List.filter_map
      (fun q ->
        let got = P.encode_response (State.answer st q) in
        let want = P.encode_response (State_reference.answer rf q) in
        if String.equal got want then None
        else
          Some
            (Printf.sprintf "%s: %s <> %s" (show q)
               (String.trim (P.render (State.answer st q)))
               (String.trim (P.render (State_reference.answer rf q)))))
      reqs
  in
  Alcotest.(check int) "grid size" 5583 (List.length reqs);
  Alcotest.(check (list string)) "every reply equals the reference" [] differing;
  let reply q = P.encode_response (State.answer st q) in
  let epoch = "2023-05" and layer = D.Ca and country = unlabelled_cc in
  Alcotest.(check string) "unlabelled country has no CA score"
    (P.encode_response (P.Error "no data for country AQ"))
    (reply (P.Score { epoch; layer; country }));
  Alcotest.(check string) "unlabelled country's CA top-k is empty"
    (P.encode_response (P.Shares []))
    (reply (P.Top_shares { epoch; layer; country; k = 5 }));
  match State.answer st (P.Ranking { epoch; layer; k = 0xffff }) with
  | P.Ranks ranks ->
      Alcotest.(check bool) "unlabelled country left out of the CA ranking" false
        (List.mem_assoc unlabelled_cc ranks)
  | _ -> Alcotest.fail "CA ranking"

(* --- churn-log replay split by country ------------------------------------- *)

module Log = Webdep_epoch.Log

let with_jobs j f =
  Webdep_par.set_jobs j;
  Fun.protect ~finally:(fun () -> Webdep_par.set_jobs 2) f

(* The scored epochs as one sequential [Replay.replay ~observe] reads
   them, every float as its bits. *)
let sequential_scored log =
  let module R = Webdep_epoch.Replay in
  let acc = ref [] in
  let observe r =
    List.iter
      (fun l ->
        List.iter
          (fun cc ->
            match R.score r l cc with
            | s ->
                acc :=
                  Printf.sprintf "e%d %d %s %Lx %Lx %Lx" (R.epoch r) (P.layer_code l) cc
                    (Int64.bits_of_float s)
                    (Int64.bits_of_float (R.hhi r l cc))
                    (Int64.bits_of_float (R.insularity r l cc))
                  :: !acc
            | exception Not_found -> ())
          (R.countries r))
      [ D.Hosting; D.Dns; D.Ca; D.Tld ]
  in
  ignore (R.replay ~observe log);
  List.rev !acc

let show_scored scored =
  List.concat_map
    (fun (name, by_layer) ->
      List.concat_map
        (fun (l, rows) ->
          List.map
            (fun (cc, (r : State.score_row)) ->
              Printf.sprintf "%s %d %s %Lx %Lx %Lx" name (P.layer_code l) cc
                (Int64.bits_of_float r.State.s) (Int64.bits_of_float r.State.hhi)
                (Int64.bits_of_float r.State.insularity))
            rows)
        by_layer)
    scored

(* The grid log's baseline countries, first and last, and the log with
   [events] appended. *)
let grid_log_plus events =
  let _, _, log = Lazy.force grid_sweeps_and_log in
  let base = log.Log.base in
  let first = List.hd base and last = List.nth base (List.length base - 1) in
  let events = events first last in
  ( first,
    last,
    { log with
      Log.events = log.Log.events @ events;
      head = List.fold_left (fun h (ev : Log.event) -> max h ev.Log.epoch) log.Log.head events } )

(* A site of [cd]'s baseline under a new domain name. *)
let renamed (cd : D.country_data) domain = { (List.hd cd.D.sites) with D.domain }

(* The grid log plus three epochs in which some country groups have no
   records (e6 has none at all), and the same log with a baseline that
   lists its first country twice: split over 1, 2 and 4 lanes, every
   row is the sequential replay's, bit for bit. *)
let test_scored_split_matches_sequential () =
  let _, _, quiet =
    grid_log_plus (fun first last ->
        [ { Log.epoch = 5;
            changes =
              [ { Log.country = first.D.country; removed = [];
                  added = [ renamed first "quiet-e5.example" ] } ] };
          { Log.epoch = 6; changes = [] };
          { Log.epoch = 7;
            changes =
              [ { Log.country = first.D.country; removed = [ "quiet-e5.example" ]; added = [] };
                { Log.country = last.D.country; removed = [];
                  added = [ renamed last "quiet-e7.example" ] } ] } ])
  in
  let repeated = { quiet with Log.base = quiet.Log.base @ [ List.hd quiet.Log.base ] } in
  List.iter
    (fun (what, log, rows) ->
      let want = with_jobs 1 (fun () -> sequential_scored log) in
      Alcotest.(check int) (what ^ ": 8 epochs x 4 layers") (8 * 4 * rows) (List.length want);
      List.iter
        (fun j ->
          with_jobs j (fun () ->
              let got = State.scored_of_log log in
              Alcotest.(check (list string))
                (Printf.sprintf "%s: epoch names at --jobs %d" what j)
                (List.init 8 (Printf.sprintf "e%d"))
                (List.map fst got);
              Alcotest.(check (list string))
                (Printf.sprintf "%s: rows at --jobs %d" what j)
                want (show_scored got)))
        [ 1; 2; 4 ])
    [ ("quiet epochs", quiet, 6); ("repeated country", repeated, 7) ]

(* A record that does not apply raises the sequential replay's error at
   every lane count: here e5's first record (last country) and second
   (first country) both remove an absent domain, and the sequential
   replay stops at the first.  A country outside the baseline is
   refused, not filtered away. *)
let test_scored_error_jobs_invariant () =
  let _, last, bad =
    grid_log_plus (fun first last ->
        [ { Log.epoch = 5;
            changes =
              [ { Log.country = last.D.country; removed = [ "absent-last.example" ]; added = [] };
                { Log.country = first.D.country; removed = [ "absent-first.example" ];
                  added = [] } ] };
          { Log.epoch = 6; changes = [] } ])
  in
  let _, _, foreign =
    grid_log_plus (fun _ _ ->
        [ { Log.epoch = 5; changes = [ { Log.country = "ZZ"; removed = []; added = [] } ] } ])
  in
  List.iter
    (fun (log, want) ->
      List.iter
        (fun j ->
          with_jobs j (fun () ->
              match State.scored_of_log log with
              | _ -> Alcotest.failf "--jobs %d: an inconsistent log must be refused" j
              | exception Invalid_argument msg ->
                  Alcotest.(check string) (Printf.sprintf "error at --jobs %d" j) want msg))
        [ 1; 2; 4 ])
    [ ( bad,
        Printf.sprintf "Replay.apply: %s removes unknown domain absent-last.example"
          last.D.country );
      (foreign, "Replay.apply: unknown country ZZ") ]

(* --- engine cache -------------------------------------------------------- *)

let test_engine_cache () =
  let st = Lazy.force state in
  let eng = Server.engine st in
  let payload =
    P.encode_request (P.Score { epoch = "2023-05"; layer = D.Hosting; country = "US" })
  in
  let r1 = Server.answer_payload eng payload in
  Alcotest.(check int) "one cached entry" 1 (Server.cache_size eng);
  let r2 = Server.answer_payload eng payload in
  Alcotest.(check string) "cache hit is byte-identical" r1 r2;
  (* Shutdown is never cached. *)
  ignore (Server.answer_payload eng (P.encode_request P.Shutdown));
  Alcotest.(check int) "shutdown not cached" 1 (Server.cache_size eng)

(* The cache is two fixed-size generations: 3 x capacity distinct
   payloads leave at most 2 x capacity entries, and a key asked for again
   every capacity/2 requests keeps hitting. *)
let test_engine_cache_bounded () =
  let eng = Server.engine (Lazy.force state) in
  let cap = Server.cache_capacity in
  let distinct i =
    P.encode_request
      (P.Score { epoch = "2023-05"; layer = D.Hosting; country = Printf.sprintf "Z%07d" i })
  in
  let hot = P.encode_request (P.Score { epoch = "2023-05"; layer = D.Hosting; country = "US" }) in
  let hits () = Webdep_obs.Metrics.(value (counter "serve.cache.hits")) in
  let reply = Server.answer_payload eng hot in
  let missed = ref 0 and max_size = ref 0 in
  for i = 1 to 3 * cap do
    ignore (Server.answer_payload eng (distinct i));
    max_size := max !max_size (Server.cache_size eng);
    if i mod (cap / 2) = 0 then begin
      let before = hits () in
      Alcotest.(check string) "hot reply unchanged" reply (Server.answer_payload eng hot);
      if hits () <> before + 1 then incr missed
    end
  done;
  Alcotest.(check bool) "cache never above two generations" true (!max_size <= 2 * cap);
  Alcotest.(check bool) "cache did fill a generation" true (!max_size > cap);
  Alcotest.(check int) "key asked every cap/2 requests always hit" 0 !missed

let test_engine_batch_order_and_jobs () =
  let st = Lazy.force state in
  let payloads = List.map P.encode_request (sample_requests ()) in
  let eng = Server.engine st in
  List.iter2
    (fun payload reply ->
      match P.decode_request payload with
      | Ok req ->
          Alcotest.(check string) "batch reply = single answer"
            (P.encode_response (State.answer st req))
            reply
      | Error _ -> Alcotest.fail "sample payload must decode")
    payloads
    (List.map (Server.answer_payload eng) payloads)

(* --- socket integration --------------------------------------------------- *)

let temp_socket () =
  let path = Filename.temp_file "webdep_serve_test" ".sock" in
  Sys.remove path;
  path

let start_server ?(max_queue = 64) ?(drain_delay_s = 0.0) path =
  let st = Lazy.force state in
  let ready = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Server.run
          ~on_ready:(fun () -> Atomic.set ready true)
          (Server.config ~max_queue ~drain_delay_s path)
          st)
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Atomic.get ready)) && Unix.gettimeofday () < deadline do
    ignore (Unix.select [] [] [] 0.01)
  done;
  Alcotest.(check bool) "server came up" true (Atomic.get ready);
  d

let test_server_roundtrip () =
  let st = Lazy.force state in
  let path = temp_socket () in
  let d = start_server path in
  let cl = Client.connect path in
  List.iter
    (fun req ->
      let daemon = Client.request cl req in
      let local = State.answer st req in
      Alcotest.(check string)
        ("daemon = local for " ^ Webdep_json.to_string (P.request_to_json req))
        (P.render local) (P.render daemon);
      Alcotest.(check string) "and byte-identical on the wire"
        (P.encode_response local) (P.encode_response daemon))
    (List.filter (fun r -> r <> P.Shutdown) (sample_requests ()));
  (match Client.request cl P.Shutdown with
  | P.Bye -> ()
  | _ -> Alcotest.fail "shutdown must answer Bye");
  Domain.join d;
  Client.close cl;
  Alcotest.(check bool) "socket removed on clean shutdown" false (Sys.file_exists path)

let test_load_shedding () =
  let path = temp_socket () in
  (* 10ms batches behind a 4-deep admission queue: a pipelined flood
     must shed most of the intake with immediate Overloaded replies
     while every request still gets an answer. *)
  let d = start_server ~max_queue:4 ~drain_delay_s:0.01 path in
  let cl = Client.connect path in
  let flood = List.init 50 (fun _ -> P.Ping) in
  let t0 = Unix.gettimeofday () in
  let replies = Client.pipeline cl flood in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "every request answered" 50 (List.length replies);
  let shed = List.length (List.filter (fun r -> r = P.Overloaded) replies) in
  let served = List.length (List.filter (fun r -> r = P.Pong) replies) in
  Alcotest.(check int) "answered = served + shed" 50 (shed + served);
  Alcotest.(check bool) "load was shed" true (shed > 0);
  Alcotest.(check bool) "some requests still served" true (served > 0);
  (* Bounded latency: with ~45 shed instantly the admitted few drain in
     a batch or two, nowhere near the 500ms an unbounded queue would
     take. *)
  Alcotest.(check bool) "tail stayed bounded" true (elapsed < 0.45);
  (match Client.request cl P.Shutdown with
  | P.Bye -> ()
  | _ -> Alcotest.fail "shutdown after flood");
  Domain.join d;
  Client.close cl

let test_json_lines_mode () =
  let path = temp_socket () in
  let d = start_server path in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let line = {|{"kind":"ping"}|} ^ "\n" in
  let sent = Unix.write_substring fd line 0 (String.length line) in
  Alcotest.(check int) "line written" (String.length line) sent;
  let buf = Bytes.create 4096 in
  let n = Unix.read fd buf 0 4096 in
  let reply = Bytes.sub_string buf 0 n in
  Alcotest.(check string) "JSON-lines pong" "{\"kind\":\"pong\"}\n" reply;
  Unix.close fd;
  let cl = Client.connect path in
  (match Client.request cl P.Shutdown with P.Bye -> () | _ -> Alcotest.fail "bye");
  Client.close cl;
  Domain.join d

(* The message of a JSON-lines error reply. *)
let json_error line =
  match Webdep_json.parse line with
  | j -> (
      match (Webdep_json.member "kind" j, Webdep_json.member "message" j) with
      | Some (Webdep_json.String "error"), Some (Webdep_json.String msg) -> Some msg
      | _ -> None)
  | exception Webdep_json.Parse_error _ -> None

(* A JSON line the parser refuses — here a \u escape without four hex
   digits — gets an [error] reply, and the daemon keeps serving the
   connection. *)
let test_json_bad_escape () =
  let path = temp_socket () in
  let d = start_server path in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let lines = {|{"q":"\uZZZZ"}|} ^ "\n" ^ {|{"kind":"ping"}|} ^ "\n" in
  let sent = Unix.write_substring fd lines 0 (String.length lines) in
  Alcotest.(check int) "lines written" (String.length lines) sent;
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let newlines () = List.length (String.split_on_char '\n' (Buffer.contents buf)) - 1 in
  while newlines () < 2 do
    match Unix.read fd chunk 0 4096 with
    | 0 -> Alcotest.fail "connection closed early"
    | n -> Buffer.add_subbytes buf chunk 0 n
  done;
  Unix.close fd;
  (match String.split_on_char '\n' (Buffer.contents buf) with
  | err :: pong :: _ ->
      Alcotest.(check bool) ("error reply: " ^ err) true (json_error err <> None);
      Alcotest.(check string) "ping answered after it" {|{"kind":"pong"}|} pong
  | _ -> Alcotest.fail "two replies expected");
  let cl = Client.connect path in
  (match Client.request cl P.Shutdown with P.Bye -> () | _ -> Alcotest.fail "bye");
  Client.close cl;
  Domain.join d

(* A request whose answer cannot be framed — the unknown-epoch error
   echoes a 65 530-byte name past the u16 string limit; a JSON line's
   70 000-byte epoch cannot even be re-encoded as a request — gets a
   short error in both modes, and the connection stays usable. *)
let test_oversized_request () =
  let path = temp_socket () in
  let d = start_server path in
  let cl = Client.connect path in
  (match
     Client.request cl
       (P.Score { epoch = String.make 65530 'e'; layer = D.Hosting; country = "US" })
   with
  | P.Error msg -> Alcotest.(check bool) "binary: short error" true (String.length msg < 100)
  | r -> Alcotest.fail ("binary: expected an error, got " ^ String.trim (P.render r)));
  (match Client.request cl P.Ping with
  | P.Pong -> ()
  | _ -> Alcotest.fail "binary: ping after the oversized request");
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let lines =
    Printf.sprintf {|{"kind":"score","epoch":"%s","layer":"hosting","country":"US"}|}
      (String.make 70_000 'e')
    ^ "
" ^ {|{"kind":"ping"}|} ^ "
"
  in
  let sent = Unix.write_substring fd lines 0 (String.length lines) in
  Alcotest.(check int) "lines written" (String.length lines) sent;
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let newlines () = List.length (String.split_on_char '\n' (Buffer.contents buf)) - 1 in
  while newlines () < 2 do
    match Unix.read fd chunk 0 4096 with
    | 0 -> Alcotest.fail "json: connection closed early"
    | n -> Buffer.add_subbytes buf chunk 0 n
  done;
  Unix.close fd;
  (match String.split_on_char '\n' (Buffer.contents buf) with
  | err :: pong :: _ ->
      (match json_error err with
      | Some msg -> Alcotest.(check bool) "json: short error" true (String.length msg < 100)
      | None -> Alcotest.fail ("json: expected an error, got " ^ err));
      Alcotest.(check string) "json: ping on the same connection" {|{"kind":"pong"}|} pong
  | _ -> Alcotest.fail "json: two replies expected");
  (match Client.request cl P.Shutdown with P.Bye -> () | _ -> Alcotest.fail "bye");
  Client.close cl;
  Domain.join d

(* A JSON-lines connection that never sends a newline cannot grow the
   daemon's buffer without bound: past [Protocol.max_payload] pending
   bytes it gets one short error and the connection closes, and the
   daemon keeps serving others. *)
let test_json_line_cap () =
  let path = temp_socket () in
  let d = start_server path in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let flood = "{" ^ String.make (P.max_payload + 1) 'x' in
  (* The daemon may hang up before it has read every byte. *)
  (try ignore (Unix.write_substring fd flood 0 (String.length flood))
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec read_to_eof () =
    let left = deadline -. Unix.gettimeofday () in
    left > 0.0
    &&
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> false
    | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> true
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            read_to_eof ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true)
  in
  let closed = read_to_eof () in
  Unix.close fd;
  Alcotest.(check bool) "connection closed within 5 s" true closed;
  (match String.split_on_char '\n' (Buffer.contents buf) with
  | [ line; "" ] -> (
      match json_error line with
      | Some msg -> Alcotest.(check bool) "short error" true (String.length msg < 100)
      | None -> Alcotest.fail ("expected an error line, got " ^ line))
  | _ -> Alcotest.fail ("expected one reply line, got " ^ String.escaped (Buffer.contents buf)));
  let cl = Client.connect path in
  (match Client.request cl P.Ping with
  | P.Pong -> ()
  | r -> Alcotest.fail ("ping on a new connection: " ^ String.trim (P.render r)));
  (match Client.request cl P.Shutdown with P.Bye -> () | _ -> Alcotest.fail "bye");
  Client.close cl;
  Domain.join d

(* --- protocol fuzz: mutated and truncated bytes --------------------------- *)

(* The decoder's contract under hostile bytes: a clean [Error], never an
   unexpected exception, never accepting a mutant as some other valid
   request whose re-encoding it is not.  (Bit flips CAN produce another
   valid encoding — e.g. a flipped country byte — so acceptance is fine;
   what is checked is decode/encode consistency.) *)
let qcheck_mutation_fuzz =
  QCheck.Test.make ~count:1000 ~name:"mutated payloads never crash the decoder"
    QCheck.(triple request_arb small_nat small_nat)
    (fun (req, pos_seed, byte_seed) ->
      let payload = Bytes.of_string (P.encode_request req) in
      let len = Bytes.length payload in
      let pos = pos_seed mod len in
      Bytes.set payload pos
        (Char.chr ((Char.code (Bytes.get payload pos) + 1 + byte_seed) land 0xff));
      let mutant = Bytes.to_string payload in
      match P.decode_request mutant with
      | Error _ -> true
      | Ok req' -> String.equal (P.encode_request req') mutant
      | exception _ -> false)

(* Framing layer under a mutated stream: parse_frames either returns
   with a bounded consumed count or raises Protocol_error — nothing
   else — and never consumes past what it was given. *)
let qcheck_frame_fuzz =
  QCheck.Test.make ~count:500 ~name:"mutated frame streams never over-consume"
    QCheck.(triple (small_list request_arb) small_nat small_nat)
    (fun (reqs, pos_seed, cut_seed) ->
      let stream =
        String.concat "" (List.map (fun r -> P.frame (P.encode_request r)) reqs)
      in
      QCheck.assume (String.length stream > 0);
      let b = Bytes.of_string stream in
      let pos = pos_seed mod Bytes.length b in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x80));
      let keep = 1 + (cut_seed mod Bytes.length b) in
      match P.parse_frames b keep with
      | _, consumed -> consumed >= 0 && consumed <= keep
      | exception P.Protocol_error _ -> true
      | exception _ -> false)

(* --- checkpoint restart ----------------------------------------------------- *)

let answers st reqs = List.map (fun r -> P.encode_response (State.answer st r)) reqs

(* The daemon's start: both epochs swept through one checkpoint.  The
   first start writes every shard; a restart resumes all of them and
   answers with the bytes of the cold-measured fixture. *)
let test_checkpoint_restart () =
  let path = Filename.temp_file "webdep_serve_test" ".ckpt" in
  Sys.remove path;
  let start () =
    let sweeps =
      List.map
        (fun e ->
          ( World.epoch_name e,
            Measure.measure_sweep ~epoch:e ~countries:test_countries ~checkpoint:path
              (Lazy.force world) ))
        [ World.May_2023; World.May_2025 ]
    in
    ( State.make (List.map (fun (name, sw) -> (name, sw.Measure.dataset)) sweeps),
      List.concat_map
        (fun (_, sw) ->
          List.map (fun (cv : Measure.country_coverage) -> cv.resumed) sw.Measure.coverage)
        sweeps )
  in
  let _, first = start () in
  Alcotest.(check (list bool)) "first start resumed nothing" (List.init 8 (fun _ -> false))
    first;
  let st, resumed = start () in
  Sys.remove path;
  Alcotest.(check (list bool)) "restart resumed all 8 shards" (List.init 8 (fun _ -> true))
    resumed;
  Alcotest.(check (list string))
    "restarted state answers byte-identical"
    (answers (Lazy.force state) (sample_requests ()))
    (answers st (sample_requests ()))

(* --- graceful drain ------------------------------------------------------- *)

let test_drain () =
  let path = temp_socket () in
  let d = start_server path in
  let cl = Client.connect path in
  (match Client.request cl P.Ping with
  | P.Pong -> ()
  | _ -> Alcotest.fail "ping before drain");
  Server.request_drain ();
  (* The loop notices the drain within one select timeout; late requests
     are answered with Draining, not silence. *)
  let rec drain_reply n =
    match Client.request cl P.Ping with
    | P.Draining -> ()
    | P.Pong when n > 0 ->
        ignore (Unix.select [] [] [] 0.02);
        drain_reply (n - 1)
    | r ->
        Alcotest.fail
          ("expected draining, got " ^ String.trim (P.render r)
          ^ if n = 0 then " (drain never took effect)" else "")
  in
  drain_reply 100;
  Domain.join d;
  Client.close cl;
  Alcotest.(check bool) "socket removed after drain" false (Sys.file_exists path)

(* --- client retry budget -------------------------------------------------- *)

let test_client_call_retry () =
  let path = temp_socket () in
  (* No server: the budget must be exhausted, quickly and with an error. *)
  let t0 = Unix.gettimeofday () in
  (match Client.call ~max_retries:2 ~timeout_s:5.0 path P.Ping with
  | Ok _ -> Alcotest.fail "no server must not answer"
  | Error msg ->
      Alcotest.(check bool) "error mentions attempts" true
        (String.length msg > 0));
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "retries backed off but stayed bounded" true
    (elapsed < 4.0);
  (* Against a live server the same call succeeds. *)
  let d = start_server path in
  (match Client.call ~max_retries:2 ~timeout_s:5.0 path P.Ping with
  | Ok P.Pong -> ()
  | Ok r -> Alcotest.fail ("expected pong, got " ^ String.trim (P.render r))
  | Error msg -> Alcotest.fail ("live server call failed: " ^ msg));
  (* Draining replies are retried — and eventually reported, not hidden. *)
  let cl = Client.connect path in
  (match Client.request cl P.Shutdown with P.Bye -> () | _ -> Alcotest.fail "bye");
  Client.close cl;
  Domain.join d

(* --- wire chaos ----------------------------------------------------------- *)

let count_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_chaos_storm () =
  let st = Lazy.force state in
  let path = temp_socket () in
  let d = start_server path in
  (* Let the accept/close churn settle before taking the baseline. *)
  let warm = Client.connect path in
  (match Client.request warm P.Ping with P.Pong -> () | _ -> Alcotest.fail "warmup");
  Client.close warm;
  ignore (Unix.select [] [] [] 0.1);
  let fd_baseline = count_fds () in
  let plan = FP.make ~rate:0.6 ~seed:4242 () in
  let reqs = List.filter (fun r -> r <> P.Shutdown) (sample_requests ()) in
  let n = ref 0 and replies = ref 0 and injected = ref 0 and broken = ref [] in
  for i = 0 to 199 do
    let req = List.nth reqs (i mod List.length reqs) in
    let key = Printf.sprintf "chaos-%d" i in
    let act, out = Chaos.call plan ~key path req in
    incr n;
    match out with
    | Chaos.Reply resp ->
        incr replies;
        (* Any reply owed must be byte-identical to the local answer. *)
        (match act with
        | Wire.Clean | Wire.Partial_write | Wire.Delayed ->
            if
              not
                (String.equal
                   (P.encode_response resp)
                   (P.encode_response (State.answer st req)))
            then broken := (key ^ ": reply differs") :: !broken
        | _ -> ())
    | Chaos.Injected -> incr injected
    | Chaos.Refused msg -> broken := (key ^ ": refused: " ^ msg) :: !broken
    | Chaos.Broken msg -> broken := (key ^ ": " ^ msg) :: !broken
  done;
  Alcotest.(check (list string)) "no broken exchanges" [] !broken;
  Alcotest.(check bool) "storm injected faults" true (!injected > 30);
  Alcotest.(check bool) "storm still served replies" true (!replies > 30);
  (* The server survived: a clean query still answers correctly. *)
  let cl = Client.connect path in
  (match Client.request cl P.Ping with
  | P.Pong -> ()
  | _ -> Alcotest.fail "server broken after chaos storm");
  (* No fd leak: once the dead connections are reaped, the process is
     back to its baseline.  The one live verification connection counts
     twice — client end plus the server's accepted end, since the server
     domain shares this process. *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec settle () =
    let now_fds = count_fds () in
    if now_fds <= fd_baseline + 2 then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "fd leak: %d fds vs baseline %d" now_fds fd_baseline
    else begin
      ignore (Unix.select [] [] [] 0.05);
      settle ()
    end
  in
  settle ();
  (match Client.request cl P.Shutdown with P.Bye -> () | _ -> Alcotest.fail "bye");
  Client.close cl;
  Domain.join d

let test_chaos_deterministic_outcomes () =
  (* The planned action sequence is a pure function of (seed, key):
     replaying the keys yields the same taxonomy without any server. *)
  let p1 = FP.make ~rate:0.35 ~seed:99 () in
  let p2 = FP.make ~rate:0.35 ~seed:99 () in
  let keys = List.init 300 (fun i -> Printf.sprintf "k%d" i) in
  let acts p = List.map (fun k -> Wire.action_name (Wire.action_pure p ~key:k)) keys in
  Alcotest.(check (list string)) "same plan, same storm" (acts p1) (acts p2)

(* --- supervisor policy ---------------------------------------------------- *)

let test_supervisor_decide () =
  let policy =
    { Supervisor.default_policy with restart_limit = 3; window_s = 10.0 }
  in
  let now = 1000.0 in
  (* Old failures outside the window are forgotten. *)
  (match Supervisor.decide ~policy ~now [ now; 900.0; 800.0; 700.0 ] with
  | Supervisor.Restart d -> Alcotest.(check bool) "backoff positive" true (d >= 0.0)
  | Supervisor.Give_up -> Alcotest.fail "stale failures must not give up");
  (* More than restart_limit recent failures: give up. *)
  (match Supervisor.decide ~policy ~now [ now; now -. 1.0; now -. 2.0; now -. 3.0 ] with
  | Supervisor.Give_up -> ()
  | Supervisor.Restart _ -> Alcotest.fail "crash loop must give up");
  (* Backoff grows with the number of recent failures, deterministically. *)
  let delay fails =
    match Supervisor.decide ~policy ~now fails with
    | Supervisor.Restart d -> d
    | Supervisor.Give_up -> Alcotest.fail "unexpected give-up"
  in
  let d1 = delay [ now ] in
  let d2 = delay [ now; now -. 1.0 ] in
  let d3 = delay [ now; now -. 1.0; now -. 2.0 ] in
  Alcotest.(check bool) "exponential growth" true (d1 < d2 && d2 < d3);
  Alcotest.(check (float 1e-9)) "deterministic" d1 (delay [ now ])

(* --- suite ---------------------------------------------------------------- *)

let () =
  Webdep_par.set_jobs 2;
  Alcotest.run "webdep_serve"
    [
      ( "protocol",
        [
          QCheck_alcotest.to_alcotest qcheck_request_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_response_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_truncated_rejected;
          QCheck_alcotest.to_alcotest qcheck_json_roundtrip;
          Alcotest.test_case "framing" `Quick test_framing;
          Alcotest.test_case "query language" `Quick test_parse_query;
        ] );
      ( "golden",
        [
          Alcotest.test_case "request bytes" `Quick test_golden_requests;
          Alcotest.test_case "response bytes and JSON lines" `Quick test_golden_responses;
          Alcotest.test_case "JSON request lines" `Quick test_golden_json_requests;
          Alcotest.test_case "u16 string limit" `Quick test_golden_string_limit;
        ] );
      ( "state",
        [
          Alcotest.test_case "answer kinds" `Quick test_answer_kinds;
          Alcotest.test_case "warm = cold, bit-identical" `Quick test_answer_matches_cold;
          Alcotest.test_case "scored churn-log epochs" `Quick test_scored_epochs;
          Alcotest.test_case "split replay = sequential replay" `Quick
            test_scored_split_matches_sequential;
          Alcotest.test_case "inconsistent log, any jobs" `Quick
            test_scored_error_jobs_invariant;
          Alcotest.test_case "replies = reference State, exhaustive grid" `Quick
            test_state_matches_reference;
        ] );
      ( "engine",
        [
          Alcotest.test_case "cache and invalidation" `Quick test_engine_cache;
          Alcotest.test_case "batch order and jobs" `Quick test_engine_batch_order_and_jobs;
          Alcotest.test_case "cache bounded to two generations" `Quick test_engine_cache_bounded;
        ] );
      ( "server",
        [
          Alcotest.test_case "daemon = one-shot round-trip" `Quick test_server_roundtrip;
          Alcotest.test_case "load shedding" `Quick test_load_shedding;
          Alcotest.test_case "json-lines debug mode" `Quick test_json_lines_mode;
          Alcotest.test_case "bad \\u escape answered, loop survives" `Quick
            test_json_bad_escape;
          Alcotest.test_case "graceful drain" `Quick test_drain;
          Alcotest.test_case "oversized request answered, loop survives" `Quick
            test_oversized_request;
          Alcotest.test_case "JSON line past max_payload refused" `Quick test_json_line_cap;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest qcheck_mutation_fuzz;
          QCheck_alcotest.to_alcotest qcheck_frame_fuzz;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "restart answers byte-identical" `Quick
            test_checkpoint_restart;
        ] );
      ( "client",
        [ Alcotest.test_case "retry budget" `Quick test_client_call_retry ] );
      ( "chaos",
        [
          Alcotest.test_case "storm: no crash, no leak, exact replies" `Quick
            test_chaos_storm;
          Alcotest.test_case "verdicts deterministic" `Quick
            test_chaos_deterministic_outcomes;
        ] );
      ( "supervisor",
        [ Alcotest.test_case "crash-loop policy" `Quick test_supervisor_decide ] );
    ]
