(* Wire protocol of the dependence-query daemon.

   Frames are 4-byte big-endian length prefixes followed by a binary
   payload; requests and responses are tagged records with fixed-width
   integers, 64-bit IEEE-754 big-endian floats and u16-length-prefixed
   strings, so [encode ∘ decode = id] holds byte-for-byte and a
   truncated buffer is always rejected instead of misparsed. *)

module D = Webdep.Dataset
module World = Webdep_worldgen.World

exception Protocol_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Protocol_error msg)) fmt

(* --- message types ------------------------------------------------------ *)

(* Epochs travel as names (u16-length-prefixed strings), not enum codes:
   the serving plane is no longer limited to the two measured worlds —
   a churn-log replay registers one epoch per committed log entry. *)
type request =
  | Ping
  | Score of { epoch : string; layer : D.layer; country : string }
  | Top_shares of { epoch : string; layer : D.layer; country : string; k : int }
  | Ranking of { epoch : string; layer : D.layer; k : int }
  | Delta of {
      layer : D.layer;
      country : string;
      old_epoch : string;
      new_epoch : string;
    }
  | Shutdown
  | Epochs

type share = { provider : string; home : string; share : float }

type response =
  | Pong
  | Scores of { s : float; hhi : float; insularity : float }
  | Shares of share list
  | Ranks of (string * float) list
  | Deltas of {
      old_epoch : string;
      new_epoch : string;
      old_s : float;
      new_s : float;
      delta : float;
    }
  | Overloaded
  | Bye
  | Draining
  | Epoch_list of string list
  | Error of string

(* --- enum codes --------------------------------------------------------- *)

let layer_code = function D.Hosting -> 0 | D.Dns -> 1 | D.Ca -> 2 | D.Tld -> 3

let layer_of_code = function
  | 0 -> D.Hosting
  | 1 -> D.Dns
  | 2 -> D.Ca
  | 3 -> D.Tld
  | c -> fail "bad layer code %d" c

let epoch_of_name = function
  | "2023" | "2023-05" -> Some World.May_2023
  | "2025" | "2025-05" -> Some World.May_2025
  | _ -> None

(* Short forms of the two measured worlds normalize to their canonical
   names; anything else (a churn-log epoch like "e7") passes through
   verbatim and is resolved — or rejected with the loaded-epoch list —
   by the server. *)
let canonical_epoch name =
  match epoch_of_name name with
  | Some e -> World.epoch_name e
  | None -> name

(* --- binary encoding ---------------------------------------------------- *)

(* The payload codec is [Segment]'s: u8 tags, u16 counts and
   u16-length-prefixed strings, big-endian integers and IEEE-754 floats,
   and a cursor that refuses truncated and trailing bytes.  Its errors
   leave this module as [Protocol_error]. *)
module S = Webdep_faults.Segment

let encode f =
  let b = Buffer.create 64 in
  (try f b with Invalid_argument msg -> raise (Protocol_error msg));
  Buffer.contents b

let decode payload f =
  match S.decode payload f with
  | v -> Ok v
  | exception (S.Malformed msg | Protocol_error msg) -> Result.Error msg

let encode_request req =
  encode (fun b ->
      match req with
      | Ping -> S.add_u8 b 0
      | Score { epoch; layer; country } ->
          S.add_u8 b 1;
          S.add_str b epoch;
          S.add_u8 b (layer_code layer);
          S.add_str b country
      | Top_shares { epoch; layer; country; k } ->
          S.add_u8 b 2;
          S.add_str b epoch;
          S.add_u8 b (layer_code layer);
          S.add_str b country;
          S.add_u16 b k
      | Ranking { epoch; layer; k } ->
          S.add_u8 b 3;
          S.add_str b epoch;
          S.add_u8 b (layer_code layer);
          S.add_u16 b k
      | Delta { layer; country; old_epoch; new_epoch } ->
          S.add_u8 b 4;
          S.add_u8 b (layer_code layer);
          S.add_str b country;
          S.add_str b old_epoch;
          S.add_str b new_epoch
      | Shutdown -> S.add_u8 b 5
      | Epochs -> S.add_u8 b 6)

let decode_request payload =
  decode payload (fun cur ->
      match S.get_u8 cur with
      | 0 -> Ping
      | 1 ->
          let epoch = S.get_str cur in
          let layer = layer_of_code (S.get_u8 cur) in
          let country = S.get_str cur in
          Score { epoch; layer; country }
      | 2 ->
          let epoch = S.get_str cur in
          let layer = layer_of_code (S.get_u8 cur) in
          let country = S.get_str cur in
          let k = S.get_u16 cur in
          Top_shares { epoch; layer; country; k }
      | 3 ->
          let epoch = S.get_str cur in
          let layer = layer_of_code (S.get_u8 cur) in
          let k = S.get_u16 cur in
          Ranking { epoch; layer; k }
      | 4 ->
          let layer = layer_of_code (S.get_u8 cur) in
          let country = S.get_str cur in
          let old_epoch = S.get_str cur in
          let new_epoch = S.get_str cur in
          Delta { layer; country; old_epoch; new_epoch }
      | 5 -> Shutdown
      | 6 -> Epochs
      | t -> fail "bad request tag %d" t)

let encode_response resp =
  encode (fun b ->
      match resp with
      | Pong -> S.add_u8 b 0
      | Scores { s; hhi; insularity } ->
          S.add_u8 b 1;
          S.add_f64 b s;
          S.add_f64 b hhi;
          S.add_f64 b insularity
      | Shares shares ->
          S.add_u8 b 2;
          S.add_u16 b (List.length shares);
          List.iter
            (fun { provider; home; share } ->
              S.add_str b provider;
              S.add_str b home;
              S.add_f64 b share)
            shares
      | Ranks ranks ->
          S.add_u8 b 3;
          S.add_u16 b (List.length ranks);
          List.iter
            (fun (cc, s) ->
              S.add_str b cc;
              S.add_f64 b s)
            ranks
      | Deltas { old_epoch; new_epoch; old_s; new_s; delta } ->
          S.add_u8 b 4;
          S.add_str b old_epoch;
          S.add_str b new_epoch;
          S.add_f64 b old_s;
          S.add_f64 b new_s;
          S.add_f64 b delta
      | Overloaded -> S.add_u8 b 5
      | Bye -> S.add_u8 b 6
      | Error msg ->
          S.add_u8 b 7;
          S.add_str b msg
      | Draining -> S.add_u8 b 8
      | Epoch_list epochs ->
          S.add_u8 b 9;
          S.add_u16 b (List.length epochs);
          List.iter (S.add_str b) epochs)

let decode_response payload =
  decode payload (fun cur ->
      match S.get_u8 cur with
      | 0 -> Pong
      | 1 ->
          let s = S.get_f64 cur in
          let hhi = S.get_f64 cur in
          let insularity = S.get_f64 cur in
          Scores { s; hhi; insularity }
      | 2 ->
          let n = S.get_u16 cur in
          Shares
            (List.init n (fun _ ->
                 let provider = S.get_str cur in
                 let home = S.get_str cur in
                 let share = S.get_f64 cur in
                 { provider; home; share }))
      | 3 ->
          let n = S.get_u16 cur in
          Ranks
            (List.init n (fun _ ->
                 let cc = S.get_str cur in
                 let s = S.get_f64 cur in
                 (cc, s)))
      | 4 ->
          let old_epoch = S.get_str cur in
          let new_epoch = S.get_str cur in
          let old_s = S.get_f64 cur in
          let new_s = S.get_f64 cur in
          let delta = S.get_f64 cur in
          Deltas { old_epoch; new_epoch; old_s; new_s; delta }
      | 5 -> Overloaded
      | 6 -> Bye
      | 7 -> Error (S.get_str cur)
      | 8 -> Draining
      | 9 ->
          let n = S.get_u16 cur in
          Epoch_list (List.init n (fun _ -> S.get_str cur))
      | t -> fail "bad response tag %d" t)

(* --- framing ------------------------------------------------------------ *)

let max_payload = 1 lsl 24

let frame payload =
  let n = String.length payload in
  if n = 0 || n > max_payload then fail "bad frame length %d" n;
  let b = Buffer.create (n + 4) in
  Buffer.add_int32_be b (Int32.of_int n);
  Buffer.add_string b payload;
  Buffer.contents b

(* The payload of the frame at [buf.[off..stop)], once all of it has
   arrived.  The stream has no resynchronization point, so a corrupt
   length prefix fails the whole connection. *)
let next_frame buf off stop =
  if stop - off < 4 then None
  else
    let n = Int32.to_int (Bytes.get_int32_be buf off) in
    if n <= 0 || n > max_payload then fail "bad frame length %d" n
    else if stop - off < 4 + n then None
    else Some (Bytes.sub_string buf (off + 4) n)

(* --- query-language front end ------------------------------------------- *)

(* The positional syntax shared by [webdep query] (one-shot and
   [--connect] client): layer and country are words, k is a count, and
   delta optionally names an epoch range (defaulting to the paper's
   2023→2025 pair). *)
let parse_query ~epoch words =
  let epoch = canonical_epoch epoch in
  let layer = Webdep_reference.Paper_scores.layer_of_name in
  let int_arg what s =
    match int_of_string_opt s with
    | Some k when k >= 1 && k <= 0xffff -> Ok k
    | _ -> Result.Error (Printf.sprintf "bad %s %S (want 1..65535)" what s)
  in
  let ( let* ) = Result.bind in
  match words with
  | [ "ping" ] -> Ok Ping
  | [ "shutdown" ] -> Ok Shutdown
  | [ "epochs" ] -> Ok Epochs
  | [ "score"; l; cc ] ->
      let* layer = layer l in
      Ok (Score { epoch; layer; country = String.uppercase_ascii cc })
  | [ "topk"; l; cc; k ] ->
      let* layer = layer l in
      let* k = int_arg "k" k in
      Ok (Top_shares { epoch; layer; country = String.uppercase_ascii cc; k })
  | [ "ranking"; l; k ] ->
      let* layer = layer l in
      let* k = int_arg "k" k in
      Ok (Ranking { epoch; layer; k })
  | [ "delta"; l; cc ] ->
      let* layer = layer l in
      Ok
        (Delta
           {
             layer;
             country = String.uppercase_ascii cc;
             old_epoch = World.epoch_name World.May_2023;
             new_epoch = World.epoch_name World.May_2025;
           })
  | [ "delta"; l; cc; old_e; new_e ] ->
      let* layer = layer l in
      Ok
        (Delta
           {
             layer;
             country = String.uppercase_ascii cc;
             old_epoch = canonical_epoch old_e;
             new_epoch = canonical_epoch new_e;
           })
  | _ ->
      Result.Error
        "usage: ping | epochs | score LAYER CC | topk LAYER CC K | \
         ranking LAYER K | delta LAYER CC [OLD_EPOCH NEW_EPOCH] | shutdown"

(* Human rendering shared by the one-shot CLI and the [--connect]
   client, so daemon answers are byte-identical to local ones. *)
let render resp =
  let b = Buffer.create 256 in
  (match resp with
  | Pong -> Buffer.add_string b "pong\n"
  | Scores { s; hhi; insularity } ->
      Buffer.add_string b
        (Printf.sprintf "S = %.6f, HHI = %.6f, insularity = %.1f%%\n" s hhi
           (100.0 *. insularity))
  | Shares shares ->
      List.iteri
        (fun i { provider; home; share } ->
          Buffer.add_string b
            (Printf.sprintf "%-3d %-28s [%s] %6.2f%%\n" (i + 1) provider home
               (100.0 *. share)))
        shares
  | Ranks ranks ->
      List.iteri
        (fun i (cc, s) ->
          Buffer.add_string b (Printf.sprintf "%-3d %-4s %10.4f\n" (i + 1) cc s))
        ranks
  | Deltas { old_epoch; new_epoch; old_s; new_s; delta } ->
      Buffer.add_string b
        (Printf.sprintf "%s %.6f -> %s %.6f, delta %+.6f\n" old_epoch old_s
           new_epoch new_s delta)
  | Overloaded -> Buffer.add_string b "overloaded\n"
  | Bye -> Buffer.add_string b "bye\n"
  | Draining -> Buffer.add_string b "draining\n"
  | Epoch_list epochs ->
      List.iter (fun e -> Buffer.add_string b (e ^ "\n")) epochs
  | Error msg -> Buffer.add_string b (Printf.sprintf "error: %s\n" msg));
  Buffer.contents b
