(* The one on-disk segment format.  Every persisted file is a header
   record followed by payload records, each framed as
   [u32 len][u32 CRC-32(payload)][payload], big-endian.

   Crash safety comes from three rules, kept here once:

   - [write] never exposes a half-written file: temp file in the same
     directory, fsync, rename over the target;
   - [append] writes its records through one buffered channel, then
     flushes and fsyncs, so a kill mid-append leaves at worst a torn
     last record;
   - [fold] trusts a record only when its length fits in the file and
     its CRC matches, and stops at the first one that does not.  A bad
     record poisons everything after it (offsets are no longer
     trustworthy), so the reader never resyncs. *)

module D = Webdep.Dataset

type 'acc folded =
  | No_file
  | Header_mismatch
  | Folded of { acc : 'acc; torn : bool }

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

(* --- CRC-32 (IEEE, reflected), on native ints --------------------------- *)

(* Slicing-by-8: table [k] (entries [256 k .. 256 k + 255]) holds the
   CRC of a byte followed by [k] zero bytes, so eight bytes fold into
   the running value with eight lookups and no carried dependency
   between them.  Table 0 is the byte-at-a-time table. *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let prev = t.(i - 256) in
    t.(i) <- t.(prev land 0xff) lxor (prev lsr 8)
  done;
  t

(* The running value stays within 32 bits: table entries do, and the
   words read are masked to 32 bits.  Words are read little-endian
   whatever the host, which is the reflected CRC's byte order. *)
let crc32 s =
  let t = crc_tables in
  let n = String.length s in
  let c = ref 0xFFFFFFFF in
  let i = ref 0 in
  while !i + 8 <= n do
    let lo = !c lxor (Int32.to_int (String.get_int32_le s !i) land 0xFFFFFFFF) in
    let hi = Int32.to_int (String.get_int32_le s (!i + 4)) land 0xFFFFFFFF in
    c :=
      Array.unsafe_get t ((7 * 256) + (lo land 0xff))
      lxor Array.unsafe_get t ((6 * 256) + ((lo lsr 8) land 0xff))
      lxor Array.unsafe_get t ((5 * 256) + ((lo lsr 16) land 0xff))
      lxor Array.unsafe_get t ((4 * 256) + (lo lsr 24))
      lxor Array.unsafe_get t ((3 * 256) + (hi land 0xff))
      lxor Array.unsafe_get t ((2 * 256) + ((hi lsr 8) land 0xff))
      lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xff))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to n - 1 do
    c :=
      Array.unsafe_get t ((!c lxor Char.code (String.unsafe_get s j)) land 0xff)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* --- framing ------------------------------------------------------------- *)

let output_record oc payload =
  let len = String.length payload in
  if len > 0xFFFFFFFF then invalid_arg "Segment: record larger than 4 GiB";
  let h = Bytes.create 8 in
  Bytes.set_int32_be h 0 (Int32.of_int len);
  Bytes.set_int32_be h 4 (Int32.of_int (crc32 payload));
  output_bytes oc h;
  output_string oc payload

let u32_at s off = Int32.to_int (String.get_int32_be s off) land 0xFFFFFFFF

type next = End | Record of string | Torn

(* The next record at the channel's position.  [size - pos] is what is
   left of the file: a length prefix beyond it is refused before any
   payload buffer is allocated. *)
let next_record ic size =
  let left = size - pos_in ic in
  if left = 0 then End
  else if left < 8 then Torn
  else
    let h = really_input_string ic 8 in
    let len = u32_at h 0 in
    if len > left - 8 then Torn
    else
      let payload = really_input_string ic len in
      if crc32 payload <> u32_at h 4 then Torn else Record payload

let fold ~path ~init ~f =
  if not (Sys.file_exists path) then No_file
  else if Sys.is_directory path then raise (Sys_error (path ^ ": Is a directory"))
  else begin
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let size = in_channel_length ic in
    let rec go acc =
      match next_record ic size with
      | End -> Folded { acc; torn = false }
      | Torn -> Folded { acc; torn = true }
      | Record payload -> (
          match f acc payload with
          | Some acc -> go acc
          | None | (exception Malformed _) -> Folded { acc; torn = true })
    in
    match next_record ic size with
    | End | Torn -> Header_mismatch
    | Record header -> (
        match init header with
        | Some acc -> go acc
        | None | (exception Malformed _) -> Header_mismatch)
  end

(* The temp name carries the pid so two writers cannot collide on it;
   rename within one directory is atomic. *)
let write ~path ~header records =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  (try
     output_record oc header;
     List.iter (output_record oc) records;
     flush oc;
     Unix.fsync (Unix.descr_of_out_channel oc);
     close_out oc
   with exn ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise exn);
  Unix.rename tmp path

let append ~path records =
  let oc = open_out_gen [ Open_append; Open_wronly; Open_binary ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter (output_record oc) records;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc))

let last ~path ~len =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let at = in_channel_length ic - 8 - len in
  if at < 0 then None
  else begin
    seek_in ic at;
    let s = really_input_string ic (8 + len) in
    let payload = String.sub s 8 len in
    if u32_at s 0 = len && u32_at s 4 = crc32 payload then Some payload else None
  end

(* --- payload encoders ---------------------------------------------------- *)

let add_u8 b v = Buffer.add_uint8 b (v land 0xff)

let add_u16 b v =
  if v < 0 || v > 0xFFFF then invalid_arg (Printf.sprintf "u16 out of range: %d" v);
  Buffer.add_uint16_be b v

let add_u32 b v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg (Printf.sprintf "u32 out of range: %d" v);
  Buffer.add_int32_be b (Int32.of_int v)

let add_int b v = Buffer.add_int64_be b (Int64.of_int v)
let add_f64 b v = Buffer.add_int64_be b (Int64.bits_of_float v)

let add_str b s =
  add_u16 b (String.length s);
  Buffer.add_string b s

let add_strs b l =
  add_u32 b (List.length l);
  List.iter (add_str b) l

(* --- payload decoders ---------------------------------------------------- *)

type cursor = { data : string; mutable off : int }

(* The offset of the next [n] bytes, which the cursor then moves past. *)
let take cur n =
  if n > String.length cur.data - cur.off then malformed "truncated payload";
  let off = cur.off in
  cur.off <- off + n;
  off

let get_u8 cur = String.get_uint8 cur.data (take cur 1)
let get_u16 cur = String.get_uint16_be cur.data (take cur 2)
let get_u32 cur = u32_at cur.data (take cur 4)
let get_int cur = Int64.to_int (String.get_int64_be cur.data (take cur 8))
let get_f64 cur = Int64.float_of_bits (String.get_int64_be cur.data (take cur 8))

let get_str cur =
  let n = get_u16 cur in
  String.sub cur.data (take cur n) n

(* A count prefix, bounded by the bytes left: every element takes at
   least one, so a larger count is corrupt and is refused before the
   reader loops on it. *)
let get_count cur =
  let n = get_u32 cur in
  if n > String.length cur.data - cur.off then malformed "count %d exceeds payload" n;
  n

(* [List.init] leaves evaluation order unspecified; cursor reads must be
   strictly sequential. *)
let read_list n f =
  let rec go acc i = if i = n then List.rev acc else go (f () :: acc) (i + 1) in
  go [] 0

let get_strs cur = read_list (get_count cur) (fun () -> get_str cur)

let peek data f = f { data; off = 0 }

let decode data f =
  let cur = { data; off = 0 } in
  let v = f cur in
  if cur.off <> String.length data then malformed "trailing bytes";
  v

(* --- site-list codec ----------------------------------------------------- *)

(* Entity names, country codes, geo labels and language tags repeat
   across sites, so a site list carries its own string table (ids in
   first-use order) and sites reference it; domains are unique and stay
   raw.  Optional fields use id + 1, with 0 for [None]. *)
module Str_tbl = Hashtbl.Make (String)

type table = { ids : int Str_tbl.t; mutable rev : string list; mutable n : int }

let intern t s =
  match Str_tbl.find_opt t.ids s with
  | Some id -> id
  | None ->
      let id = t.n in
      Str_tbl.add t.ids s id;
      t.rev <- s :: t.rev;
      t.n <- id + 1;
      id

let add_sites b sites =
  let t = { ids = Str_tbl.create 64; rev = []; n = 0 } in
  (* Intern while encoding the sites, so the table can precede them. *)
  let body = Buffer.create (32 * List.length sites) in
  let opt_str = function None -> add_u16 body 0 | Some s -> add_u16 body (intern t s + 1) in
  let opt_entity = function
    | None -> add_u16 body 0
    | Some (e : D.entity) ->
        add_u16 body (intern t e.D.name + 1);
        add_u16 body (intern t e.D.country)
  in
  add_u32 body (List.length sites);
  List.iter
    (fun (s : D.site) ->
      add_str body s.D.domain;
      opt_entity s.D.hosting;
      opt_entity s.D.dns;
      opt_entity s.D.ca;
      add_u16 body (intern t s.D.tld.D.name);
      add_u16 body (intern t s.D.tld.D.country);
      opt_str s.D.hosting_geo;
      opt_str s.D.ns_geo;
      opt_str s.D.language;
      add_u8 body
        ((if s.D.hosting_anycast then 1 else 0) lor if s.D.ns_anycast then 2 else 0))
    sites;
  add_u16 b t.n;
  List.iter (add_str b) (List.rev t.rev);
  Buffer.add_buffer b body

let get_sites cur =
  let strings = Array.of_list (read_list (get_u16 cur) (fun () -> get_str cur)) in
  let str id =
    if id >= Array.length strings then malformed "string id %d out of table" id;
    strings.(id)
  in
  let opt_str () = match get_u16 cur with 0 -> None | id -> Some (str (id - 1)) in
  let opt_entity () =
    match get_u16 cur with
    | 0 -> None
    | id ->
        let name = str (id - 1) in
        Some { D.name; country = str (get_u16 cur) }
  in
  read_list (get_count cur) (fun () ->
      let domain = get_str cur in
      let hosting = opt_entity () in
      let dns = opt_entity () in
      let ca = opt_entity () in
      let tld_name = str (get_u16 cur) in
      let tld_country = str (get_u16 cur) in
      let hosting_geo = opt_str () in
      let ns_geo = opt_str () in
      let language = opt_str () in
      let flags = get_u8 cur in
      {
        D.domain;
        hosting;
        dns;
        ca;
        tld = { D.name = tld_name; country = tld_country };
        hosting_geo;
        ns_geo;
        hosting_anycast = flags land 1 <> 0;
        ns_anycast = flags land 2 <> 0;
        language;
      })
