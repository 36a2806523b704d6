(* Byte-level access to segment files, for tests that cut or corrupt a
   persisted file at exact record offsets.  A record is framed as
   [u32 len][u32 crc][payload], big-endian. *)

let read path = In_channel.with_open_bin path In_channel.input_all

let write path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* The start offset of every record, then the file length: record [i]
   spans [List.nth b i, List.nth b (i + 1)). *)
let boundaries s =
  let rec go off acc =
    if off >= String.length s then List.rev (String.length s :: acc)
    else go (off + 8 + (Int32.to_int (String.get_int32_be s off) land 0xFFFFFFFF)) (off :: acc)
  in
  go 0 []

(* [s] with one byte XOR-ed. *)
let flip s at =
  let b = Bytes.of_string s in
  Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x40));
  Bytes.to_string b
