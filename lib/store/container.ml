(* The self-describing container file: a magic tag, a format version, a
   section table (name, payload length, CRC-32), then the payloads in
   table order.

     offset 0   "FOCSTORE"               8 bytes, magic
            8   format version           int
           16   section count            int
           24   per section: name (str), payload length (int), crc (int)
            .   header CRC-32            int, over bytes [0, here)
            .   payloads, concatenated in table order

   Readers validate everything before touching a payload: magic, version,
   table bounds against the real file size, the header's own CRC-32 (the
   section CRCs cover only the payloads — without it a flipped bit in a
   section *name* would read back as a well-formed container with a
   different table), and each section's CRC-32.
   Any mismatch — including a file truncated mid-payload or flipped bits
   anywhere — yields [Error], never an exception, so callers can fall
   back to a full rebuild. Writers go through a temp file + [rename] so a
   crash mid-write can never replace a valid container with a torn one. *)

let magic = "FOCSTORE"
let format_version = 2

let encode sections =
  let w = Wire.writer () in
  Buffer.add_string w magic;
  Wire.put_int w format_version;
  Wire.put_int w (List.length sections);
  List.iter
    (fun (name, payload) ->
      Wire.put_string w name;
      Wire.put_int w (String.length payload);
      Wire.put_int w
        (Wire.crc32 payload ~pos:0 ~len:(String.length payload)))
    sections;
  let hdr = Buffer.length w in
  Wire.put_int w (Wire.crc32 (Buffer.contents w) ~pos:0 ~len:hdr);
  List.iter (fun (_, payload) -> Buffer.add_string w payload) sections;
  Wire.contents w

let write path sections =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (encode sections);
      flush oc);
  Sys.rename tmp path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let decode data =
  let r = Wire.reader data in
  if Wire.remaining r < String.length magic then
    Wire.corrupt "file shorter than magic";
  let m = String.sub data 0 (String.length magic) in
  if m <> magic then Wire.corrupt "bad magic %S" m;
  r.Wire.pos <- String.length magic;
  let v = Wire.get_int r in
  if v <> format_version then
    Wire.corrupt "unsupported format version %d (expected %d)" v
      format_version;
  let n = Wire.get_len r ~per:24 in
  let table =
    List.init n (fun _ ->
        let name = Wire.get_string r in
        let len = Wire.get_int r in
        let crc = Wire.get_int r in
        if len < 0 then Wire.corrupt "negative section length for %S" name;
        (name, len, crc))
  in
  let hdr = r.Wire.pos in
  let hdr_crc = Wire.get_int r in
  if Wire.crc32 data ~pos:0 ~len:hdr <> hdr_crc then
    Wire.corrupt "header checksum mismatch";
  let sections =
    List.map
      (fun (name, len, crc) ->
        if Wire.remaining r < len then
          Wire.corrupt "section %S truncated: %d bytes missing" name
            (len - Wire.remaining r);
        let pos = r.Wire.pos in
        let actual = Wire.crc32 data ~pos ~len in
        if actual <> crc then
          Wire.corrupt "section %S checksum mismatch (%08x vs %08x)" name
            actual crc;
        r.Wire.pos <- pos + len;
        (name, Wire.reader ~pos ~len data))
      table
  in
  Wire.expect_end r;
  sections

(* each payload as a reader over its window of the file, not a copy *)
let read path =
  match decode (read_file path) with
  | sections -> Ok sections
  | exception Wire.Corrupt e -> Error e
  | exception Sys_error e -> Error e
  | exception End_of_file -> Error "unexpected end of file"

(* section table without payload verification-by-copy — for [info]: name,
   length, and whether the checksum holds *)
let table path =
  match read_file path with
  | exception Sys_error e -> Error e
  | exception End_of_file -> Error "unexpected end of file"
  | data -> (
      match
        let r = Wire.reader data in
        if
          String.length data < String.length magic
          || String.sub data 0 (String.length magic) <> magic
        then Wire.corrupt "bad magic";
        r.Wire.pos <- String.length magic;
        let v = Wire.get_int r in
        if v <> format_version then Wire.corrupt "format version %d" v;
        let n = Wire.get_len r ~per:24 in
        let table =
          List.init n (fun _ ->
              let name = Wire.get_string r in
              let len = Wire.get_int r in
              let crc = Wire.get_int r in
              (name, len, crc))
        in
        let hdr = r.Wire.pos in
        let hdr_crc = Wire.get_int r in
        if Wire.crc32 data ~pos:0 ~len:hdr <> hdr_crc then
          Wire.corrupt "header checksum mismatch";
        List.map
          (fun (name, len, crc) ->
            let ok =
              len >= 0
              && Wire.remaining r >= len
              && Wire.crc32 data ~pos:r.Wire.pos ~len = crc
            in
            if len >= 0 && Wire.remaining r >= len then
              r.Wire.pos <- r.Wire.pos + len
            else r.Wire.pos <- r.Wire.limit;
            (name, len, ok))
          table
      with
      | t -> Ok t
      | exception Wire.Corrupt e -> Error e)
