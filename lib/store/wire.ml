(* Low-level binary codec for the persistent store: a Buffer-based writer
   and a bounds-checked string reader, plus the CRC-32 every container
   section and WAL record is guarded by.

   Scalar integers are fixed 8-byte little-endian two's complement (OCaml
   ints round-trip exactly). An int array is its length, one byte giving
   the narrowest width in {1, 2, 4, 8} that holds every element signed,
   then the elements at that width: element ids, offsets and counts are
   small, so the arrays that dominate a snapshot shrink 2-8x, and with
   them the bytes the loader checksums and reads. Strings are
   length-prefixed. Decoding NEVER trusts a length field: every
   read is checked against the remaining bytes and malformed input raises
   {!Corrupt}, which the container/WAL layers turn into a clean fallback
   (rebuild / replay-up-to-last-valid-record) — a torn or bit-flipped file
   must not be able to crash or over-allocate the loader. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* ---------------- CRC-32 (IEEE 802.3, poly 0xEDB88320) ---------------- *)

(* Slicing-by-8: eight 256-entry tables, flattened, [k*256 + b] being
   the CRC of byte [b] followed by [k] zero bytes. The inner loop folds
   eight input bytes per step with eight independent lookups; the values
   are those of the one-byte-at-a-time algorithm, which finishes the
   tail. *)
let crc_tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
       done
     done;
     t)

(* [crc32 s ~pos ~len] of a substring; the running value stays within 32
   bits (63-bit native ints make the masks cheap). *)
let crc32 s ~pos ~len =
  let t = Lazy.force crc_tables in
  let c = ref 0xFFFFFFFF in
  let i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let lo = Int32.to_int (String.get_int32_le s !i) land 0xFFFFFFFF in
    let hi = Int32.to_int (String.get_int32_le s (!i + 4)) land 0xFFFFFFFF in
    let lo = lo lxor !c in
    c :=
      Array.unsafe_get t ((7 * 256) + (lo land 0xFF))
      lxor Array.unsafe_get t ((6 * 256) + ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get t ((5 * 256) + ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get t ((4 * 256) + (lo lsr 24))
      lxor Array.unsafe_get t ((3 * 256) + (hi land 0xFF))
      lxor Array.unsafe_get t ((2 * 256) + ((hi lsr 8) land 0xFF))
      lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xFF))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to stop - 1 do
    c := t.((!c lxor Char.code (String.unsafe_get s j)) land 0xFF)
         lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* ---------------- writer ---------------- *)

type writer = Buffer.t

let writer () = Buffer.create 4096
let contents (w : writer) = Buffer.contents w
let put_int w v = Buffer.add_int64_le w (Int64.of_int v)

let put_string w s =
  put_int w (String.length s);
  Buffer.add_string w s

(* bytes per element: the narrowest signed width holding all of [a] *)
let width a =
  let lo = Array.fold_left min 0 a and hi = Array.fold_left max 0 a in
  if lo >= -0x80 && hi < 0x80 then 1
  else if lo >= -0x8000 && hi < 0x8000 then 2
  else if lo >= -0x8000_0000 && hi < 0x8000_0000 then 4
  else 8

let put_int_array w a =
  let k = width a in
  put_int w (Array.length a);
  Buffer.add_uint8 w k;
  match k with
  | 1 -> Array.iter (Buffer.add_int8 w) a
  | 2 -> Array.iter (Buffer.add_int16_le w) a
  | 4 -> Array.iter (fun v -> Buffer.add_int32_le w (Int32.of_int v)) a
  | _ -> Array.iter (put_int w) a

let put_int_list w l = put_int_array w (Array.of_list l)

(* ---------------- reader ---------------- *)

type reader = { data : string; mutable pos : int; limit : int }

let reader ?(pos = 0) ?len data =
  let limit =
    match len with Some l -> pos + l | None -> String.length data
  in
  if pos < 0 || limit > String.length data || pos > limit then
    corrupt "reader: window [%d, %d) outside %d bytes" pos limit
      (String.length data);
  { data; pos; limit }

let remaining r = r.limit - r.pos

let get_int r =
  if remaining r < 8 then corrupt "truncated int at offset %d" r.pos;
  let v = Int64.to_int (String.get_int64_le r.data r.pos) in
  r.pos <- r.pos + 8;
  v

(* a length field for items of [per] bytes each: non-negative and small
   enough that the payload could actually fit in the remaining window *)
let get_len r ~per =
  let n = get_int r in
  if n < 0 || (per > 0 && n > remaining r / per) then
    corrupt "implausible length %d at offset %d" n (r.pos - 8);
  n

let get_string r =
  let n = get_len r ~per:1 in
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

(* an int array's header: its length and element width, checked against
   the bytes that remain *)
let get_array_header r =
  let n = get_len r ~per:1 in
  if remaining r < 1 then corrupt "truncated width at offset %d" r.pos;
  let k = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  if k <> 1 && k <> 2 && k <> 4 && k <> 8 then
    corrupt "bad int width %d at offset %d" k (r.pos - 1);
  if n > remaining r / k then
    corrupt "implausible length %d at offset %d" n (r.pos - 9);
  (n, k)

let get_int_array r =
  let n, k = get_array_header r in
  let a = Array.make n 0 and s = r.data and base = r.pos in
  (match k with
  | 1 -> for i = 0 to n - 1 do a.(i) <- String.get_int8 s (base + i) done
  | 2 ->
      for i = 0 to n - 1 do
        a.(i) <- String.get_int16_le s (base + (2 * i))
      done
  | 4 ->
      for i = 0 to n - 1 do
        a.(i) <- Int32.to_int (String.get_int32_le s (base + (4 * i)))
      done
  | _ ->
      for i = 0 to n - 1 do
        a.(i) <- Int64.to_int (String.get_int64_le s (base + (8 * i)))
      done);
  r.pos <- base + (k * n);
  a

let get_int_list r = Array.to_list (get_int_array r)

let expect_end r =
  if remaining r <> 0 then
    corrupt "%d trailing bytes at offset %d" (remaining r) r.pos
