type t = { mutable words : Bytes.t; cap : int }

(* Bits are stored little-endian inside bytes: element [i] lives in byte
   [i lsr 3], bit [i land 7]. Bytes rather than an int array keeps copies
   cheap and the structure compact for the many short-lived sets created
   during BFS. *)

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { words = Bytes.make ((n + 7) / 8) '\000'; cap = n }

let capacity s = s.cap

let check s i op =
  if i < 0 || i >= s.cap then invalid_arg ("Bitset." ^ op ^ ": out of range")

let mem s i =
  check s i "mem";
  Char.code (Bytes.unsafe_get s.words (i lsr 3)) land (1 lsl (i land 7)) <> 0

let add s i =
  check s i "add";
  let b = i lsr 3 in
  let v = Char.code (Bytes.unsafe_get s.words b) lor (1 lsl (i land 7)) in
  Bytes.unsafe_set s.words b (Char.unsafe_chr v)

let remove s i =
  check s i "remove";
  let b = i lsr 3 in
  let v = Char.code (Bytes.unsafe_get s.words b) land lnot (1 lsl (i land 7)) in
  Bytes.unsafe_set s.words b (Char.unsafe_chr (v land 0xff))

let popcount_byte =
  let tbl = Array.make 256 0 in
  for i = 1 to 255 do
    tbl.(i) <- tbl.(i lsr 1) + (i land 1)
  done;
  fun c -> tbl.(Char.code c)

let cardinal s =
  let n = ref 0 in
  Bytes.iter (fun c -> n := !n + popcount_byte c) s.words;
  !n

let clear s = Bytes.fill s.words 0 (Bytes.length s.words) '\000'

let rec next s i =
  if i >= s.cap then s.cap
  else
    let b = Char.code (Bytes.unsafe_get s.words (i lsr 3)) lsr (i land 7) in
    if b = 0 then next s ((i lor 7) + 1)
    else if b land 1 = 1 then i
    else next s (i + 1)

let iter f s =
  let i = ref (next s 0) in
  while !i < s.cap do
    f !i;
    i := next s (!i + 1)
  done

let to_list s =
  let acc = ref [] in
  for i = s.cap - 1 downto 0 do
    if mem s i then acc := i :: !acc
  done;
  !acc

let of_list n xs =
  let s = create n in
  List.iter (add s) xs;
  s

let copy s = { words = Bytes.copy s.words; cap = s.cap }

let subset a b =
  if a.cap <> b.cap then invalid_arg "Bitset.subset: capacity mismatch";
  let ok = ref true in
  for i = 0 to Bytes.length a.words - 1 do
    let x = Char.code (Bytes.unsafe_get a.words i)
    and y = Char.code (Bytes.unsafe_get b.words i) in
    if x land lnot y <> 0 then ok := false
  done;
  !ok

let equal a b =
  if a.cap <> b.cap then invalid_arg "Bitset.equal: capacity mismatch";
  Bytes.equal a.words b.words
