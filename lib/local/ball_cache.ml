type 'a t = {
  order : int;
  capacity : int;
  dummy : 'a;
  size : 'a -> int;
  mutable slots : 'a array;  (* [||] until the first [add] *)
  mutable state : Bytes.t;  (* one of the three states below, per centre *)
  mutable ring : int array;  (* resident centres, oldest at [head] *)
  mutable head : int;
  mutable count : int;
  mutable used : int;  (* bytes of the resident values *)
}

let absent = '\000'
let resident = '\001'
let referenced = '\002'

let create ~order ~capacity ~dummy ~size =
  {
    order;
    capacity = max capacity 0;
    dummy;
    size;
    slots = [||];
    state = Bytes.empty;
    ring = [||];
    head = 0;
    count = 0;
    used = 0;
  }

let find c v =
  if Bytes.length c.state = 0 || Bytes.get c.state v = absent then c.dummy
  else begin
    Bytes.set c.state v referenced;
    c.slots.(v)
  end

(* the ring's length is a power of two, doubled when full *)
let push c v =
  let len = Array.length c.ring in
  if c.count = len then begin
    let ring = Array.make (max 16 (2 * len)) 0 in
    for i = 0 to c.count - 1 do
      ring.(i) <- c.ring.((c.head + i) land (len - 1))
    done;
    c.ring <- ring;
    c.head <- 0
  end;
  c.ring.((c.head + c.count) land (Array.length c.ring - 1)) <- v;
  c.count <- c.count + 1

let pop c =
  let v = c.ring.(c.head) in
  c.head <- (c.head + 1) land (Array.length c.ring - 1);
  c.count <- c.count - 1;
  v

let remove c v =
  c.used <- c.used - c.size c.slots.(v);
  c.slots.(v) <- c.dummy;
  Bytes.set c.state v absent

let add c v x =
  if Bytes.length c.state = 0 then begin
    c.slots <- Array.make c.order c.dummy;
    c.state <- Bytes.make c.order absent
  end;
  c.slots.(v) <- x;
  Bytes.set c.state v resident;
  push c v;
  c.used <- c.used + c.size x

let evict c =
  let evicted = ref 0 in
  while c.used > c.capacity && c.count > 1 do
    let v = pop c in
    if Bytes.get c.state v = referenced then begin
      Bytes.set c.state v resident;
      push c v
    end
    else begin
      remove c v;
      incr evicted
    end
  done;
  !evicted

let filter c keep =
  let dropped = ref 0 in
  for _ = 1 to c.count do
    let v = pop c in
    if keep v then push c v
    else begin
      remove c v;
      incr dropped
    end
  done;
  !dropped

let entries c = c.count
let bytes c = c.used

let footprint c =
  if Bytes.length c.state = 0 then 0
  else
    let word = Sys.word_size / 8 in
    ((Array.length c.slots + Array.length c.ring + 3) * word)
    + Bytes.length c.state
