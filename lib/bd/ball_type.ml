module Structure = Foc_data.Structure
module Signature = Foc_data.Signature
module TS = Foc_data.Tuple.Set
module Bfs = Foc_graph.Bfs

let extract a ~centre ~r =
  let ball = Structure.ball a ~centres:[ centre ] ~radius:r in
  let sub, old_of_new = Structure.induced a ball in
  (sub, Structure.new_of_old old_of_new centre)

(* Reusable canonicalization scratch, one per domain: the serialization
   buffer and a BFS arena over the last Gaifman graph seen. *)
type scratch = { buf : Buffer.t; mutable bfs : Bfs.searcher option }

let scratch () = { buf = Buffer.create 1024; bfs = None }

(* A rooted structure on local ids [0 .. n-1]: each row is
   [[| k; e1; ..; ew |]], relation [k] (its index in [names], the
   signature order, i.e. by name) on local entries, in no particular
   order; [occ.(v)] lists the slots [(j lsl bits) lor i] holding [v]. *)
type ball = {
  n : int;
  names : string array;
  rows : int array array;
  bits : int;
  occ : int array array;
}

(* [make a ~n ~local ~each] lays out the rows [each name core push]
   pushes (row indices into [core]), with entries renamed by [local] *)
let make a ~n ~local ~each =
  let sign = Array.of_list (Signature.to_list (Structure.signature a)) in
  let rows = ref [] and deg = Array.make n 0 in
  Array.iteri
    (fun k (name, w) ->
      let core = Structure.rel a name in
      each name core (fun ri ->
          let row = Array.make (w + 1) k in
          for i = 1 to w do
            let v = local (TS.cell core ri (i - 1)) in
            row.(i) <- v;
            deg.(v) <- deg.(v) + 1
          done;
          rows := row :: !rows))
    sign;
  let rows = Array.of_list !rows in
  let w = Array.fold_left (fun m (_, w) -> Int.max m w) 0 sign in
  let rec width b = if 1 lsl b > w then b else width (b + 1) in
  let bits = width 0 in
  let occ = Array.map (fun d -> Array.make d 0) deg in
  for j = 0 to Array.length rows - 1 do
    for i = 1 to Array.length rows.(j) - 1 do
      let v = rows.(j).(i) in
      deg.(v) <- deg.(v) - 1;
      occ.(v).(deg.(v)) <- (j lsl bits) lor i
    done
  done;
  { n; names = Array.map fst sign; rows; bits; occ }

let each_row _ core push =
  for ri = 0 to TS.cardinal core - 1 do
    push ri
  done

(* insertion sort for the short arrays of a ball (its elements, an
   element's slots, its rows) *)
let sort cmp a =
  if Array.length a > 32 then Array.stable_sort cmp a
  else
    for i = 1 to Array.length a - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && cmp a.(!j) x > 0 do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

(* ------------------------------------------------------------------ *)
(* Colour refinement. An element's signature is its current colour plus,
   for every slot it occupies, the slot's relation, its position, and the
   colours of the row's entries, sorted. Signatures are ranked in
   lexicographic order (relations by name), so the refinement is
   isomorphism-invariant and the new colours are dense ranks. *)

(* rows [rp] and [rq] of one relation, entries compared through [c] *)
let cmp_entries (c : int array) rp rq =
  let rec go i =
    if i = Array.length rp then 0
    else if c.(rp.(i)) <> c.(rq.(i)) then Int.compare c.(rp.(i)) c.(rq.(i))
    else go (i + 1)
  in
  go 1

let cmp_slot b c p q =
  let rp = b.rows.(p lsr b.bits) and rq = b.rows.(q lsr b.bits) in
  let mask = (1 lsl b.bits) - 1 in
  if rp.(0) <> rq.(0) then Int.compare rp.(0) rq.(0)
  else if p land mask <> q land mask then
    Int.compare (p land mask) (q land mask)
  else cmp_entries c rp rq

(* by colour, then by sorted slot list (a proper prefix is less) *)
let cmp_elt b (c : int array) u v =
  if c.(u) <> c.(v) then Int.compare c.(u) c.(v)
  else
    let su = b.occ.(u) and sv = b.occ.(v) in
    let rec go i =
      if i = Array.length su then if i = Array.length sv then 0 else -1
      else if i = Array.length sv then 1
      else
        let d = cmp_slot b c su.(i) sv.(i) in
        if d <> 0 then d else go (i + 1)
    in
    go 0

(* One round over colours in [-1, 2n-1) (dense ranks, or twice them with
   one member individualized); an element alone in its colour needs no
   sorted slot list. *)
let refine b c =
  let count = Array.make (2 * b.n) 0 in
  Array.iter (fun x -> count.(x + 1) <- count.(x + 1) + 1) c;
  Array.iteri
    (fun v x -> if count.(x + 1) > 1 then sort (cmp_slot b c) b.occ.(v))
    c;
  let idx = Array.init b.n Fun.id in
  sort (cmp_elt b c) idx;
  let c' = Array.make b.n 0 in
  for t = 1 to b.n - 1 do
    c'.(idx.(t)) <-
      (c'.(idx.(t - 1)) + if cmp_elt b c idx.(t - 1) idx.(t) = 0 then 0 else 1)
  done;
  c'

(* a discrete colouring (n distinct ranks) is already stable *)
let rec refine_fix b c =
  let c' = refine b c in
  if Array.for_all2 Int.equal c c' || Array.fold_left Int.max 0 c' = b.n - 1
  then c'
  else refine_fix b c'

(* ------------------------------------------------------------------ *)

(* [string_of_int x] for [x >= 0], straight into the buffer *)
let rec add_int buf x =
  if x >= 10 then add_int buf (x / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (x mod 10)))

(* the relabelled structure, [order_of] a bijection onto [0 .. n-1]: each
   relation's rows renamed and listed in lexicographic order *)
let serialize buf b order_of =
  let rows = Array.copy b.rows in
  sort
    (fun rp rq ->
      if rp.(0) <> rq.(0) then Int.compare rp.(0) rq.(0)
      else cmp_entries order_of rp rq)
    rows;
  Buffer.clear buf;
  Buffer.add_string buf ("n=" ^ string_of_int b.n ^ ";");
  let j = ref 0 in
  Array.iteri
    (fun k name ->
      Buffer.add_string buf name;
      Buffer.add_char buf '{';
      while !j < Array.length rows && rows.(!j).(0) = k do
        for i = 1 to Array.length rows.(!j) - 1 do
          add_int buf order_of.(rows.(!j).(i));
          Buffer.add_char buf ','
        done;
        Buffer.add_char buf '|';
        incr j
      done;
      Buffer.add_string buf "};")
    b.names;
  Buffer.contents buf

(* Individualization under a work budget: while it lasts, up to 3 members
   of the least ambiguous class are tried (robustness against mildly
   refinement-blind classes); once spent, a single member — linear work.
   If the class is an automorphism orbit — always the case when refinement
   identifies orbits, e.g. on every forest (1-WL is complete on trees), and
   hence on the tree-like balls of sparse structures — any member gives the
   same key, so the cap loses nothing. On refinement-blind inputs it may
   split one isomorphism type into several keys, which for Hanf grouping
   merely costs extra evaluations; it never merges distinct types (equal
   keys always certify an isomorphism via the serialisation). An uncapped
   search is exponential on large orbits (a hub's leaves). *)
let key buf b ~centre =
  let budget = ref 60 in
  let rec canon colors =
    decr budget;
    let colors = refine_fix b colors in
    (* stable colours are dense ranks: the ambiguous class with the
       least colour, if any, is the first colour counted twice *)
    let count = Array.make b.n 0 in
    Array.iter (fun c -> count.(c) <- count.(c) + 1) colors;
    match Array.find_index (fun k -> k >= 2) count with
    | None -> serialize buf b colors
    | Some amb ->
        let limit = if !budget > 0 then 3 else 1 in
        let best = ref None and tried = ref 0 in
        for m = 0 to b.n - 1 do
          if colors.(m) = amb && !tried < limit then begin
            incr tried;
            let colors' = Array.map (fun c -> 2 * c) colors in
            colors'.(m) <- colors'.(m) - 1;
            let k = canon colors' in
            match !best with
            | Some kb when String.compare kb k <= 0 -> ()
            | _ -> best := Some k
          end
        done;
        Option.get !best
  in
  canon (Array.init b.n (fun v -> if v = centre then 0 else 1))

let canonical_key ?(scratch = scratch ()) a ~centre =
  key scratch.buf
    (make a ~n:(Structure.order a) ~local:Fun.id ~each:each_row)
    ~centre

let unique_key v = "!uniq" ^ string_of_int v

(* One BFS over the Gaifman CSR gives the ball, sorted, as local ids; each
   relation's rows inside it are read off the incidence index at their
   first entry. *)
let ball_key ?(max_ball = max_int) ?(scratch = scratch ()) a ~centre ~r =
  let g = Structure.gaifman a in
  let bfs =
    match scratch.bfs with
    | Some s when Bfs.searcher_graph s == g -> s
    | _ ->
        let s = Bfs.searcher g in
        scratch.bfs <- Some s;
        s
  in
  let elts = Bfs.ball_sorted bfs ~centres:[ centre ] ~radius:r in
  if Array.length elts > max_ball then
    (* too big to canonicalize cheaply: a key of its own *)
    unique_key centre
  else begin
    let local = Structure.new_of_old elts in
    let each name core push =
      if core.TS.width = 0 then each_row name core push
      else
        Array.iter
          (fun v ->
            Structure.tuples_with a name ~pos:0 ~value:v (fun ri ->
                let rec inside i =
                  i = core.TS.width
                  || (Bfs.mem bfs (TS.cell core ri i) && inside (i + 1))
                in
                if inside 1 then push ri))
          elts
    in
    key scratch.buf
      (make a ~n:(Array.length elts) ~local ~each)
      ~centre:(local centre)
  end
