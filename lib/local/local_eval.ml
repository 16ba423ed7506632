open Foc_logic
open Ast
module Structure = Foc_data.Structure
module TS = Foc_data.Tuple.Set
module Bfs = Foc_graph.Bfs

(* ------------------------------------------------------------------ *)
(* Per-domain scratch: the BFS arena of guard balls and distance atoms,
   the epoch-stamped dedup marks, and a stack of candidate buffers (one
   per enumeration level in progress, so a level's candidates stay put
   while deeper levels fill theirs). *)

type scratch = {
  structure : Structure.t;
  order : int;
  mutable searcher : Bfs.searcher option;  (* lazy: forces gaifman *)
  mutable seen : int array;  (* sized to [order] on first dedup *)
  mutable epoch : int;
  mutable bufs : int array array;
  mutable sp : int;
}

let scratch structure =
  {
    structure;
    order = Structure.order structure;
    searcher = None;
    seen = [||];
    epoch = 0;
    bufs = [||];
    sp = 0;
  }

let searcher s =
  match s.searcher with
  | Some sr -> sr
  | None ->
      let sr = Bfs.searcher (Structure.gaifman s.structure) in
      s.searcher <- Some sr;
      sr

let push s =
  let d = s.sp in
  if d >= Array.length s.bufs then begin
    let bufs = Array.make ((2 * d) + 4) [||] in
    Array.blit s.bufs 0 bufs 0 (Array.length s.bufs);
    s.bufs <- bufs
  end;
  if Array.length s.bufs.(d) = 0 then s.bufs.(d) <- Array.make 16 0;
  s.sp <- d + 1;
  d

(* append [v] to buffer [d] holding [len] values; returns the new length *)
let add s d len v =
  let b = s.bufs.(d) in
  if len < Array.length b then Array.unsafe_set b len v
  else begin
    let b' = Array.make (2 * len) 0 in
    Array.blit b 0 b' 0 len;
    b'.(len) <- v;
    s.bufs.(d) <- b'
  end;
  len + 1

let new_epoch s =
  if Array.length s.seen < s.order then s.seen <- Array.make s.order 0;
  s.epoch <- s.epoch + 1

let fresh s v =
  if Array.unsafe_get s.seen v = s.epoch then false
  else begin
    Array.unsafe_set s.seen v s.epoch;
    true
  end

(* ------------------------------------------------------------------ *)
(* A relation's CSR incidence index, resolved by the first evaluation that
   reads it and kept by the compiled program: compiling builds no index,
   and a run looks none up by name. Domains sharing a program may race on
   [inc]; the write is idempotent once the structure is prepared
   ({!Structure.prepare}), since every domain then stores the structure's
   one memoised index. *)

type index = {
  a : Structure.t;
  rel : string;
  mutable inc : Structure.incidence option;
}

let index a rel = { a; rel; inc = None }

let incidence ix =
  match ix.inc with
  | Some inc -> inc
  | None ->
      let inc = Structure.incidence ix.a ix.rel in
      ix.inc <- Some inc;
      inc

(* ------------------------------------------------------------------ *)
(* Candidate sources, chosen at compile time. An indexed source reads a
   positive atom R(…y…) through the relation's CSR incidence index, seeking
   by whichever bound argument has the fewest rows; [Same] is y = x for a
   bound x. Either side of a conjunction is sound ([Min] takes the smaller
   at run time); a disjunction needs both ([Union]). *)

type probe = {
  index : index;
  rows : TS.t;
  ypos : int;  (* the position of the target variable *)
  bound : (int * int) array;  (* (position, slot) of the bound arguments *)
  distinct : bool;  (* every other position bound: one target per row *)
}

type indexed =
  | Seek of probe
  | Same of int
  | Min of indexed * indexed
  | Union of indexed * indexed

type source =
  | Scan  (* unguarded: the whole universe *)
  | Ball of int array * int  (* centre slots, radius: a δ-guard *)
  | Indexed of indexed

let degree (inc : Structure.incidence) e (_, sl) =
  let v = Array.unsafe_get e sl in
  inc.off.(v + 1) - inc.off.(v)

(* the bound argument of [sk] with the fewest rows under [e] *)
let narrowest sk inc e =
  let best = ref 0 in
  for i = 1 to Array.length sk.bound - 1 do
    if degree inc e sk.bound.(i) < degree inc e sk.bound.(!best) then best := i
  done;
  sk.bound.(!best)

let rec estimate ix e =
  match ix with
  | Seek sk ->
      let inc = incidence sk.index in
      degree inc e (narrowest sk inc e)
  | Same _ -> 1
  | Min (a, b) -> min (estimate a e) (estimate b e)
  | Union (a, b) -> estimate a e + estimate b e

let rec distinct = function
  | Seek sk -> sk.distinct
  | Same _ -> true
  | Min (a, b) -> distinct a && distinct b
  | Union _ -> false

let row_matches sk row e =
  let base = row * sk.rows.TS.width and d = sk.rows.TS.data in
  let ok = ref true and i = ref 0 in
  while !ok && !i < Array.length sk.bound do
    let p, sl = Array.unsafe_get sk.bound !i in
    ok := Array.unsafe_get d (base + p) = Array.unsafe_get e sl;
    incr i
  done;
  !ok

(* append the candidates of [ix] to buffer [d] (length [len]) *)
let rec fill_into ix s e d len dedup =
  match ix with
  | Same sl ->
      let v = e.(sl) in
      if dedup && not (fresh s v) then len else add s d len v
  | Min (a, b) ->
      if estimate a e <= estimate b e then fill_into a s e d len dedup
      else fill_into b s e d len dedup
  | Union (a, b) -> fill_into b s e d (fill_into a s e d len dedup) dedup
  | Seek sk ->
      let inc = incidence sk.index in
      let v = e.(snd (narrowest sk inc e)) in
      let len = ref len in
      let w = sk.rows.TS.width and data = sk.rows.TS.data in
      for q = inc.off.(v) to inc.off.(v + 1) - 1 do
        let row = Array.unsafe_get inc.ids q in
        if row_matches sk row e then begin
          let y = Array.unsafe_get data ((row * w) + sk.ypos) in
          if (not dedup) || fresh s y then len := add s d !len y
        end
      done;
      !len

(* call [f] on buffer [d]'s first [len] values until one answers true *)
let drain s d len f =
  let b = s.bufs.(d) in
  let i = ref 0 in
  while !i < len && not (f (Array.unsafe_get b !i)) do
    incr i
  done;
  s.sp <- d;
  !i < len

(* push a buffer holding the candidates of [ix] under [e], each once;
   returns their number *)
let fill ix s e =
  let dedup = not (distinct ix) in
  if dedup then new_epoch s;
  let d = push s in
  fill_into ix s e d 0 dedup

(* [search src s e f] — [f] on each candidate until one answers true *)
let search src s e f =
  match src with
  | Scan ->
      let rec go v = v < s.order && (f v || go (v + 1)) in
      go 0
  | Ball (centres, radius) ->
      let sr = searcher s in
      let count =
        Bfs.run sr
          ~centres:(Array.fold_right (fun sl acc -> e.(sl) :: acc) centres [])
          ~radius
      in
      let d = push s in
      let len = ref 0 in
      for i = 0 to count - 1 do
        len := add s d !len (Bfs.visited sr i)
      done;
      drain s d !len f
  | Indexed ix ->
      let len = fill ix s e in
      drain s (s.sp - 1) len f

(* ------------------------------------------------------------------ *)
(* Atoms, their key read straight from the environment slots. A unary
   atom R(x) holds iff x has a row in R's incidence index; a binary atom
   scans the shorter incidence row of its two arguments; a wider atom
   binary-searches the packed core. *)

type test = scratch -> int array -> bool

(* row [r] against the key in slots [ss] of [e] *)
let cmp_row (rows : TS.t) r ss e =
  let w = rows.width and d = rows.data in
  let rec go c =
    if c = w then 0
    else
      let x = Array.unsafe_get d ((r * w) + c) and y = e.(ss.(c)) in
      if x < y then -1 else if x > y then 1 else go (c + 1)
  in
  go 0

(* (u, v) ∈ rows: a row holding both is listed under u and under v, so
   scan the shorter of their incidence rows. On a bounded-degree structure
   that is O(1) reads; a test between two hubs is O(min degree) *)
let mem2 (rows : TS.t) (inc : Structure.incidence) u v =
  let off = inc.off in
  let w = if off.(v + 1) - off.(v) < off.(u + 1) - off.(u) then v else u in
  let hi = off.(w + 1) and d = rows.data in
  let q = ref off.(w) and found = ref false in
  while (not !found) && !q < hi do
    let r = 2 * Array.unsafe_get inc.ids !q in
    found := Array.unsafe_get d r = u && Array.unsafe_get d (r + 1) = v;
    incr q
  done;
  !found

let memk (rows : TS.t) ss e =
  let lo = ref 0 and hi = ref rows.nrows in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if cmp_row rows mid ss e < 0 then lo := mid + 1 else hi := mid
  done;
  !lo < rows.nrows && cmp_row rows !lo ss e = 0

(* ------------------------------------------------------------------ *)
(* Compilation. Variables in scope live in environment slots: the
   parameters first, then one slot per binder, allocated by depth. *)

type cenv = {
  preds : Pred.collection;
  a : Structure.t;
  scope : (Var.t * int) list;  (* innermost first *)
  next : int;
  width : int ref;  (* slots used so far *)
  unguarded : int ref;  (* positions compiled to a scan *)
}

let slot c x =
  match List.assoc_opt x c.scope with
  | Some i -> i
  | None -> invalid_arg ("Local_eval: unbound variable " ^ x)

let bind c x =
  let i = c.next in
  c.width := max !(c.width) (i + 1);
  ({ c with scope = (x, i) :: c.scope; next = i + 1 }, i)

let root preds a vars =
  let c =
    { preds; a; scope = []; next = 0; width = ref 0; unguarded = ref 0 }
  in
  List.fold_left (fun c x -> fst (bind c x)) c vars

let rec conjuncts = function
  | And (f, g) -> conjuncts f @ conjuncts g
  | f -> [ f ]

let seek_of c bound r args y =
  match Structure.rel c.a r with
  | exception Invalid_argument _ -> None
  | rows when rows.TS.width <> Array.length args -> None
  | rows -> (
      let ys = ref [] and bs = ref [] in
      Array.iteri
        (fun i v ->
          if Var.equal v y then ys := i :: !ys
          else if bound v then bs := (i, slot c v) :: !bs)
        args;
      (* a target repeated in the atom is left to the other sources *)
      match (!ys, List.rev !bs) with
      | [ ypos ], (_ :: _ as bs) ->
          Some
            (Seek
               {
                 index = index c.a r;
                 rows;
                 ypos;
                 bound = Array.of_list bs;
                 distinct = List.length bs + 1 = rows.width;
               })
      | _ -> None)

(* a sound indexed source for [y] in [phi], when [bound] variables are
   set: every value of [y] satisfying [phi] is among its candidates *)
let rec indexed c bound phi y =
  match phi with
  | Rel (r, args) -> seek_of c bound r args y
  | And (f, g) -> (
      match (indexed c bound f y, indexed c bound g y) with
      | Some a, Some b -> Some (Min (a, b))
      | (Some _ as s), None | None, (Some _ as s) -> s
      | None, None -> None)
  | Or (f, g) -> (
      match (indexed c bound f y, indexed c bound g y) with
      | Some a, Some b -> Some (Union (a, b))
      | _ -> None)
  | Exists (z, f) | Forall (z, f) ->
      (* over a non-empty universe ∀z.f entails f at some z; atoms on the
         inner z cannot seek, so z is unbound below the binder *)
      if Var.equal z y then None
      else indexed c (fun v -> (not (Var.equal v z)) && bound v) f y
  | Eq (u, v) -> (
      let other =
        if Var.equal u y then Some v else if Var.equal v y then Some u else None
      in
      match other with
      | Some o when (not (Var.equal o y)) && bound o -> Some (Same (slot c o))
      | _ -> None)
  | True | False | Dist _ | Neg _ | Pred _ -> None

(* the δ-ball around the bound variables the guard calculus certifies *)
let guard c bound body y =
  let anchors =
    Var.Set.filter
      (fun v -> (not (Var.equal v y)) && bound v)
      (free_formula body)
  in
  if Var.Set.is_empty anchors then None
  else
    Option.map
      (fun d ->
        Ball (Array.of_list (List.map (slot c) (Var.Set.elements anchors)), d))
      (Locality.quantifier_guard body y ~anchors)

let rel_test c r xs : test =
  match Structure.rel c.a r with
  | exception (Invalid_argument _ as ex) -> fun _ _ -> raise ex
  | rows -> (
      if rows.TS.width <> Array.length xs then fun _ _ -> false
      else
        match Array.map (slot c) xs with
        | [||] ->
            let b = rows.nrows > 0 in
            fun _ _ -> b
        | [| i |] ->
            let ix = index c.a r in
            fun _ e ->
              let off = (incidence ix).off and v = e.(i) in
              off.(v + 1) > off.(v)
        | [| i; j |] ->
            let ix = index c.a r in
            fun _ e -> mem2 rows (incidence ix) e.(i) e.(j)
        | ss -> fun _ e -> memk rows ss e)

let all_of = function
  | [] -> fun _ _ -> true
  | [ f ] -> f
  | fs ->
      let fs = Array.of_list fs in
      fun s e ->
        let i = ref 0 in
        while !i < Array.length fs && fs.(!i) s e do
          incr i
        done;
        !i = Array.length fs

(* An enumeration of the bound variables [ys] of ∃/# over [body]: the
   variables are placed one per level in an order fixed here (an indexed
   variable first, then a guarded one, else a scan), and each conjunct of
   [body] is tested at the first level where all its variables are set. *)
type level = { slot : int; src : source; check : test }
type enum = { pre : test; levels : level array }

let rec formula c (phi : Ast.formula) : test =
  match phi with
  | True -> fun _ _ -> true
  | False -> fun _ _ -> false
  | Eq (x, y) ->
      let i = slot c x and j = slot c y in
      fun _ e -> e.(i) = e.(j)
  | Rel (r, xs) -> rel_test c r xs
  | Dist (x, y, d) ->
      let i = slot c x and j = slot c y in
      fun s e ->
        let u = e.(i) and v = e.(j) in
        d >= 0
        && (u = v
           || d > 0
              &&
              let sr = searcher s in
              ignore (Bfs.run sr ~centres:[ u ] ~radius:d);
              Bfs.mem sr v)
  | Neg f ->
      let f = formula c f in
      fun s e -> not (f s e)
  | And (f, g) ->
      let f = formula c f and g = formula c g in
      fun s e -> f s e && g s e
  | Or (f, g) ->
      let f = formula c f and g = formula c g in
      fun s e -> f s e || g s e
  | Exists _ ->
      (* a chain ∃y∃z… is one enumeration over its distinct variables *)
      let rec chain ys = function
        | Exists (y, f) when not (List.mem y ys) -> chain (y :: ys) f
        | f -> (List.rev ys, f)
      in
      let ys, body = chain [] phi in
      let en = enum c ys body in
      fun s e -> exists_run en s e
  | Forall (y, f) ->
      (* far values satisfy f vacuously: the guard is taken against ¬f *)
      formula c (Neg (Exists (y, Ast.neg f)))
  | Pred (p, ts) ->
      let ts = Array.of_list (List.map (term c) ts) in
      fun s e -> Pred.holds c.preds p (Array.map (fun t -> t s e) ts)

and term c (t : Ast.term) : scratch -> int array -> int =
  match t with
  | Int i -> fun _ _ -> i
  | Add (u, v) ->
      let u = term c u and v = term c v in
      fun s e -> u s e + v s e
  | Mul (u, v) ->
      let u = term c u and v = term c v in
      fun s e -> u s e * v s e
  | Count (ys, f) ->
      let en = enum c ys f in
      fun s e -> count_run en s e

and enum c ys body =
  if List.length (List.sort_uniq Var.compare ys) <> List.length ys then
    invalid_arg "Local_eval: repeated counted variable";
  let c = List.fold_left (fun c y -> fst (bind c y)) c ys in
  let rec choose remaining acc =
    match remaining with
    | [] -> List.rev acc
    | first :: _ ->
        let bound v = List.mem_assoc v c.scope && not (List.mem v remaining) in
        let pick source = List.find_map (fun y -> Option.map (fun s -> (y, s)) (source y)) remaining in
        let y, src =
          match pick (fun y -> Option.map (fun ix -> Indexed ix) (indexed c bound body y)) with
          | Some p -> p
          | None -> (
              match pick (guard c bound body) with
              | Some p -> p
              | None ->
                  incr c.unguarded;
                  (first, Scan))
        in
        choose (List.filter (fun v -> not (Var.equal v y)) remaining) ((y, src) :: acc)
  in
  let placed = Array.of_list (choose ys []) in
  (* level 0 tests what is decidable before the first placement *)
  let level_of v =
    let rec go l =
      if l = 0 then 0 else if Var.equal (fst placed.(l - 1)) v then l else go (l - 1)
    in
    go (Array.length placed)
  in
  let checks = by_level c (Array.length placed + 1) level_of body in
  {
    pre = checks.(0);
    levels =
      Array.mapi
        (fun l (y, src) -> { slot = slot c y; src; check = checks.(l + 1) })
        placed;
  }

(* the conjuncts of [body], each tested at the first of [n] levels where
   all its variables are bound ([level_of] is at most 0 for variables
   bound before level 0; variable-free conjuncts go to level 0) *)
and by_level c n level_of body =
  let at = Array.make n [] in
  List.iter
    (fun phi ->
      let l = Var.Set.fold (fun v l -> max l (level_of v)) (free_formula phi) 0 in
      at.(l) <- formula c phi :: at.(l))
    (conjuncts body);
  Array.map (fun fs -> all_of (List.rev fs)) at

and count_run en s e =
  if not (en.pre s e) then 0
  else begin
    let n = Array.length en.levels in
    let rec go l =
      if l = n then 1
      else begin
        let { slot; src; check } = en.levels.(l) in
        let total = ref 0 in
        ignore
          (search src s e (fun v ->
               e.(slot) <- v;
               if check s e then total := !total + go (l + 1);
               false));
        !total
      end
    in
    go 0
  end

and exists_run en s e =
  en.pre s e
  &&
  let n = Array.length en.levels in
  let rec go l =
    l = n
    ||
    let { slot; src; check } = en.levels.(l) in
    search src s e (fun v ->
        e.(slot) <- v;
        check s e && go (l + 1))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Entry points *)

type formula = { test : test; f_width : int; f_unguarded : int }

let compile preds a ~vars phi =
  let c = root preds a vars in
  let test = formula c phi in
  { test; f_width = max 1 !(c.width); f_unguarded = !(c.unguarded) }

let width f = f.f_width
let unguarded f = f.f_unguarded

let check_env s e w =
  if Array.length e < w then invalid_arg "Local_eval: environment too short";
  s.sp <- 0

let holds f s e =
  if s.order = 0 then invalid_arg "Local_eval.holds: empty universe";
  check_env s e f.f_width;
  f.test s e

let sentence preds a phi =
  let f = compile preds a ~vars:[] phi in
  holds f (scratch a) (Array.make f.f_width 0)

type term = { value : scratch -> int array -> int; t_width : int }

let compile_term preds a ~vars t =
  let c = root preds a vars in
  let value = term c t in
  { value; t_width = max 1 !(c.width) }

let term_width t = t.t_width

let value t s e =
  check_env s e t.t_width;
  t.value s e

(* ------------------------------------------------------------------ *)
(* Staged bodies for a fixed placement order (the pattern sweep). *)

type seek = indexed

type stage = {
  checks : test array;
  seeks : seek option array;
  s_width : int;
}

let stage preds a ~vars ~order body =
  let c = root preds a vars in
  let vars = Array.of_list vars in
  let k = Array.length vars in
  let level_of_pos = Array.make k (-1) in
  Array.iteri (fun l p -> level_of_pos.(p) <- l) order;
  if Array.length order <> k || Array.mem (-1) level_of_pos then
    invalid_arg "Local_eval.stage: order is not a permutation";
  let level_of v =
    let l = ref (-1) in
    Array.iteri (fun p x -> if Var.equal x v then l := level_of_pos.(p)) vars;
    !l
  in
  let checks = by_level c k level_of body in
  let seeks =
    Array.init k (fun l ->
        if l = 0 then None
        else
          indexed c
            (fun v -> level_of v >= 0 && level_of v < l)
            body vars.(order.(l)))
  in
  { checks; seeks; s_width = max k !(c.width) }

let check st l = st.checks.(l)
let seek st l = st.seeks.(l)
let stage_width st = st.s_width
let seek_estimate = estimate
let buffer s = s.bufs.(s.sp - 1)
let release s = s.sp <- s.sp - 1
