module M = Map.Make (String)
module TS = Tuple.Set

(* One relation: its packed rows plus the lazily built CSR incidence index
   — for element v, the indices of the rows containing v (each row once,
   ascending) are [ids.(off.(v)) .. ids.(off.(v+1) - 1)]. The index depends
   only on the rows and the order, so structures that share a relation
   (updates of another symbol, expansions, reducts) share its index too. *)
type incidence = { off : int array; ids : int array }
type rel = { rows : TS.t; mutable inc : incidence option }

type t = {
  sign : Signature.t;
  order : int;
  rels : rel M.t; (* every symbol of [sign] *)
  mutable gaifman : Foc_graph.Graph.t option;
}

let fresh rows = { rows; inc = None }

let check_tuple arity name tup =
  if Array.length tup <> arity then
    invalid_arg
      (Printf.sprintf "Structure: tuple of arity %d for %s/%d"
         (Array.length tup) name arity)

let check_rows order name (s : TS.t) =
  for i = 0 to (s.nrows * s.width) - 1 do
    let x = s.data.(i) in
    if x < 0 || x >= order then
      invalid_arg ("Structure: element out of universe in relation " ^ name)
  done

let core_of_list arity name tuples =
  List.iter (check_tuple arity name) tuples;
  TS.of_list arity tuples

let of_rels sign ~order rels =
  if order < 0 then invalid_arg "Structure.create: negative order";
  let empty =
    List.fold_left
      (fun m (name, arity) -> M.add name (TS.empty arity) m)
      M.empty (Signature.to_list sign)
  in
  let add m (name, (s : TS.t)) =
    match M.find_opt name m with
    | None -> invalid_arg ("Structure.create: unknown symbol " ^ name)
    | Some old ->
        if s.width <> old.TS.width then
          invalid_arg
            (Printf.sprintf "Structure: rows of arity %d for %s/%d" s.width
               name old.TS.width);
        check_rows order name s;
        M.add name (if TS.is_empty old then s else TS.union old s) m
  in
  let rels = M.map fresh (List.fold_left add empty rels) in
  { sign; order; rels; gaifman = None }

let create sign ~order rels =
  of_rels sign ~order
    (List.map
       (fun (name, tuples) ->
         match Signature.arity_opt sign name with
         | Some arity -> (name, core_of_list arity name tuples)
         | None -> invalid_arg ("Structure.create: unknown symbol " ^ name))
       rels)

let signature a = a.sign
let order a = a.order

let find a name =
  match M.find_opt name a.rels with
  | Some r -> r
  | None -> invalid_arg ("Structure.rel: unknown symbol " ^ name)

let rel a name = (find a name).rows
let size a = M.fold (fun _ r acc -> acc + TS.cardinal r.rows) a.rels a.order
let mem a name tup = TS.mem tup (rel a name)

(* count-then-fill: a row is listed under each of its distinct entries *)
let build_incidence order ({ TS.width = w; nrows; data = d } : TS.t) =
  (* entry [i] of row [r] is the first occurrence of its value there *)
  let first r i =
    let v = d.((r * w) + i) and j = ref 0 in
    while !j < i && d.((r * w) + !j) <> v do
      incr j
    done;
    !j = i
  in
  (* off.(v) counts v's rows, then ends v's range; filling the rows in
     reverse moves it down to the start, rows ascending *)
  let off = Array.make (order + 1) 0 in
  for r = 0 to nrows - 1 do
    for i = 0 to w - 1 do
      if first r i then begin
        let v = d.((r * w) + i) in
        off.(v) <- off.(v) + 1
      end
    done
  done;
  for v = 1 to order do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let ids = Array.make off.(order) 0 in
  for r = nrows - 1 downto 0 do
    for i = 0 to w - 1 do
      if first r i then begin
        let v = d.((r * w) + i) in
        off.(v) <- off.(v) - 1;
        ids.(off.(v)) <- r
      end
    done
  done;
  { off; ids }

let rel_incidence a r =
  match r.inc with
  | Some inc -> inc
  | None ->
      let inc = build_incidence a.order r.rows in
      r.inc <- Some inc;
      inc

let incidence a name = rel_incidence a (find a name)

let tuples_with a name ~pos ~value f =
  let r = find a name in
  if pos < 0 || pos >= r.rows.width then
    invalid_arg "Structure.tuples_with: position out of range";
  if value >= 0 && value < a.order then begin
    let { off; ids } = rel_incidence a r in
    for p = off.(value) to off.(value + 1) - 1 do
      if TS.cell r.rows ids.(p) pos = value then f ids.(p)
    done
  end

(* Tuples of arity <= 1 contribute no Gaifman edges (the edge emitter below
   needs two distinct positions), so updates touching only unary/0-ary
   relations carry the memoised graph over — the new structure then shares
   it *physically* with the old one, which lets graph-keyed artifacts
   (covers, ball caches) survive stratification expansions and unary
   database updates (see Foc_serve.Session). *)
let keep_gaifman a arity = if arity <= 1 then a.gaifman else None

(* one linear merge of the relation with the (checked, sorted) tuples *)
let update op a name tuples =
  let old = (find a name).rows in
  let s = core_of_list old.width name tuples in
  check_rows a.order name s;
  {
    a with
    rels = M.add name (fresh (op old s)) a.rels;
    gaifman = keep_gaifman a old.width;
  }

let add_tuples = update TS.union
let remove_tuples = update TS.diff

let gaifman a =
  match a.gaifman with
  | Some g -> g
  | None ->
      (* CSR count-then-fill: the rows are scanned twice (once to count
         half-edges, once to place them) by index, with no intermediate
         edge list *)
      let g =
        Foc_graph.Graph.build a.order (fun emit ->
            M.iter
              (fun _ { rows = { TS.width = k; nrows; data }; _ } ->
                for r = 0 to nrows - 1 do
                  let b = r * k in
                  for i = 0 to k - 1 do
                    for j = i + 1 to k - 1 do
                      if data.(b + i) <> data.(b + j) then
                        emit data.(b + i) data.(b + j)
                    done
                  done
                done)
              a.rels)
      in
      a.gaifman <- Some g;
      g

(* Install a pre-built Gaifman graph into the memo — the snapshot-load
   fast path (Foc_store): a CSR graph decoded from a checksummed snapshot
   replaces the count-then-fill rebuild. The caller asserts [g] really is
   this structure's Gaifman graph (ours was written next to the relations
   in the same checksummed container); only the order is re-checked here,
   because a full recomputation would defeat the point. A wrong graph
   cannot corrupt memory (Graph.of_flat validated the CSR invariants) but
   would change answers — which is exactly what the store's replay
   verification gates on. *)
let set_gaifman a g =
  if Foc_graph.Graph.order g <> a.order then
    invalid_arg "Structure.set_gaifman: order mismatch";
  a.gaifman <- Some g

(* Force every lazily-built cache (Gaifman graph, incidence indexes) so the
   structure can be read concurrently from several domains: after
   [prepare], [gaifman], [tuples_with] and [induced] only read. *)
let prepare a =
  ignore (gaifman a);
  M.iter (fun _ r -> ignore (rel_incidence a r)) a.rels

let dist a u v = Foc_graph.Bfs.dist (gaifman a) u v
let dist_le a u v r = Foc_graph.Bfs.dist_le (gaifman a) u v r
let ball a ~centres ~radius = Foc_graph.Bfs.ball (gaifman a) ~centres ~radius

let new_of_old old_of_new v =
  let l = ref 0 and h = ref (Array.length old_of_new) in
  while !l < !h do
    let mid = (!l + !h) / 2 in
    if old_of_new.(mid) < v then l := mid + 1 else h := mid
  done;
  if !l < Array.length old_of_new && old_of_new.(!l) = v then !l else -1

(* The renumbering table of [induced]: one per domain, so parallel cluster
   sweeps never share it, grown to the largest order seen and kept for the
   domain's life. During an induction of [m] members, entry [v] is
   [base + new id] for a member and below [base] otherwise: [base] then
   grows by [m], so every stamp of an earlier induction is stale without
   clearing the table. *)
type renumbering = { mutable slot : int array; mutable base : int }

let renumbering =
  Domain.DLS.new_key (fun () -> { slot = [||]; base = 0 })

(* the sorted, deduplicated members; ascending lists (clusters, balls) are
   taken as they are *)
let sorted_members vs =
  let a = Array.of_list vs in
  let rec ascending i = i >= Array.length a || (a.(i - 1) < a.(i) && ascending (i + 1)) in
  if ascending 1 then a
  else begin
    Foc_util.Int_sort.sort a;
    Array.sub a 0
      (Foc_util.Int_sort.dedup_sorted_range a ~pos:0 ~len:(Array.length a))
  end

(* A[X] as a slice of the incidence indexes. Each member is stamped once;
   then each row is visited at its first entry and kept when every entry
   carries a current stamp. The members ascend, and so do the rows with a
   given first entry, so the kept rows come out in row order, which the
   monotone renumbering preserves: no sort and no search per entry.
   O(|X| + Σ_{v∈X} deg v · arity); nothing is sized by [order a] except the
   per-domain table. *)
let induced a vs =
  let old_of_new = sorted_members vs in
  let m = Array.length old_of_new in
  if m > 0 && (old_of_new.(0) < 0 || old_of_new.(m - 1) >= a.order) then
    invalid_arg "Structure.induced: element out of range";
  let tbl = Domain.DLS.get renumbering in
  if Array.length tbl.slot < a.order then tbl.slot <- Array.make a.order (-1);
  let slot = tbl.slot and base = tbl.base in
  tbl.base <- base + m;
  Array.iteri (fun i v -> slot.(v) <- base + i) old_of_new;
  let slice r =
    let ({ TS.width = w; data; _ } as s) = r.rows in
    if w = 0 then fresh s
    else begin
      let { off; ids } = rel_incidence a r in
      let cap = Array.fold_left (fun c v -> c + off.(v + 1) - off.(v)) 0 old_of_new in
      let kept = Array.make cap 0 and n = ref 0 in
      let rec members b i = i = w || (slot.(data.(b + i)) >= base && members b (i + 1)) in
      Array.iter
        (fun v ->
          for p = off.(v) to off.(v + 1) - 1 do
            let b = ids.(p) * w in
            if data.(b) = v && members b 1 then begin
              kept.(!n) <- ids.(p);
              incr n
            end
          done)
        old_of_new;
      let n = !n in
      let out = Array.make (n * w) 0 in
      for j = 0 to n - 1 do
        for i = 0 to w - 1 do
          out.((j * w) + i) <- slot.(data.((kept.(j) * w) + i)) - base
        done
      done;
      fresh (TS.of_sorted w out n)
    end
  in
  ( { sign = a.sign; order = m; rels = M.map slice a.rels; gaifman = None },
    old_of_new )

let disjoint_union a b =
  if not (Signature.equal a.sign b.sign) then
    invalid_arg "Structure.disjoint_union: signatures differ";
  let shift = a.order in
  let rels =
    M.mapi
      (fun name r ->
        fresh (TS.union r.rows (TS.map (fun x -> x + shift) (rel b name))))
      a.rels
  in
  { sign = a.sign; order = a.order + b.order; rels; gaifman = None }

let expand a extra =
  let sign =
    List.fold_left (fun sg (n, ar, _) -> Signature.add sg n ar) a.sign extra
  in
  let rels =
    List.fold_left
      (fun m (n, ar, tuples) ->
        let s = core_of_list ar n tuples in
        check_rows a.order n s;
        let old = match M.find_opt n m with Some r -> r.rows | None -> TS.empty ar in
        M.add n (fresh (TS.union old s)) m)
      a.rels extra
  in
  let max_arity = List.fold_left (fun m (_, ar, _) -> max m ar) 0 extra in
  { sign; order = a.order; rels; gaifman = keep_gaifman a max_arity }

let reduct a sign =
  if not (Signature.subset sign a.sign) then
    invalid_arg "Structure.reduct: not a subsignature";
  let rels = M.filter (fun n _ -> Signature.mem sign n) a.rels in
  { sign; order = a.order; rels; gaifman = None }

let of_graph g =
  let es = Foc_graph.Graph.edges g in
  let tuples =
    List.concat_map (fun (u, v) -> [ [| u; v |]; [| v; u |] ]) es
  in
  create Signature.graph ~order:(Foc_graph.Graph.order g) [ ("E", tuples) ]

let equal a b =
  a.order = b.order
  && Signature.equal a.sign b.sign
  && M.equal (fun r1 r2 -> TS.equal r1.rows r2.rows) a.rels b.rels

(* Cheap isomorphism invariants, checked before the factorial permutation
   search: per-relation cardinalities, and for each relation/position the
   sorted multiset of per-element occurrence counts (which subsumes the
   Gaifman degree multiset for binary relations). O(size) total, so
   trivially non-isomorphic pairs never reach the n! search. *)
let occurrence_profile a name pos =
  let counts = Array.make a.order 0 in
  let s = rel a name in
  for r = 0 to s.nrows - 1 do
    let v = TS.cell s r pos in
    counts.(v) <- counts.(v) + 1
  done;
  Array.sort Int.compare counts;
  counts

let isomorphism_plausible a b =
  Signature.to_list a.sign
  |> List.for_all (fun (name, arity) ->
         TS.cardinal (rel a name) = TS.cardinal (rel b name)
         &&
         let ok = ref true in
         for pos = 0 to arity - 1 do
           if
             !ok
             && occurrence_profile a name pos <> occurrence_profile b name pos
           then ok := false
         done;
         !ok)
  && begin
       let deg g = Array.init a.order (Foc_graph.Graph.degree g) in
       let da = deg (gaifman a) and db = deg (gaifman b) in
       Array.sort Int.compare da;
       Array.sort Int.compare db;
       da = db
     end

let isomorphic a b =
  a.order = b.order
  && Signature.equal a.sign b.sign
  && isomorphism_plausible a b
  &&
  (* try all permutations of the (small) universe *)
  let n = a.order in
  let perm = Array.init n (fun i -> i) in
  let applies () =
    Signature.to_list a.sign
    |> List.for_all (fun (name, _) ->
           TS.equal (TS.map (fun x -> perm.(x)) (rel a name)) (rel b name))
  in
  let rec permute i =
    if i = n then applies ()
    else begin
      let found = ref false in
      let j = ref i in
      while (not !found) && !j < n do
        let tmp = perm.(i) in
        perm.(i) <- perm.(!j);
        perm.(!j) <- tmp;
        if permute (i + 1) then found := true
        else begin
          let tmp = perm.(i) in
          perm.(i) <- perm.(!j);
          perm.(!j) <- tmp
        end;
        incr j
      done;
      !found
    end
  in
  permute 0

let pp ppf a =
  Format.fprintf ppf "@[<v>structure order=%d sig=%a" a.order Signature.pp
    a.sign;
  M.iter
    (fun name r ->
      if not (TS.is_empty r.rows) then
        Format.fprintf ppf "@,  %s = {%a}" name
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
             Tuple.pp)
          (TS.elements r.rows))
    a.rels;
  Format.fprintf ppf "@]"
