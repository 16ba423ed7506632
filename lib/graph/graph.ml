(* Compressed sparse row: vertex [v]'s neighbours are
   [targets.(offsets.(v)) .. targets.(offsets.(v+1) - 1)], sorted and
   duplicate-free. One flat pair of int arrays instead of an array of
   per-vertex arrays keeps the whole adjacency structure in two contiguous
   blocks — the BFS inner loop walks it without pointer chasing. *)
type t = { n : int; offsets : int array; targets : int array; m : int }

(* Count-then-fill construction: [iter] must enumerate the same multiset of
   edges on every call (it is invoked twice). Self-loops are dropped,
   duplicates merged; no intermediate (u, v) list is ever materialised. *)
let build n iter =
  if n < 0 then invalid_arg "Graph.create: negative order";
  let check v =
    if v < 0 || v >= n then invalid_arg "Graph.create: vertex out of range"
  in
  (* pass 1: half-edge counts *)
  let deg = Array.make (n + 1) 0 in
  iter (fun u v ->
      check u;
      check v;
      if u <> v then begin
        deg.(u) <- deg.(u) + 1;
        deg.(v) <- deg.(v) + 1
      end);
  let offsets = Array.make (n + 1) 0 in
  for v = 1 to n do
    offsets.(v) <- offsets.(v - 1) + deg.(v - 1)
  done;
  let half = offsets.(n) in
  let targets = Array.make (max half 1) 0 in
  (* pass 2: fill via per-vertex cursors (reuse [deg] as the cursor array) *)
  Array.blit offsets 0 deg 0 n;
  iter (fun u v ->
      if u <> v then begin
        targets.(deg.(u)) <- v;
        deg.(u) <- deg.(u) + 1;
        targets.(deg.(v)) <- u;
        deg.(v) <- deg.(v) + 1
      end);
  (* sort each segment, dedup in place, then compact left *)
  let write = ref 0 in
  let seg_start = ref 0 in
  for v = 0 to n - 1 do
    let seg_end = offsets.(v + 1) in
    let len = seg_end - !seg_start in
    Foc_util.Int_sort.sort_range targets ~pos:!seg_start ~len;
    let len' =
      Foc_util.Int_sort.dedup_sorted_range targets ~pos:!seg_start ~len
    in
    if !write <> !seg_start then
      Array.blit targets !seg_start targets !write len';
    offsets.(v) <- !write;
    write := !write + len';
    seg_start := seg_end
  done;
  offsets.(n) <- !write;
  let targets = if !write = Array.length targets then targets else Array.sub targets 0 (max !write 0) in
  { n; offsets; targets; m = !write / 2 }

let create n edge_list =
  build n (fun emit -> List.iter (fun (u, v) -> emit u v) edge_list)

let order g = g.n
let edge_count g = g.m
let size g = g.n + g.m

let adj_start g v = g.offsets.(v)
let adj_stop g v = g.offsets.(v + 1)
let adj_target g i = Array.unsafe_get g.targets i

let degree g v = g.offsets.(v + 1) - g.offsets.(v)

let neighbours g v =
  Array.sub g.targets g.offsets.(v) (g.offsets.(v + 1) - g.offsets.(v))

let iter_neighbours g v f =
  for i = g.offsets.(v) to g.offsets.(v + 1) - 1 do
    f (Array.unsafe_get g.targets i)
  done

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    let d = degree g v in
    if d > !best then best := d
  done;
  !best

let mem_edge g u v =
  u <> v
  &&
  (* binary search in the sorted adjacency segment *)
  let lo = ref g.offsets.(u) and hi = ref g.offsets.(u + 1) in
  let found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let x = g.targets.(mid) in
    if x = v then found := true else if x < v then lo := mid + 1 else hi := mid
  done;
  !found

let edges g =
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    for i = g.offsets.(u + 1) - 1 downto g.offsets.(u) do
      let v = g.targets.(i) in
      if u < v then acc := (u, v) :: !acc
    done
  done;
  !acc

let induced g vs =
  let vs = List.sort_uniq Int.compare vs in
  List.iter
    (fun v ->
      if v < 0 || v >= g.n then invalid_arg "Graph.induced: vertex out of range")
    vs;
  let old_of_new = Array.of_list vs in
  let new_of_old = Array.make g.n (-1) in
  Array.iteri (fun i v -> new_of_old.(v) <- i) old_of_new;
  let sub =
    build (Array.length old_of_new) (fun emit ->
        Array.iteri
          (fun i v ->
            iter_neighbours g v (fun w ->
                if new_of_old.(w) > i then emit i new_of_old.(w)))
          old_of_new)
  in
  (sub, old_of_new)

(* one copy of the CSR arrays without [v]: renaming [w > v] to [w - 1] is
   monotone, so every segment stays sorted *)
let remove_vertex g v =
  if v < 0 || v >= g.n then
    invalid_arg "Graph.remove_vertex: vertex out of range";
  let ren w = if w < v then w else w - 1 in
  let n = g.n - 1 in
  let offsets = Array.make (n + 1) 0 in
  let targets = Array.make (g.offsets.(g.n) - (2 * degree g v)) 0 in
  let w = ref 0 in
  for u = 0 to g.n - 1 do
    if u <> v then begin
      offsets.(ren u) <- !w;
      for i = g.offsets.(u) to g.offsets.(u + 1) - 1 do
        let x = g.targets.(i) in
        if x <> v then begin
          targets.(!w) <- ren x;
          incr w
        end
      done
    end
  done;
  offsets.(n) <- !w;
  ( { n; offsets; targets; m = g.m - degree g v },
    Array.init n (fun i -> if i < v then i else i + 1) )

let union g1 g2 =
  let shift = g1.n in
  build (g1.n + g2.n) (fun emit ->
      for u = 0 to g1.n - 1 do
        for i = g1.offsets.(u) to g1.offsets.(u + 1) - 1 do
          let v = g1.targets.(i) in
          if u < v then emit u v
        done
      done;
      for u = 0 to g2.n - 1 do
        for i = g2.offsets.(u) to g2.offsets.(u + 1) - 1 do
          let v = g2.targets.(i) in
          if u < v then emit (u + shift) (v + shift)
        done
      done)

(* ------------------------------------------------------------------ *)
(* Flat (pointer-free) core for the persistent store: the CSR arrays are
   already the whole graph, so [to_flat] just exposes them (shared, not
   copied — callers must treat them as read-only) and [of_flat] validates
   every invariant [build] guarantees before re-wrapping them. Validation
   is what keeps a checksummed-but-wrong snapshot (e.g. written by a
   buggy encoder) from turning into out-of-bounds reads in the unsafe
   adjacency accessors. *)

type flat = { fn : int; foffsets : int array; ftargets : int array }

let to_flat g = { fn = g.n; foffsets = g.offsets; ftargets = g.targets }

let of_flat { fn; foffsets; ftargets } =
  let fail msg = invalid_arg ("Graph.of_flat: " ^ msg) in
  if fn < 0 then fail "negative order";
  if Array.length foffsets <> fn + 1 then fail "offsets length <> n + 1";
  let half = Array.length ftargets in
  if foffsets.(0) <> 0 || foffsets.(fn) <> half then
    fail "offsets do not span the target array";
  if half mod 2 <> 0 then fail "odd half-edge count";
  let g = { n = fn; offsets = foffsets; targets = ftargets; m = half / 2 } in
  for v = 0 to fn - 1 do
    if foffsets.(v + 1) < foffsets.(v) then fail "offsets not monotone";
    for i = foffsets.(v) to foffsets.(v + 1) - 1 do
      let w = ftargets.(i) in
      if w < 0 || w >= fn then fail "target out of range";
      if w = v then fail "self-loop";
      if i > foffsets.(v) && ftargets.(i - 1) >= w then
        fail "adjacency segment not sorted strictly"
    done
  done;
  (* symmetry: every half-edge must have its mirror, or [m] (and every
     undirected traversal) would be wrong *)
  for v = 0 to fn - 1 do
    for i = foffsets.(v) to foffsets.(v + 1) - 1 do
      if not (mem_edge g ftargets.(i) v) then fail "asymmetric adjacency"
    done
  done;
  g

let equal g1 g2 =
  g1.n = g2.n && g1.m = g2.m && g1.offsets = g2.offsets
  && g1.targets = g2.targets

let pp ppf g =
  Format.fprintf ppf "@[<h>n=%d, edges=[%a]@]" g.n
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       (fun ppf (u, v) -> Format.fprintf ppf "%d-%d" u v))
    (edges g)
