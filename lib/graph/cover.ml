type t = {
  r : int;
  clusters : int array array;
  assign : int array;
  centres : int array;
}

let make g ~r =
  if r < 0 then invalid_arg "Cover.make: negative radius";
  let n = Graph.order g in
  let assign = Array.make n (-1) in
  let clusters = ref [] and centres = ref [] in
  let count = ref 0 in
  (* one BFS arena for every cluster: no table or list per ball *)
  let s = Bfs.searcher g in
  for c = 0 to n - 1 do
    if assign.(c) < 0 then begin
      let members = Bfs.ball_sorted s ~centres:[ c ] ~radius:(2 * r) in
      let id = !count in
      incr count;
      clusters := members :: !clusters;
      centres := c :: !centres;
      (* every still-unassigned vertex within distance r of the centre can
         use this cluster: its r-ball sits inside N_2r(c). *)
      Array.iter
        (fun v ->
          if Bfs.dist_of s v <= r && assign.(v) < 0 then assign.(v) <- id)
        members
    end
  done;
  let clusters = Array.of_list (List.rev !clusters) in
  let centres = Array.of_list (List.rev !centres) in
  { r; clusters; assign; centres }

(* ------------------------------------------------------------------ *)
(* Flat core for the persistent store: the record is already flat, so
   [to_flat] just exposes it. [of_flat] re-validates the cover invariants —
   membership bounds, sortedness, every vertex assigned to a cluster that
   really contains it — before the binary-searching accessors ever see
   the arrays. *)

type flat = {
  fr : int;
  fclusters : int array array;
  fassign : int array;
  fcentres : int array;
}

let to_flat t =
  { fr = t.r; fclusters = t.clusters; fassign = t.assign;
    fcentres = t.centres }

let member_sorted members v =
  let lo = ref 0 and hi = ref (Array.length members) in
  let found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if members.(mid) = v then found := true
    else if members.(mid) < v then lo := mid + 1
    else hi := mid
  done;
  !found

let of_flat f =
  let fail msg = invalid_arg ("Cover.of_flat: " ^ msg) in
  if f.fr < 0 then fail "negative radius";
  let n = Array.length f.fassign in
  let k = Array.length f.fclusters in
  if Array.length f.fcentres <> k then fail "centres length <> cluster count";
  Array.iter
    (fun c -> if c < 0 || c >= n then fail "centre out of range")
    f.fcentres;
  Array.iter
    (fun id -> if id < 0 || id >= k then fail "assignment out of range")
    f.fassign;
  (* one scan of the clusters checks their members and marks each vertex
     found in the cluster it is assigned to *)
  let placed = Bytes.make n '\000' in
  Array.iteri
    (fun id members ->
      let prev = ref (-1) in
      for i = 0 to Array.length members - 1 do
        let v = members.(i) in
        if v < 0 || v >= n then fail "cluster member out of range";
        if v <= !prev then fail "cluster not sorted strictly";
        prev := v;
        if f.fassign.(v) = id then Bytes.set placed v '\001'
      done)
    f.fclusters;
  if Bytes.contains placed '\000' then
    fail "vertex assigned to a cluster not containing it";
  { r = f.fr; clusters = f.fclusters; assign = f.fassign;
    centres = f.fcentres }

let radius_param t = t.r
let cluster_count t = Array.length t.clusters
let cluster t i = t.clusters.(i)
let assigned t a = t.assign.(a)
let centre t i = t.centres.(i)

let kernel t i =
  let acc = ref [] in
  Array.iter
    (fun v -> if t.assign.(v) = i then acc := v :: !acc)
    t.clusters.(i);
  Array.of_list (List.rev !acc)

let clusters_containing t a =
  List.filter
    (fun i -> member_sorted t.clusters.(i) a)
    (List.init (Array.length t.clusters) Fun.id)

let max_degree t =
  let degree = Array.make (Array.length t.assign) 0 in
  Array.iter (Array.iter (fun v -> degree.(v) <- degree.(v) + 1)) t.clusters;
  Array.fold_left max 0 degree

let max_cluster_radius t g =
  Array.to_list t.clusters
  |> List.mapi (fun i members ->
         Bfs.eccentricity_within g (Array.to_list members) t.centres.(i))
  |> List.fold_left max 0

let covers_tuple t g ~s i vs =
  List.for_all (member_sorted t.clusters.(i)) (Bfs.ball g ~centres:vs ~radius:s)

let total_weight t =
  Array.fold_left (fun acc c -> acc + Array.length c) 0 t.clusters
