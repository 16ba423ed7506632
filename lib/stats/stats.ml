module Structure = Foc_data.Structure
module TS = Foc_data.Tuple.Set

(* One column: exact value -> count table (incremental, always current)
   plus a cached summary rebuilt only when [stale] updates have
   accumulated since it was built. *)
type col = {
  counts : (int, int) Hashtbl.t;
  mutable summ : Summary.t option;
  mutable stale : int;
}

type rstat = { mutable rows : int; cols : col array }
type t = { buckets : int; rels : (string, rstat) Hashtbl.t }

let buckets t = t.buckets

let col_bump c v delta =
  let old = match Hashtbl.find_opt c.counts v with Some k -> k | None -> 0 in
  let now = old + delta in
  if now <= 0 then Hashtbl.remove c.counts v
  else Hashtbl.replace c.counts v now;
  c.stale <- c.stale + 1;
  (* rebuild-on-threshold: keep the summary until the column has drifted
     by a constant plus a fraction of its size *)
  match c.summ with
  | Some s when c.stale > 16 + (s.Summary.rows / 8) -> c.summ <- None
  | _ -> ()

let default_buckets = 64

let collect ?(buckets = default_buckets) a =
  let rels = Hashtbl.create 16 in
  List.iter
    (fun (name, arity) ->
      let tuples = Structure.rel a name in
      let cols =
        Array.init arity (fun _ ->
            { counts = Hashtbl.create 64; summ = None; stale = 0 })
      in
      for r = 0 to tuples.nrows - 1 do
        for i = 0 to arity - 1 do
          let c = cols.(i) in
          let v = TS.cell tuples r i in
          Hashtbl.replace c.counts v
            (1 + Option.value ~default:0 (Hashtbl.find_opt c.counts v))
        done
      done;
      Hashtbl.replace rels name { rows = tuples.nrows; cols })
    (Foc_data.Signature.to_list (Structure.signature a));
  { buckets; rels }

let row_count t name =
  match Hashtbl.find_opt t.rels name with Some r -> r.rows | None -> 0

let distinct_count t name i =
  match Hashtbl.find_opt t.rels name with
  | Some r when i >= 0 && i < Array.length r.cols ->
      Hashtbl.length r.cols.(i).counts
  | _ -> 0

let build_summary t c =
  let pairs =
    Hashtbl.fold (fun v k acc -> (v, k) :: acc) c.counts []
    |> List.sort (fun (v1, _) (v2, _) -> Int.compare v1 v2)
    |> Array.of_list
  in
  let s = Summary.of_counts ~buckets:t.buckets pairs in
  c.summ <- Some s;
  c.stale <- 0;
  s

let summary t name i =
  match Hashtbl.find_opt t.rels name with
  | Some r when i >= 0 && i < Array.length r.cols -> (
      let c = r.cols.(i) in
      match c.summ with Some s -> s | None -> build_summary t c)
  | _ -> Summary.empty

let update t name tup delta =
  match Hashtbl.find_opt t.rels name with
  | None -> ()
  | Some r ->
      r.rows <- r.rows + delta;
      Array.iteri (fun i c -> col_bump c tup.(i) delta) r.cols

let insert t name tup = update t name tup 1
let delete t name tup = update t name tup (-1)

(* ------------------------------------------------------------------ *)
(* Flat core for the persistent store: bucket budget plus, per relation,
   the row count and each column's exact counts as two parallel arrays,
   values increasing. Summaries are derived state (rebuilt lazily on
   threshold) and never serialised. Relations sorted by name so the encoding — and any
   checksum over it — is deterministic. *)

type flat = {
  fbuckets : int;
  frels : (string * int * (int array * int array) array) list;
}

let to_flat t =
  let frels =
    Hashtbl.fold
      (fun name r acc ->
        let cols =
          Array.map
            (fun c ->
              let vs = Array.of_seq (Hashtbl.to_seq_keys c.counts) in
              Array.sort Int.compare vs;
              (vs, Array.map (Hashtbl.find c.counts) vs))
            r.cols
        in
        (name, r.rows, cols) :: acc)
      t.rels []
    |> List.sort (fun (n1, _, _) (n2, _, _) -> String.compare n1 n2)
  in
  { fbuckets = t.buckets; frels }

let of_flat f =
  let fail msg = invalid_arg ("Stats.of_flat: " ^ msg) in
  let rels = Hashtbl.create 16 in
  List.iter
    (fun (name, rows, cols) ->
      if rows < 0 then fail "negative row count";
      if Hashtbl.mem rels name then fail "duplicate relation";
      let cols =
        Array.map
          (fun (vs, ks) ->
            let n = Array.length vs in
            if Array.length ks <> n then fail "values and counts differ";
            let counts = Hashtbl.create (max 16 n) in
            (* strictly increasing values, as [to_flat] writes them: no
               value repeats, so [add] never shadows an entry *)
            for i = 0 to n - 1 do
              if ks.(i) <= 0 then fail "non-positive value count";
              if i > 0 && vs.(i - 1) >= vs.(i) then
                fail "values not strictly increasing";
              Hashtbl.add counts vs.(i) ks.(i)
            done;
            { counts; summ = None; stale = 0 })
          cols
      in
      Hashtbl.replace rels name { rows; cols })
    f.frels;
  { buckets = f.fbuckets; rels }

let equal t1 t2 =
  let cols_equal c1 c2 =
    Hashtbl.length c1.counts = Hashtbl.length c2.counts
    && Hashtbl.fold
         (fun v k acc -> acc && Hashtbl.find_opt c2.counts v = Some k)
         c1.counts true
  in
  let rel_equal name r1 acc =
    acc
    &&
    match Hashtbl.find_opt t2.rels name with
    | Some r2 ->
        r1.rows = r2.rows
        && Array.length r1.cols = Array.length r2.cols
        && Array.for_all2 cols_equal r1.cols r2.cols
    | None -> false
  in
  Hashtbl.length t1.rels = Hashtbl.length t2.rels
  && Hashtbl.fold rel_equal t1.rels true

let approx_bytes t =
  let word = Sys.word_size / 8 in
  Hashtbl.fold
    (fun _ r acc ->
      Array.fold_left
        (fun acc c ->
          acc
          + (4 * word * Hashtbl.length c.counts)
          + (match c.summ with
            | Some s -> 6 * word * (1 + Array.length s.Summary.hist)
            | None -> 0)
          + (8 * word))
        (acc + 64) r.cols)
    t.rels 256

let line t =
  let fields = ref [] in
  Hashtbl.iter
    (fun name r ->
      fields := Printf.sprintf "%s.rows=%d" name r.rows :: !fields;
      Array.iteri
        (fun i c ->
          fields :=
            Printf.sprintf "%s.col%d.distinct=%d" name i
              (Hashtbl.length c.counts)
            :: !fields)
        r.cols)
    t.rels;
  String.concat " " (List.sort compare !fields)
