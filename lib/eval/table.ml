open Foc_logic
module TS = Foc_data.Tuple.Set

(* Column names over the packed relation core (Foc_data.Tuple.Set); every
   kernel below preserves (or restores) its sorted, deduplicated rows. *)

type t = { vars : Var.t array; core : TS.t }

let vars t = t.vars
let cardinal t = t.core.nrows
let is_empty t = t.core.nrows = 0

(* every table built at run time passes here, so each is counted once *)
let of_core vars (core : TS.t) =
  Eval_obs.note_table ~rows:core.nrows ~words:(core.nrows * core.width);
  { vars; core }

(* rows already sorted+distinct by construction *)
let of_sorted vars data nrows = of_core vars (TS.of_sorted (Array.length vars) data nrows)
let of_dense vars data nrows = of_core vars (TS.of_dense (Array.length vars) data nrows)

(* ---- constructors ---- *)

let validate_vars vars =
  let k = Array.length vars in
  if List.length (List.sort_uniq Var.compare (Array.to_list vars)) <> k then
    invalid_arg "Table.create: repeated column"

let of_rows vars row_list =
  validate_vars vars;
  let k = Array.length vars in
  List.iter
    (fun r -> if Array.length r <> k then invalid_arg "Table.create: row arity")
    row_list;
  of_core vars (TS.of_list k row_list)

let unit = { vars = [||]; core = TS.of_sorted 0 [||] 1 }
let zero = { vars = [||]; core = TS.empty 0 }
let empty_like vars = of_sorted vars [||] 0

let full n vars =
  validate_vars vars;
  let k = Array.length vars in
  let rec pow acc i = if i = 0 then acc else pow (acc * n) (i - 1) in
  let total = pow 1 k in
  let data = Array.make (max 1 (total * k)) 0 in
  let r = ref 0 in
  Foc_util.Combi.iter_tuples n k (fun tup ->
      Array.blit tup 0 data (!r * k) k;
      incr r);
  (* lexicographic enumeration: sorted and distinct by construction *)
  of_sorted vars data total

let column_index t x =
  let rec go i =
    if i = Array.length t.vars then raise Not_found
    else if Var.equal t.vars.(i) x then i
    else go (i + 1)
  in
  go 0

let has_column t x = Array.exists (Var.equal x) t.vars

(* value frequencies of one column, sorted by value — the raw material of
   a planner {!Foc_stats.Summary} for an intermediate table *)
let column_counts t x =
  let j = column_index t x in
  let m = t.core.nrows in
  let col = Array.init m (fun r -> TS.cell t.core r j) in
  (* the first column is already sorted: rows are *)
  if j > 0 then Foc_util.Int_sort.sort col;
  let out = Array.make m (0, 0) and g = ref 0 in
  let r = ref 0 in
  while !r < m do
    let v = col.(!r) and s = !r in
    while !r < m && col.(!r) = v do
      incr r
    done;
    out.(!g) <- (v, !r - s);
    incr g
  done;
  Array.sub out 0 !g

(* ---- iteration ---- *)

let iter t f = TS.iter f t.core

(* ---- projection / alignment ---- *)

let project t target =
  let idx = Array.map (fun x -> column_index t x) target in
  let k = Array.length target in
  if k = 0 then if t.core.nrows = 0 then empty_like target else of_sorted target [||] 1
  else begin
    let out = Array.make (max 1 (t.core.nrows * k)) 0 in
    for r = 0 to t.core.nrows - 1 do
      let src = r * t.core.width and dst = r * k in
      for i = 0 to k - 1 do
        out.(dst + i) <- t.core.data.(src + idx.(i))
      done
    done;
    of_dense target out t.core.nrows
  end

let align t target =
  if
    Array.length target <> Array.length t.vars
    || not (Array.for_all (fun x -> has_column t x) target)
  then invalid_arg "Table.align: not a permutation";
  if target = t.vars then t else project t target

(* ---- selection / column copy (order-preserving, no re-sort) ---- *)

(* keep the rows whose column [x] equals column [y] *)
let select_eq t x y =
  let ix = column_index t x and iy = column_index t y in
  if ix = iy then t
  else begin
    let b = TS.Builder.create ~hint:(max 1 t.core.nrows) t.core.width in
    for r = 0 to t.core.nrows - 1 do
      let ofs = r * t.core.width in
      if t.core.data.(ofs + ix) = t.core.data.(ofs + iy) then
        TS.Builder.add_sub b t.core.data ofs
    done;
    of_core t.vars (TS.Builder.build_sorted b)
  end

(* append a column [dst] duplicating [src]; comparing two rows first differs
   on an original column, so sortedness and distinctness are preserved *)
let duplicate_column t ~src ~dst =
  if has_column t dst then invalid_arg "Table.duplicate_column: column exists";
  let is = column_index t src in
  let k = t.core.width + 1 in
  let out = Array.make (max 1 (t.core.nrows * k)) 0 in
  for r = 0 to t.core.nrows - 1 do
    Array.blit t.core.data (r * t.core.width) out (r * k) t.core.width;
    out.((r * k) + t.core.width) <- t.core.data.((r * t.core.width) + is)
  done;
  of_sorted (Array.append t.vars [| dst |]) out t.core.nrows

(* ---- joins: drains of the one leapfrog kernel ---- *)

(* [t] as a kernel atom under [order]: its projection onto the columns
   [order] mentions, re-sorted into [order] only when they are out of
   order (those rows are the join.build_rows) *)
let atom ?(neg = false) ~order t =
  let depth x =
    let rec go i =
      if i = Array.length order then -1
      else if Var.equal order.(i) x then i
      else go (i + 1)
    in
    go 0
  in
  let cols =
    List.filter (fun x -> depth x >= 0) (Array.to_list t.vars)
    |> List.sort (fun x y -> Int.compare (depth x) (depth y))
    |> Array.of_list
  in
  let t =
    if cols = t.vars then t
    else begin
      Eval_obs.note_join_build ~rows:t.core.nrows;
      project t cols
    end
  in
  { Leapfrog.core = t.core; pos = Array.map depth cols; neg }

let of_search vars next =
  let b = TS.Builder.create (Array.length vars) in
  let rec go () =
    match next () with
    | Some row ->
        TS.Builder.add b row;
        go ()
    | None -> ()
  in
  go ();
  of_core vars (TS.Builder.build_sorted b)

(* [n] bounds only the depths no positive atom covers *)
let drain ~n vars atoms =
  of_search vars (Leapfrog.search ~n ~width:(Array.length vars) atoms)

(* natural join in the order [vars t1 @ fresh t2]: [t1] drives and is
   already aligned; the bindings come out sorted *)
let join t1 t2 =
  let fresh = List.filter (fun x -> not (has_column t1 x)) (Array.to_list t2.vars) in
  let order = Array.append t1.vars (Array.of_list fresh) in
  Eval_obs.note_join ~probe:t1.core.nrows;
  drain ~n:max_int order [ atom ~order t1; atom ~order t2 ]

(* [t1] against the shared-column projection of [t2], kept or negated *)
let semijoin t1 t2 =
  Eval_obs.note_semijoin ~probe:t1.core.nrows;
  drain ~n:max_int t1.vars [ atom ~order:t1.vars t1; atom ~order:t1.vars t2 ]

(* [t ∧ ¬t2] in the order [vars t @ missing]: the depths of the columns
   [t] lacks range over [0..n-1], so no padded product is built *)
let antijoin ~n t t2 =
  let missing =
    List.filter (fun x -> not (has_column t x)) (Array.to_list t2.vars)
  in
  let order = Array.append t.vars (Array.of_list missing) in
  Eval_obs.note_antijoin ~probe:t.core.nrows;
  drain ~n order [ atom ~order t; atom ~neg:true ~order t2 ]

(* ---- cross-product extension / complement ---- *)

let extend_full t n extra =
  Array.iter
    (fun x ->
      if has_column t x then invalid_arg "Table.extend_full: column exists")
    extra;
  let k = Array.length extra in
  if k = 0 then t
  else begin
    let rec pow acc i = if i = 0 then acc else pow (acc * n) (i - 1) in
    let reps = pow 1 k in
    let width_out = t.core.width + k in
    let out = Array.make (max 1 (t.core.nrows * reps * width_out)) 0 in
    let r = ref 0 in
    for r1 = 0 to t.core.nrows - 1 do
      Foc_util.Combi.iter_tuples n k (fun tup ->
          Array.blit t.core.data (r1 * t.core.width) out (!r * width_out) t.core.width;
          Array.blit tup 0 out ((!r * width_out) + t.core.width) k;
          incr r)
    done;
    (* appended columns cycle fastest: sorted and distinct by construction *)
    of_sorted (Array.append t.vars extra) out (t.core.nrows * reps)
  end

let complement t n =
  (* merge-scan against the lexicographic enumeration of the full product —
     the n^k escape hatch; the planner's anti-joins exist to avoid this *)
  let k = t.core.width in
  let rec pow acc i = if i = 0 then acc else pow (acc * n) (i - 1) in
  let total = pow 1 k in
  Eval_obs.note_complement ~rows:(total - t.core.nrows);
  if k = 0 then if t.core.nrows = 0 then unit else zero
  else begin
    let out = Array.make (max 1 ((total - t.core.nrows) * k)) 0 in
    let p = ref 0 (* next unmatched row of t *)
    and r = ref 0 in
    Foc_util.Combi.iter_tuples n k (fun tup ->
        if !p < t.core.nrows && TS.cmp2 tup 0 t.core.data (!p * k) k = 0 then incr p
        else begin
          Array.blit tup 0 out (!r * k) k;
          incr r
        end);
    of_sorted t.vars out !r
  end

(* ---- union (sorted merge) ---- *)

let union t1 t2 =
  let t2 = align t2 t1.vars in
  if t1.core.width = 0 then if t1.core.nrows + t2.core.nrows > 0 then unit else zero
  else of_core t1.vars (TS.union t1.core t2.core)

(* ---- grouping ---- *)

let group_count t target =
  (* project [t] onto [target] and count the rows behind each distinct
     projection; keys come back sorted lexicographically *)
  let idx = Array.map (fun x -> column_index t x) target in
  let k = Array.length target in
  if k = 0 then ([||], if t.core.nrows = 0 then [||] else [| t.core.nrows |])
  else begin
    let buf = Array.make (max 1 (t.core.nrows * k)) 0 in
    for r = 0 to t.core.nrows - 1 do
      let src = r * t.core.width and dst = r * k in
      for i = 0 to k - 1 do
        buf.(dst + i) <- t.core.data.(src + idx.(i))
      done
    done;
    let order = Array.init t.core.nrows (fun i -> i) in
    Array.sort (fun i j -> TS.cmp2 buf (i * k) buf (j * k) k) order;
    let keys = Array.make (max 1 (t.core.nrows * k)) 0 in
    let counts = Array.make (max 1 t.core.nrows) 0 in
    let g = ref 0 in
    for r = 0 to t.core.nrows - 1 do
      let src = order.(r) * k in
      if !g = 0 || TS.cmp2 keys ((!g - 1) * k) buf src k <> 0 then begin
        Array.blit buf src keys (!g * k) k;
        counts.(!g) <- 1;
        incr g
      end
      else counts.(!g - 1) <- counts.(!g - 1) + 1
    done;
    (Array.sub keys 0 (!g * k), Array.sub counts 0 !g)
  end

let divide t y n =
  (* relational division by the full domain: the rows over vars∖{y} whose
     group in [t] contains all [n] values of [y] — [Forall y] in one pass *)
  Eval_obs.note_division ();
  let target =
    Array.of_list
      (List.filter (fun x -> not (Var.equal x y)) (Array.to_list t.vars))
  in
  let keys, counts = group_count t target in
  let k = Array.length target in
  if k = 0 then if Array.length counts = 1 && counts.(0) = n then unit else zero
  else begin
    let g = Array.length counts in
    let out = Array.make (max 1 (g * k)) 0 in
    let r = ref 0 in
    for i = 0 to g - 1 do
      if counts.(i) = n then begin
        Array.blit keys (i * k) out (!r * k) k;
        incr r
      end
    done;
    of_sorted target out !r
  end

(* ---- binding / equality / printing ---- *)

(* a semijoin with the binding's one-row table, so the kernel seeks
   straight to the matching rows; the bound columns are then constant, so
   projecting them away keeps the rows sorted and distinct *)
let bind t binding =
  let bound = List.filter (fun (x, _) -> has_column t x) binding in
  let sel =
    of_rows (Array.of_list (List.map fst bound)) [ Array.of_list (List.map snd bound) ]
  in
  project (semijoin t sel)
    (Array.of_list
       (List.filter (fun x -> not (List.mem_assoc x bound)) (Array.to_list t.vars)))

let equal t1 t2 =
  let s1 = List.sort Var.compare (Array.to_list t1.vars) in
  let s2 = List.sort Var.compare (Array.to_list t2.vars) in
  s1 = s2 && TS.equal t1.core (align t2 t1.vars).core

let pp ppf t =
  Format.fprintf ppf "@[<v>cols: %s@,%a@]"
    (String.concat ", " (Array.to_list t.vars))
    (Format.pp_print_list Foc_data.Tuple.pp)
    (TS.elements t.core)
