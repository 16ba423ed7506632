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
  let tbl = Hashtbl.create (min 1024 (t.core.nrows + 1)) in
  for r = 0 to t.core.nrows - 1 do
    let v = t.core.data.((r * t.core.width) + j) in
    Hashtbl.replace tbl v
      (1 + Option.value ~default:0 (Hashtbl.find_opt tbl v))
  done;
  let pairs = Hashtbl.fold (fun v c acc -> (v, c) :: acc) tbl [] in
  Array.of_list (List.sort (fun (a, _) (b, _) -> Int.compare a b) pairs)

(* ---- iteration ---- *)

let core t = t.core
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
  project t target

(* ---- filters (order-preserving, no re-sort needed) ---- *)

let filter_rows t keep =
  let b = TS.Builder.create ~hint:(max 1 t.core.nrows) t.core.width in
  for r = 0 to t.core.nrows - 1 do
    if keep r then TS.Builder.add_sub b t.core.data (r * t.core.width)
  done;
  of_core t.vars (TS.Builder.build_sorted b)

let filter t f =
  let scratch = Array.make t.core.width 0 in
  filter_rows t (fun r ->
      Array.blit t.core.data (r * t.core.width) scratch 0 t.core.width;
      f scratch)

(* keep the rows whose column [x] equals column [y] *)
let select_eq t x y =
  let ix = column_index t x and iy = column_index t y in
  if ix = iy then t
  else
    filter_rows t (fun r ->
        t.core.data.(r * t.core.width + ix) = t.core.data.(r * t.core.width + iy))

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

(* ---- key packing ----

   Shared-column keys are packed into a single tagless int when the value
   range allows it (base^k < 2^62): hash joins and anti-joins then run on
   unboxed int keys with zero per-row allocation. *)

let packable base k =
  base > 0
  &&
  let lim = max_int / 4 in
  let rec go acc i =
    if i = 0 then true else if acc > lim / base then false else go (acc * base) (i - 1)
  in
  go 1 k

let max_on_columns t cols =
  let m = ref 0 in
  for r = 0 to t.core.nrows - 1 do
    let base = r * t.core.width in
    Array.iter (fun c -> if t.core.data.(base + c) > !m then m := t.core.data.(base + c)) cols
  done;
  !m

let pack_key data base_ofs (cols : int array) base =
  let k = Array.length cols in
  let key = ref 0 in
  for i = k - 1 downto 0 do
    key := (!key * base) + data.(base_ofs + cols.(i))
  done;
  !key

(* ---- join ---- *)

let shared_columns t1 t2 =
  (* shared vars in t2 order, as (index in t1, index in t2) column pairs *)
  let pairs = ref [] in
  Array.iteri
    (fun j x -> if has_column t1 x then pairs := (column_index t1 x, j) :: !pairs)
    t2.vars;
  let pairs = Array.of_list (List.rev !pairs) in
  (Array.map fst pairs, Array.map snd pairs)

let fresh_columns t1 t2 =
  let idx = ref [] in
  Array.iteri
    (fun j x -> if not (has_column t1 x) then idx := j :: !idx)
    t2.vars;
  Array.of_list (List.rev !idx)

(* generic hash index over the key columns of [t]: returns a lookup
   function row-offset-consumer… represented as (find : int array -> int ->
   int) giving the head of a chain into [next], or -1. Falls back to boxed
   int-array keys when packing overflows. *)
type index = {
  find : int array -> int -> int; (* (data, row_ofs) of the probe side -> chain head *)
  next : int array;
}

let build_index build (bcols : int array) (pcols : int array) pdata_max =
  let k = Array.length bcols in
  let base = 1 + max (max_on_columns build bcols) pdata_max in
  let next = Array.make (max 1 build.core.nrows) (-1) in
  if packable base k then begin
    let tbl = Hashtbl.create (max 16 (2 * build.core.nrows)) in
    for r = 0 to build.core.nrows - 1 do
      let key = pack_key build.core.data (r * build.core.width) bcols base in
      (match Hashtbl.find_opt tbl key with
      | Some h -> next.(r) <- h
      | None -> ());
      Hashtbl.replace tbl key r
    done;
    let find data ofs =
      let key = pack_key data ofs pcols base in
      match Hashtbl.find_opt tbl key with Some h -> h | None -> -1
    in
    { find; next }
  end
  else begin
    (* boxed fallback: key is a fresh int array per build row (rare) *)
    let tbl = Hashtbl.create (max 16 (2 * build.core.nrows)) in
    let extract data ofs (cols : int array) =
      Array.map (fun c -> data.(ofs + c)) cols
    in
    for r = 0 to build.core.nrows - 1 do
      let key = extract build.core.data (r * build.core.width) bcols in
      (match Hashtbl.find_opt tbl key with
      | Some h -> next.(r) <- h
      | None -> ());
      Hashtbl.replace tbl key r
    done;
    let find data ofs =
      match Hashtbl.find_opt tbl (extract data ofs pcols) with
      | Some h -> h
      | None -> -1
    in
    { find; next }
  end

(* keep (semijoin) or drop (antijoin) the rows of [t1] that have a match in
   [t2] on the shared columns; the output is a filtered [t1], still sorted *)
let membership_filter ~keep t1 t2 =
  let c1, c2 = shared_columns t1 t2 in
  if Array.length c1 = 0 then
    if (t2.core.nrows > 0) = keep then t1 else empty_like t1.vars
  else if t2.core.nrows = 0 then if keep then empty_like t1.vars else t1
  else begin
    let idx = build_index t2 c2 c1 (max_on_columns t1 c1) in
    filter_rows t1 (fun r -> idx.find t1.core.data (r * t1.core.width) >= 0 = keep)
  end

let semijoin t1 t2 =
  Eval_obs.note_semijoin ();
  membership_filter ~keep:true t1 t2

let antijoin t1 t2 =
  Eval_obs.note_antijoin ();
  membership_filter ~keep:false t1 t2

let join t1 t2 =
  let fresh2 = fresh_columns t1 t2 in
  let out_vars = Array.append t1.vars (Array.map (fun j -> t2.vars.(j)) fresh2) in
  if t1.core.nrows = 0 || t2.core.nrows = 0 then empty_like out_vars
  else if Array.length fresh2 = 0 then
    (* no fresh columns: the join is a semijoin filter on t1 *)
    { (semijoin t1 t2) with vars = out_vars }
  else begin
    let c1, c2 = shared_columns t1 t2 in
    let kf = Array.length fresh2 in
    let width_out = t1.core.width + kf in
    let b = TS.Builder.create ~hint:(max t1.core.nrows t2.core.nrows) width_out in
    let scratch = Array.make (max 1 width_out) 0 in
    let emit r1 r2 =
      Array.blit t1.core.data (r1 * t1.core.width) scratch 0 t1.core.width;
      for i = 0 to kf - 1 do
        scratch.(t1.core.width + i) <- t2.core.data.((r2 * t2.core.width) + fresh2.(i))
      done;
      TS.Builder.add b scratch
    in
    if Array.length c1 = 0 then begin
      (* cross product; r1-major emission keeps the output sorted *)
      Eval_obs.note_join ~build:(min t1.core.nrows t2.core.nrows)
        ~probe:(max t1.core.nrows t2.core.nrows);
      for r1 = 0 to t1.core.nrows - 1 do
        for r2 = 0 to t2.core.nrows - 1 do
          emit r1 r2
        done
      done;
      of_core out_vars (TS.Builder.build_sorted b)
    end
    else begin
      (* hash join, building on the smaller side *)
      if t1.core.nrows <= t2.core.nrows then begin
        Eval_obs.note_join ~build:t1.core.nrows ~probe:t2.core.nrows;
        let idx = build_index t1 c1 c2 (max_on_columns t2 c2) in
        for r2 = 0 to t2.core.nrows - 1 do
          let h = ref (idx.find t2.core.data (r2 * t2.core.width)) in
          while !h >= 0 do
            emit !h r2;
            h := idx.next.(!h)
          done
        done
      end
      else begin
        Eval_obs.note_join ~build:t2.core.nrows ~probe:t1.core.nrows;
        let idx = build_index t2 c2 c1 (max_on_columns t1 c1) in
        for r1 = 0 to t1.core.nrows - 1 do
          let h = ref (idx.find t1.core.data (r1 * t1.core.width)) in
          while !h >= 0 do
            emit r1 !h;
            h := idx.next.(!h)
          done
        done
      end;
      (* distinct inputs give distinct outputs; order needs restoring *)
      of_core out_vars (TS.Builder.build b)
    end
  end

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

(* ---- union / diff (sorted merges) ---- *)

let union t1 t2 =
  let t2 = align t2 t1.vars in
  if t1.core.width = 0 then if t1.core.nrows + t2.core.nrows > 0 then unit else zero
  else of_core t1.vars (TS.union t1.core t2.core)

let diff t1 t2 =
  let t2 = align t2 t1.vars in
  if t1.core.width = 0 then if t1.core.nrows = 1 && t2.core.nrows = 0 then unit else zero
  else of_core t1.vars (TS.diff t1.core t2.core)

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

let bind t binding =
  let checks =
    List.filter_map
      (fun (x, v) ->
        if has_column t x then Some (column_index t x, v) else None)
      binding
  in
  let rest =
    Array.of_list
      (List.filter
         (fun x -> not (List.mem_assoc x binding))
         (Array.to_list t.vars))
  in
  let keep =
    filter_rows t (fun r ->
        List.for_all (fun (i, v) -> t.core.data.((r * t.core.width) + i) = v) checks)
  in
  (* bound columns are constant over [keep]: projecting them away keeps the
     remaining rows sorted and distinct *)
  let idx = Array.map (fun x -> column_index keep x) rest in
  let k = Array.length rest in
  if k = 0 then if keep.core.nrows = 0 then zero else unit
  else begin
    let out = Array.make (max 1 (keep.core.nrows * k)) 0 in
    for r = 0 to keep.core.nrows - 1 do
      for i = 0 to k - 1 do
        out.((r * k) + i) <- keep.core.data.((r * keep.core.width) + idx.(i))
      done
    done;
    of_sorted rest out keep.core.nrows
  end

let equal t1 t2 =
  let s1 = List.sort Var.compare (Array.to_list t1.vars) in
  let s2 = List.sort Var.compare (Array.to_list t2.vars) in
  s1 = s2 && TS.equal t1.core (align t2 t1.vars).core

let pp ppf t =
  Format.fprintf ppf "@[<v>cols: %s@,%a@]"
    (String.concat ", " (Array.to_list t.vars))
    (Format.pp_print_list Foc_data.Tuple.pp)
    (TS.elements t.core)
