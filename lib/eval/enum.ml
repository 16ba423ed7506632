open Foc_logic

(* Pull-based answer enumeration (ROADMAP: Kazana–Segoufin-style
   preprocessing-then-enumeration, arXiv:1105.3583). A cursor yields query
   answers one at a time in the canonical order — ascending lexicographic
   on the head tuple, the order {!Relalg.query} materialises — so a
   streamed result is bit-identical to the materialised one, and [?after]
   resumption is a plain binary-search seek.

   Two producers: [of_table] streams an already-materialised table (the
   fallback: pay the full Relalg cost up front, then O(1) per row), and
   [walk] runs a leapfrog-style backtracking join over the sorted
   per-conjunct tables (linear-ish preprocessing, O(k·#conjuncts·log n)
   delay per answer, no output materialisation). *)

type row = int array * int array

type cursor = {
  producer : string;
  next : unit -> row option;
  close : unit -> unit;
}

let producer c = c.producer

(* Shared wrapper: limit enforcement, close/exhaustion latching, and the
   Eval_obs instrumentation (rows yielded, per-[next] delay histogram,
   time-to-first-row including producer preprocessing). *)
let make ?limit ~producer ~next:gen ~close () =
  Eval_obs.note_cursor_opened ();
  let opened_ns = Foc_obs.Clock.now_ns () in
  let yielded = ref 0 in
  let finished = ref false in
  let closed = ref false in
  let next () =
    if !finished || !closed then None
    else if (match limit with Some l -> !yielded >= l | None -> false) then begin
      finished := true;
      None
    end
    else begin
      let t0 = Foc_obs.Clock.now_ns () in
      match gen () with
      | None ->
          finished := true;
          None
      | Some _ as r ->
          let now = Foc_obs.Clock.now_ns () in
          if !yielded = 0 then Eval_obs.note_enum_first ~ns:(now - opened_ns);
          Eval_obs.note_enum_row ~delay_ns:(now - t0);
          incr yielded;
          r
    end
  in
  let close () =
    if not !closed then begin
      closed := true;
      close ()
    end
  in
  { producer; next; close }

module TS = Foc_data.Tuple.Set

let lex_gt a b = Foc_data.Tuple.compare a b > 0

(* ---- fallback producer: stream a materialised table ---- *)

let of_table ?limit ?after ~values tbl =
  let core = Table.core tbl in
  let start =
    match after with
    | None -> 0
    | Some key ->
        if Array.length key <> core.width then
          invalid_arg "Enum.of_table: after arity";
        (* resume strictly after [key] *)
        TS.lower_bound core key + if TS.mem key core then 1 else 0
  in
  let r = ref start in
  let gen () =
    if !r >= core.nrows then None
    else begin
      let tup = TS.row core !r in
      incr r;
      Some (tup, values tup)
    end
  in
  make ?limit ~producer:"table" ~next:gen ~close:(fun () -> ()) ()

(* ---- enumeration producer: backtracking join with binary-search seek ----

   Head variables are bound in head order. Each conjunct table is aligned
   so its columns appear in head order; [ranges.(ci)] is the row range of
   rows matching the currently bound prefix of the conjunct's first [ci]
   columns (ranges.(0) = all rows, set once). Binding depth [i] intersects,
   leapfrog-style, the candidate values of every conjunct whose next
   column is head position [i]; head variables no conjunct mentions range
   over the whole domain, matching [Table.extend_full] semantics. *)

type walker_conjunct = {
  core : TS.t;
  ranges : (int * int) array; (* length = #cols + 1 *)
}

let walk ?limit ?after ~values ~n ~head conjuncts =
  let k = Array.length head in
  let head_pos x =
    let rec go i =
      if i = k then invalid_arg "Enum.walk: conjunct var outside head"
      else if Var.equal head.(i) x then i
      else go (i + 1)
    in
    go 0
  in
  (* align each conjunct's columns to head order; empty conjunct => empty
     result, zero-width nonempty conjuncts impose nothing *)
  let empty = ref false in
  let prepared =
    List.filter_map
      (fun t ->
        if Table.is_empty t then begin
          empty := true;
          None
        end
        else begin
          let target =
            Array.of_list
              (List.filter (Table.has_column t) (Array.to_list head))
          in
          if Array.length target <> Array.length (Table.vars t) then
            invalid_arg "Enum.walk: conjunct var outside head";
          if Array.length target = 0 then None
          else begin
            let tbl = Table.align t target in
            let pos = Array.map head_pos target in
            let c =
              {
                core = Table.core tbl;
                ranges = Array.make (Array.length target + 1) (0, Table.cardinal tbl);
              }
            in
            Some (c, pos)
          end
        end)
      conjuncts
  in
  let at_depth = Array.make (max 1 k) [] in
  List.iter
    (fun (c, pos) ->
      Array.iteri (fun ci i -> at_depth.(i) <- (c, ci) :: at_depth.(i)) pos)
    prepared;
  let vals = Array.make (max 1 k) 0 in
  (* smallest consistent value >= seed at depth i, narrowing each
     participating conjunct's range for its next column; None if exhausted *)
  let bind_at i seed =
    let seed = max seed 0 in
    match at_depth.(i) with
    | [] -> if seed >= n then None else Some seed
    | cs ->
        let rec harmonize v =
          if v >= n then None
          else begin
            let v' =
              List.fold_left
                (fun acc (c, ci) ->
                  match acc with
                  | None -> None
                  | Some w ->
                      let lo, hi = c.ranges.(ci) in
                      let r = TS.seek_col c.core ~lo ~hi ~col:ci w in
                      if r >= hi then None
                      else Some (max w (TS.cell c.core r ci)))
                (Some v) cs
            in
            match v' with
            | None -> None
            | Some w when w = v ->
                List.iter
                  (fun (c, ci) ->
                    let lo, hi = c.ranges.(ci) in
                    let l = TS.seek_col c.core ~lo ~hi ~col:ci v in
                    let h = TS.seek_col c.core ~lo:l ~hi ~col:ci (v + 1) in
                    c.ranges.(ci + 1) <- (l, h))
                  cs;
                Some v
            | Some w -> harmonize w
          end
        in
        harmonize seed
  in
  let rec descend i seed =
    i = k
    ||
    match bind_at i seed with
    | None -> false
    | Some v ->
        vals.(i) <- v;
        descend (i + 1) 0 || descend i (v + 1)
  in
  let rec backtrack i =
    i >= 0 && (descend i (vals.(i) + 1) || backtrack (i - 1))
  in
  (* first tuple lexicographically >= a (binary-search descent staying
     tight to [a] as long as each depth can realise a.(i) exactly) *)
  let rec lbound a i =
    i = k
    ||
    match bind_at i a.(i) with
    | None -> false
    | Some v when v = a.(i) ->
        vals.(i) <- v;
        lbound a (i + 1) || descend i (a.(i) + 1)
    | Some v ->
        vals.(i) <- v;
        descend (i + 1) 0 || descend i (v + 1)
  in
  let started = ref false in
  let gen () =
    let ok =
      if !started then k > 0 && backtrack (k - 1)
      else begin
        started := true;
        if !empty then false
        else
          match after with
          | None -> descend 0 0
          | Some a ->
              if Array.length a <> k then invalid_arg "Enum.walk: after arity";
              k > 0 && lbound a 0
              && (lex_gt (Array.sub vals 0 k) a || backtrack (k - 1))
      end
    in
    if ok then begin
      let tup = Array.sub vals 0 k in
      Some (tup, values tup)
    end
    else None
  in
  make ?limit ~producer:"walk" ~next:gen ~close:(fun () -> ()) ()

(* ---- conveniences ---- *)

let of_rows ?limit ?after ~producer rows =
  let rows =
    match after with
    | None -> rows
    | Some a -> List.filter (fun (tup, _) -> lex_gt tup a) rows
  in
  let rest = ref rows in
  let gen () =
    match !rest with
    | [] -> None
    | r :: tl ->
        rest := tl;
        Some r
  in
  make ?limit ~producer ~next:gen ~close:(fun () -> ()) ()

let to_list c =
  let acc = ref [] in
  let rec go () =
    match c.next () with
    | None -> ()
    | Some r ->
        acc := r :: !acc;
        go ()
  in
  go ();
  c.close ();
  List.rev !acc
