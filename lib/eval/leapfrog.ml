module TS = Foc_data.Tuple.Set

(* The one join kernel: a backtracking leapfrog over sorted cores aligned
   to a variable order, in the preprocess-then-enumerate style of
   Kazana–Segoufin (arXiv:1105.3583). Depth [i] binds variable [i]: the positive atoms
   with a column there intersect their candidate values by galloping
   seeks, and a negated atom whose last column sits at depth [i] skips
   the values whose binding it contains (seek-and-skip). *)

type atom = { core : TS.t; pos : int array; neg : bool }

(* a positive atom under search: [lo.(c), hi.(c)) are its rows agreeing
   with the values bound for columns < c, and [at.(c)] the seek cursor of
   column c inside that range — monotone while its depth moves forward *)
type slot = { s : TS.t; lo : int array; hi : int array; at : int array }

let search ?after ~n ~width atoms =
  let k = width in
  Option.iter
    (fun a -> if Array.length a <> k then invalid_arg "Leapfrog.search: after arity")
    after;
  let empty = ref false in
  let pos_at = Array.make k [] and neg_at = Array.make k [] in
  List.iter
    (fun a ->
      let w = Array.length a.pos in
      if w <> a.core.TS.width then invalid_arg "Leapfrog.search: atom width";
      Array.iteri
        (fun c d ->
          if d < 0 || d >= k || (c > 0 && d <= a.pos.(c - 1)) then
            invalid_arg "Leapfrog.search: atom out of order")
        a.pos;
      (* an empty positive atom empties the search; a nonempty zero-width
         negated one excludes the empty binding, hence everything *)
      if a.neg then begin
        if TS.is_empty a.core then ()
        else if w = 0 then empty := true
        else
          let d = a.pos.(w - 1) in
          neg_at.(d) <- (a, Array.make w 0) :: neg_at.(d)
      end
      else if TS.is_empty a.core then empty := true
      else begin
        let sl =
          {
            s = a.core;
            lo = Array.make (w + 1) 0;
            hi = Array.make (w + 1) a.core.nrows;
            at = Array.make w 0;
          }
        in
        Array.iteri (fun c d -> pos_at.(d) <- (sl, c) :: pos_at.(d)) a.pos
      end)
    atoms;
  let pos_at = Array.map Array.of_list pos_at in
  let vals = Array.make k 0 in
  let excluded i =
    List.exists
      (fun (a, key) ->
        Array.iteri (fun c d -> key.(c) <- vals.(d)) a.pos;
        TS.mem key a.core)
      neg_at.(i)
  in
  (* the smallest value >= seed that every positive atom at depth i can
     realise and no negated atom ending there excludes, written to
     vals.(i); narrows those atoms' ranges for their next column. [fresh]
     restarts the seek cursors after a shallower depth changed. -1 when
     exhausted *)
  let bind i seed fresh =
    let ps = pos_at.(i) in
    let m = Array.length ps in
    if fresh then Array.iter (fun (sl, c) -> sl.at.(c) <- sl.lo.(c)) ps;
    let v = ref (max seed 0) and agreed = ref 0 and j = ref 0 in
    let result = ref (-2) in
    while !result = -2 do
      if m = 0 && !v >= n then result := -1
      else if !agreed >= m then begin
        vals.(i) <- !v;
        if excluded i then begin
          incr v;
          agreed := 0
        end
        else result := !v
      end
      else begin
        let sl, c = ps.(!j) in
        let r = TS.seek_col sl.s ~lo:sl.at.(c) ~hi:sl.hi.(c) ~col:c !v in
        sl.at.(c) <- r;
        if r >= sl.hi.(c) then result := -1
        else begin
          let w = TS.cell sl.s r c in
          if w = !v then incr agreed
          else begin
            v := w;
            agreed := 1
          end;
          j := if !j + 1 = m then 0 else !j + 1
        end
      end
    done;
    let v = !result in
    if v >= 0 then
      Array.iter
        (fun (sl, c) ->
          let l = sl.at.(c) in
          sl.lo.(c + 1) <- l;
          sl.hi.(c + 1) <- TS.seek_col sl.s ~lo:l ~hi:sl.hi.(c) ~col:c (v + 1))
        ps;
    v
  in
  let rec descend i seed fresh =
    i = k
    ||
    let v = bind i seed fresh in
    v >= 0 && (descend (i + 1) 0 true || descend i (v + 1) false)
  in
  let rec backtrack i =
    i >= 0 && (descend i (vals.(i) + 1) false || backtrack (i - 1))
  in
  (* first binding lexicographically >= a: stays tight to a.(i) as long as
     each depth can realise it exactly *)
  let rec lbound a i =
    i = k
    ||
    let v = bind i a.(i) true in
    v >= 0
    && ((if v = a.(i) then lbound a (i + 1) else descend (i + 1) 0 true)
       || descend i (v + 1) false)
  in
  let state = ref (if !empty then `Done else `Start) in
  fun () ->
    let ok =
      match !state with
      | `Done -> false
      | `Running -> k > 0 && backtrack (k - 1)
      | `Start -> (
          state := `Running;
          match after with
          | None -> descend 0 0 true
          | Some a ->
              k > 0 && lbound a 0
              && (Foc_data.Tuple.compare vals a > 0 || backtrack (k - 1)))
    in
    if ok then Some vals
    else begin
      state := `Done;
      None
    end
