type t = int array

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else begin
    let rec go i =
      if i = la then 0
      else if a.(i) <> b.(i) then Int.compare a.(i) b.(i)
      else go (i + 1)
    in
    go 0
  end

let equal a b = compare a b = 0

let pp ppf a =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
       Format.pp_print_int)
    (Array.to_list a)

(* The packed relation core: rows live in one flat [int array], [width]
   ints per row, sorted lexicographically and deduplicated. Every
   constructor establishes that invariant (or is told it holds), so
   membership is binary search, union/diff are linear merges, and equality
   is one array sweep. *)
module Set = struct
  type t = { width : int; nrows : int; data : int array }

  let empty width = { width; nrows = 0; data = [||] }
  let cardinal s = s.nrows
  let is_empty s = s.nrows = 0

  (* compare row at [bi] of [a] with row at [bj] of [b] (strided offsets) *)
  let cmp2 (a : int array) bi (b : int array) bj width =
    let rec go k =
      if k = width then 0
      else
        let c = Int.compare a.(bi + k) b.(bj + k) in
        if c <> 0 then c else go (k + 1)
    in
    go 0

  let is_sorted_distinct data width nrows =
    let r = ref 1 in
    while !r < nrows && cmp2 data ((!r - 1) * width) data (!r * width) width < 0 do
      incr r
    done;
    nrows <= 1 || !r = nrows

  let of_sorted width data nrows = { width; nrows; data }

  let of_dense width data nrows =
    if width = 0 then of_sorted 0 [||] (min nrows 1)
    else if is_sorted_distinct data width nrows then of_sorted width data nrows
    else begin
      let idx = Array.init nrows (fun i -> i) in
      Array.sort (fun i j -> cmp2 data (i * width) data (j * width) width) idx;
      let out = Array.make (nrows * width) 0 in
      let m = ref 0 in
      for r = 0 to nrows - 1 do
        let src = idx.(r) * width in
        if !m = 0 || cmp2 out ((!m - 1) * width) data src width <> 0 then begin
          Array.blit data src out (!m * width) width;
          incr m
        end
      done;
      of_sorted width out !m
    end

  module Builder = struct
    type b = { width : int; mutable data : int array; mutable rows : int }

    let create ?(hint = 16) width =
      { width; data = Array.make (max 1 (hint * width)) 0; rows = 0 }

    let add_sub b row ofs =
      if b.width > 0 then begin
        let need = (b.rows + 1) * b.width in
        if need > Array.length b.data then begin
          let data = Array.make (max need (2 * Array.length b.data)) 0 in
          Array.blit b.data 0 data 0 (b.rows * b.width);
          b.data <- data
        end;
        Array.blit row ofs b.data (b.rows * b.width) b.width
      end;
      b.rows <- b.rows + 1

    let add b row = add_sub b row 0
    let build b = of_dense b.width b.data b.rows
    let build_sorted b = of_sorted b.width b.data b.rows
  end

  let of_list width rows =
    let b = Builder.create ~hint:(max 1 (List.length rows)) width in
    List.iter (Builder.add b) rows;
    Builder.build b

  let cell s r c = s.data.((r * s.width) + c)
  let row s r = Array.sub s.data (r * s.width) s.width

  (* first row in [lo,hi) whose column [col] value is >= v; callers keep
     all rows of the range equal on columns < col. Galloping from [lo]
     brackets the answer in [(l, l+step)] before the binary search, so a
     seek costs O(log d) in the distance d it moves *)
  let seek_col s ~lo ~hi ~col v =
    let below r = s.data.((r * s.width) + col) < v in
    if lo >= hi || not (below lo) then lo
    else begin
      let l = ref lo and step = ref 1 in
      while !l + !step < hi && below (!l + !step) do
        l := !l + !step;
        step := 2 * !step
      done;
      let a = ref (!l + 1) and b = ref (min hi (!l + !step)) in
      while !a < !b do
        let mid = (!a + !b) / 2 in
        if below mid then a := mid + 1 else b := mid
      done;
      !a
    end

  let lower_bound s key =
    let l = ref 0 and h = ref s.nrows in
    while !l < !h do
      let mid = (!l + !h) / 2 in
      if cmp2 s.data (mid * s.width) key 0 s.width < 0 then l := mid + 1
      else h := mid
    done;
    !l

  let mem key s =
    Array.length key = s.width
    &&
    let i = lower_bound s key in
    i < s.nrows && cmp2 s.data (i * s.width) key 0 s.width = 0

  let iter f s =
    let scratch = Array.make s.width 0 in
    for r = 0 to s.nrows - 1 do
      Array.blit s.data (r * s.width) scratch 0 s.width;
      f scratch
    done

  let elements s = List.init s.nrows (row s)

  (* every entry through [f], then re-sorted *)
  let map f s =
    of_dense s.width (Array.init (s.nrows * s.width) (fun i -> f s.data.(i))) s.nrows

  (* sorted merge of two same-width cores: the union, or with
     [keep_right = false] the difference [s1 ∖ s2] *)
  let merge ~keep_right s1 s2 =
    let w = s1.width in
    let out = Array.make (max 1 ((s1.nrows + s2.nrows) * w)) 0 in
    let i = ref 0 and j = ref 0 and r = ref 0 in
    let emit data ofs =
      Array.blit data ofs out (!r * w) w;
      incr r
    in
    while !i < s1.nrows || (keep_right && !j < s2.nrows) do
      let c =
        if !i = s1.nrows then 1
        else if !j = s2.nrows then -1
        else cmp2 s1.data (!i * w) s2.data (!j * w) w
      in
      if c < 0 then begin
        emit s1.data (!i * w);
        incr i
      end
      else if c > 0 then begin
        if keep_right then emit s2.data (!j * w);
        incr j
      end
      else begin
        if keep_right then emit s1.data (!i * w);
        incr i;
        incr j
      end
    done;
    of_sorted w out !r

  let union s1 s2 = merge ~keep_right:true s1 s2
  let diff s1 s2 = merge ~keep_right:false s1 s2

  let equal s1 s2 =
    s1.width = s2.width && s1.nrows = s2.nrows
    && cmp2 s1.data 0 s2.data 0 (s1.nrows * s1.width) = 0
end
