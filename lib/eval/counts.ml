open Foc_logic

type t = {
  vars : Var.Set.t;
  get : int Var.Map.t -> int;
  row : Var.t array -> int array -> int;
}

let vars v = v.vars
let get v env = v.get env
let row v cols = v.row cols

let const i =
  { vars = Var.Set.empty; get = (fun _ -> i); row = (fun _ _ -> i) }

let combine op a b =
  {
    vars = Var.Set.union a.vars b.vars;
    get = (fun env -> op (a.get env) (b.get env));
    row =
      (fun cols ->
        let ra = a.row cols and rb = b.row cols in
        fun r -> op (ra r) (rb r));
  }

let add = combine ( + )
let mul = combine ( * )

let column_of cols x =
  let rec go i =
    if i = Array.length cols then raise (Naive.Unbound x)
    else if Var.equal cols.(i) x then i
    else go (i + 1)
  in
  go 0

let of_sorted_groups ~vars:vs ~multiplier keys counts =
  let k = Array.length vs in
  let g = Array.length counts in
  (* binary search for the k-int key starting at [key.(ofs)] among the
     lexicographically sorted group keys; absent keys count 0 *)
  let lookup key ofs =
    let cmp gi = Foc_data.Tuple.Set.cmp2 keys (gi * k) key ofs k in
    let rec go lo hi =
      if lo >= hi then 0
      else
        let mid = (lo + hi) / 2 in
        let c = cmp mid in
        if c = 0 then multiplier * counts.(mid)
        else if c < 0 then go (mid + 1) hi
        else go lo mid
    in
    go 0 g
  in
  {
    vars = Var.Set.of_list (Array.to_list vs);
    get =
      (fun env ->
        let key =
          Array.map
            (fun x ->
              match Var.Map.find_opt x env with
              | Some v -> v
              | None -> raise (Naive.Unbound x))
            vs
        in
        lookup key 0);
    row =
      (fun cols ->
        let idx = Array.map (column_of cols) vs in
        let key = Array.make (max 1 k) 0 in
        fun r ->
          for i = 0 to k - 1 do
            key.(i) <- r.(idx.(i))
          done;
          lookup key 0);
  }
