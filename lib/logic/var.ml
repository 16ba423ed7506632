type t = string

let compare = String.compare
let equal = String.equal
let pp = Format.pp_print_string
(* atomic: rewritings run inside parallel sweep tasks (the splitter
   recursion re-decomposes on worker domains), and every fresh name must
   stay unique across domains *)
let counter = Atomic.make 0
let next () = Atomic.fetch_and_add counter 1 + 1
let fresh () = "_g" ^ string_of_int (next ())

let fresh_like x =
  let i = next () in
  let base =
    match String.index_opt x '\'' with
    | Some i -> String.sub x 0 i
    | None -> x
  in
  let base = if base = "" || base.[0] = '_' then base else "_" ^ base in
  base ^ "'" ^ string_of_int i

module Set = Set.Make (String)
module Map = Map.Make (String)
