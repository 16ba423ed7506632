(* Section 9, open question (2): maintaining query answers under database
   updates. The locality of cl-terms gives the repair rule — an update only
   moves values within a fixed-radius ball.

   Run with:  dune exec examples/incremental_demo.exe *)

let () =
  let rng = Random.State.make [| 21 |] in
  let a =
    Foc.Db_gen.colored_digraph rng
      ~graph:(Foc.Gen.random_tree rng 5000)
      ~orient:`Both ~p_red:0.3 ~p_blue:0.4 ~p_green:0.3
  in
  let body = Foc.parse_formula "E(x,y) & B(y)" in
  let cl =
    match Foc.Decompose.unary_count ~r:1 ~vars:[ "x"; "y" ] body with
    | Some cl -> cl
    | None -> failwith "decomposition failed"
  in
  Printf.printf "maintaining t_B(x) = #(y).(E(x,y) ∧ B(y)) on 5000 nodes\n";
  let t0 = Sys.time () in
  let inc = Foc.Incremental.create Foc.predicates a cl in
  Printf.printf "initial evaluation: %.3fs\n" (Sys.time () -. t0);

  let total () = Array.fold_left ( + ) 0 (Foc.Incremental.values inc) in
  Printf.printf "initial total: %d\n" (total ());

  let t1 = Sys.time () in
  let touched = ref 0 in
  for _ = 1 to 100 do
    let n = Foc.Structure.order (Foc.Incremental.structure inc) in
    let u = Random.State.int rng n and v = Random.State.int rng n in
    touched :=
      !touched
      +
      match Random.State.int rng 3 with
      | 0 -> Foc.Incremental.insert inc "E" [| u; v |]
      | 1 -> Foc.Incremental.insert inc "B" [| u |]
      | _ -> Foc.Incremental.delete inc "B" [| u |]
  done;
  Printf.printf
    "100 updates: %.3fs, %d anchor re-evaluations (%.1f per update)\n"
    (Sys.time () -. t1) !touched
    (float_of_int !touched /. 100.0);
  Printf.printf "total after updates: %d\n" (total ());

  (* verify against recomputation *)
  let ctx =
    Foc.Pattern_count.make_ctx Foc.predicates
      (Foc.Incremental.structure inc)
      ~r:1
  in
  let fresh = Foc.Clterm.(eval_unary (direct ctx) cl) in
  Printf.printf "matches recomputation from scratch: %b\n"
    (fresh = Foc.Incremental.values inc)
