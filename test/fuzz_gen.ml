(* The guarded expression generators shared by the fuzz suite and the
   plan property of test_plan_treedepth: guarded FOC1 bodies, ground,
   unary and #-depth-2 counting terms, and small coloured sparse
   structures. *)

open Foc_logic
open QCheck.Gen

let preds = Pred.standard
let sign = Foc_data.Signature.of_list [ ("E", 2); ("B", 1); ("C", 1); ("R", 1) ]

let coloured seed g =
  let rng = Random.State.make [| seed |] in
  let n = Foc_graph.Graph.order g in
  let colour p =
    List.filter_map
      (fun v -> if Random.State.float rng 1.0 < p then Some [| v |] else None)
      (List.init n (fun i -> i))
  in
  let edges =
    List.concat_map
      (fun (u, v) -> [ [| u; v |]; [| v; u |] ])
      (Foc_graph.Graph.edges g)
  in
  Foc_data.Structure.create sign ~order:n
    [ ("E", edges); ("B", colour 0.4); ("C", colour 0.3); ("R", colour 0.25) ]

(* ---------------- the guarded generator ---------------- *)

let fresh_counter = ref 0

let fresh_var () =
  incr fresh_counter;
  Printf.sprintf "v%d" !fresh_counter

let unary_rel = oneofl [ "B"; "C"; "R" ]

(* a guarded body over the given in-scope variables *)
let rec gen_body ~depth vars =
  let atom =
    oneof
      ([
         map2 (fun r v -> Ast.Rel (r, [| v |])) unary_rel (oneofl vars);
         map2 (fun u v -> Ast.Rel ("E", [| u; v |])) (oneofl vars) (oneofl vars);
       ]
      @
      if List.length vars >= 2 then
        [
          map3
            (fun u v d -> Ast.Dist (u, v, d))
            (oneofl vars) (oneofl vars) (int_range 0 2);
          map2 (fun u v -> Ast.Eq (u, v)) (oneofl vars) (oneofl vars);
        ]
      else [])
  in
  if depth <= 0 then atom
  else
    frequency
      [
        (3, atom);
        (2, map2 (fun f g -> Ast.And (f, g)) (gen_body ~depth:(depth - 1) vars) (gen_body ~depth:(depth - 1) vars));
        (2, map2 (fun f g -> Ast.Or (f, g)) (gen_body ~depth:(depth - 1) vars) (gen_body ~depth:(depth - 1) vars));
        (1, map (fun f -> Ast.Neg f) (gen_body ~depth:(depth - 1) vars));
        ( 2,
          (* guarded ∃z (E(v,z) ∧ body) *)
          oneofl vars >>= fun anchor ->
          let z = fresh_var () in
          gen_body ~depth:(depth - 1) (z :: vars) >>= fun inner ->
          return (Ast.Exists (z, Ast.And (Ast.Rel ("E", [| anchor; z |]), inner)))
        );
        ( 1,
          (* guarded ∀z (dist ≤ 1 → body) *)
          oneofl vars >>= fun anchor ->
          let z = fresh_var () in
          gen_body ~depth:(depth - 1) (z :: vars) >>= fun inner ->
          return
            (Ast.Forall (z, Ast.implies (Ast.Dist (anchor, z, 1)) inner)) );
      ]

let gen_ground_term ~max_k =
  int_range 1 max_k >>= fun k ->
  let vars = List.init k (fun _ -> fresh_var ()) in
  let depth = if k >= 3 then 1 else 2 in
  gen_body ~depth vars >>= fun body -> return (Ast.Count (vars, body))

let gen_unary_term x ~max_k =
  int_range 1 max_k >>= fun k ->
  let vars = List.init k (fun _ -> fresh_var ()) in
  let depth = if k >= 2 then 1 else 2 in
  gen_body ~depth (x :: vars) >>= fun body ->
  return (Ast.Count (vars, body))

(* optionally wrap in a numerical condition and count again (#-depth 2) *)
let gen_nested_ground =
  let x = "x0" in
  gen_unary_term x ~max_k:2 >>= fun t ->
  oneofl [ "ge1"; "prime"; "even" ] >>= fun p ->
  return (Ast.Count ([ x ], Ast.Pred (p, [ t ])))

let gen_structure =
  pair (int_range 4 14) (int_range 0 1_000_000) >>= fun (n, seed) ->
  let rng = Random.State.make [| n; seed |] in
  let graph =
    match Random.State.int rng 3 with
    | 0 -> Foc_graph.Gen.random_tree rng n
    | 1 -> Foc_graph.Gen.random_bounded_degree rng n 3
    | _ ->
        let side = max 2 (int_of_float (sqrt (float_of_int n))) in
        Foc_graph.Gen.grid side side
  in
  return (coloured seed graph)

let print_case (t, a) =
  Format.asprintf "%s@.on order-%d structure"
    (Pp.term_to_string t)
    (Foc_data.Structure.order a)
