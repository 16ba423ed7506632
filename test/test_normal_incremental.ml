(* Tests for the syntactic cl-normal form (Theorem 6.8) and the incremental
   maintenance prototype (Section 9, question 2). *)

open Foc_logic
module Structure = Foc_data.Structure

let preds = Pred.standard
let parse s = Parser.formula preds s

let coloured seed g =
  let rng = Random.State.make [| seed |] in
  Foc_data.Db_gen.colored_digraph rng ~graph:g ~orient:`Both ~p_red:0.3
    ~p_blue:0.4 ~p_green:0.3

(* ---------------- Theorem 6.8 normal form ---------------- *)

let nf_sentences =
  [
    "exists x y. E(x,y) & B(y)";
    "exists x. B(x) & !(exists y. E(x,y))";
    "!(exists x y. R(x) & B(y))";
    "(exists x. R(x)) & !(exists x y. E(x,y) & E(y,x))";
    "forall x. B(x) | !B(x)";
  ]

let test_normal_form_equivalence () =
  let rng = Random.State.make [| 41 |] in
  for seed = 1 to 6 do
    let a =
      coloured seed (Foc_graph.Gen.random_bounded_degree rng 12 3)
    in
    List.iter
      (fun src ->
        let phi = parse src in
        match Foc_local.Normal_form.sentence phi with
        | None -> Alcotest.fail ("no normal form for " ^ src)
        | Some nf ->
            Alcotest.(check bool)
              (Printf.sprintf "%s (seed %d)" src seed)
              (Foc_eval.Naive.sentence preds a phi)
              (Foc_eval.Naive.sentence preds a nf))
      nf_sentences
  done

let test_normal_form_shape () =
  let phi = parse "exists x y. E(x,y) & B(y)" in
  match Foc_local.Normal_form.sentence phi with
  | None -> Alcotest.fail "no normal form"
  | Some nf ->
      (* the result is a FOC1({P≥1}) statement: Boolean combination of
         "g >= 1" with no plain quantifier prefix left *)
      Alcotest.(check bool) "is FOC1" true (Fragment.is_foc1 nf);
      let has_ge1 =
        Ast.exists_subformula
          (function Ast.Pred ("ge1", _) -> true | _ -> false)
          nf
      in
      Alcotest.(check bool) "has a g >= 1 statement" true has_ge1

let test_to_ast_agrees () =
  let rng = Random.State.make [| 43 |] in
  let a = coloured 43 (Foc_graph.Gen.random_tree rng 25) in
  let body = parse "E(u,v) | (R(u) & B(v))" in
  let r =
    match Foc_local.Locality.formula_radius body with
    | Foc_local.Locality.Local r -> r
    | Foc_local.Locality.Nonlocal w -> Alcotest.fail w
  in
  match Foc_local.Decompose.ground_count ~r ~vars:[ "u"; "v" ] body with
  | None -> Alcotest.fail "decomposition failed"
  | Some cl ->
      let ctx = Foc_local.Pattern_count.make_ctx preds a ~r in
      let via_clterm = Foc_local.Clterm.(eval_ground (direct ctx) cl) in
      let via_ast =
        Foc_eval.Relalg.term_value preds a [] (Foc_local.Normal_form.to_ast cl)
      in
      Alcotest.(check int) "to_ast evaluates equally" via_clterm via_ast

(* ---------------- incremental maintenance ---------------- *)

let degree_clterm () =
  let body = parse "E(x,y) & B(y)" in
  match Foc_local.Decompose.unary_count ~r:1 ~vars:[ "x"; "y" ] body with
  | Some cl -> cl
  | None -> Alcotest.fail "decomposition failed"

let recompute preds a cl =
  let ctx = Foc_local.Pattern_count.make_ctx preds a ~r:1 in
  Foc_local.Clterm.(eval_unary (direct ctx) cl)

let test_incremental_inserts () =
  let rng = Random.State.make [| 47 |] in
  let a = coloured 47 (Foc_graph.Gen.random_tree rng 60) in
  let cl = degree_clterm () in
  let inc = Foc_nd.Incremental.create preds a cl in
  Alcotest.(check (array int)) "initial" (recompute preds a cl)
    (Foc_nd.Incremental.values inc);
  (* a mixed batch of edge and colour updates *)
  for step = 1 to 25 do
    let n = Structure.order (Foc_nd.Incremental.structure inc) in
    let u = Random.State.int rng n and v = Random.State.int rng n in
    let affected =
      match Random.State.int rng 4 with
      | 0 -> Foc_nd.Incremental.insert inc "E" [| u; v |]
      | 1 when u <> v -> Foc_nd.Incremental.delete inc "E" [| u; v |]
      | 2 -> Foc_nd.Incremental.insert inc "B" [| u |]
      | _ -> Foc_nd.Incremental.delete inc "B" [| u |]
    in
    Alcotest.(check bool) "some anchors touched" true (affected >= 0);
    let expected =
      recompute preds (Foc_nd.Incremental.structure inc) cl
    in
    Alcotest.(check (array int))
      (Printf.sprintf "step %d" step)
      expected
      (Foc_nd.Incremental.values inc)
  done

(* A polynomial with a width-0 ground basic: the sentence factor
   [#(). exists y. B(y)] multiplying the degree term. *)
let width0_clterm () =
  let sentence = parse "exists y. B(y)" in
  let b0 =
    Foc_local.Clterm.basic
      ~pattern:(Foc_graph.Pattern.make 0 [])
      ~radius:1 ~vars:[] ~body:sentence
  in
  Foc_local.Clterm.(Add (Mul (Ground b0, degree_clterm ()), Const 1))

let test_incremental_width0 () =
  (* regression: a width-0 ground basic used to make [Incremental.create]
     raise [Invalid_argument] from [eval_leaf_at]; it must instead be
     maintained as a sentence whose truth tracks the updates *)
  let a = coloured 59 (Foc_graph.Gen.path 12) in
  let cl = width0_clterm () in
  let inc = Foc_nd.Incremental.create preds a cl in
  Alcotest.(check (array int))
    "initial" (recompute preds a cl)
    (Foc_nd.Incremental.values inc);
  (* drain B completely: "exists y. B(y)" flips to false along the way, and
     the maintained values must track every step *)
  for u = 0 to 11 do
    ignore (Foc_nd.Incremental.delete inc "B" [| u |]);
    let a' = Foc_nd.Incremental.structure inc in
    Alcotest.(check (array int))
      (Printf.sprintf "after deleting B(%d)" u)
      (recompute preds a' cl)
      (Foc_nd.Incremental.values inc)
  done;
  ignore (Foc_nd.Incremental.insert inc "B" [| 3 |]);
  let a' = Foc_nd.Incremental.structure inc in
  Alcotest.(check (array int))
    "after re-inserting B(3)"
    (recompute preds a' cl)
    (Foc_nd.Incremental.values inc)

let test_incremental_locality () =
  (* an update at one end of a long path must not touch anchors at the
     other end *)
  let a = coloured 53 (Foc_graph.Gen.path 200) in
  let cl = degree_clterm () in
  let inc = Foc_nd.Incremental.create preds a cl in
  let touched = Foc_nd.Incremental.insert inc "B" [| 0 |] in
  Alcotest.(check bool)
    (Printf.sprintf "few anchors touched (%d)" touched)
    true (touched <= 16)

let prop_incremental_random =
  QCheck.Test.make ~name:"incremental = recompute under random updates"
    ~count:15
    QCheck.(pair (int_range 8 40) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| n; seed |] in
      let a = coloured seed (Foc_graph.Gen.random_bounded_degree rng n 3) in
      let cl = degree_clterm () in
      let inc = Foc_nd.Incremental.create preds a cl in
      let ok = ref true in
      for _ = 1 to 10 do
        let u = Random.State.int rng n and v = Random.State.int rng n in
        ignore
          (if Random.State.bool rng then
             Foc_nd.Incremental.insert inc "E" [| u; v |]
           else Foc_nd.Incremental.delete inc "E" [| u; v |]);
        if
          Foc_nd.Incremental.values inc
          <> recompute preds (Foc_nd.Incremental.structure inc) cl
        then ok := false
      done;
      !ok)

let () =
  Alcotest.run "normal form & incremental"
    [
      ( "theorem 6.8",
        [
          Alcotest.test_case "equivalence" `Quick test_normal_form_equivalence;
          Alcotest.test_case "shape" `Quick test_normal_form_shape;
          Alcotest.test_case "to_ast" `Quick test_to_ast_agrees;
        ] );
      ( "incremental (§9.2)",
        [
          Alcotest.test_case "inserts/deletes" `Quick test_incremental_inserts;
          Alcotest.test_case "width-0 ground basic" `Quick
            test_incremental_width0;
          Alcotest.test_case "update locality" `Quick test_incremental_locality;
          QCheck_alcotest.to_alcotest prop_incremental_random;
        ] );
    ]
