(* Tests for the two reference engines: Naive (Definition 3.1 verbatim) and
   Relalg (bottom-up tables), including the cross-engine agreement
   property. *)

open Foc_logic
open Foc_data
open Ast

let preds = Pred.standard

(* A small fixed structure: directed 4-cycle with a colour. *)
let cyc4 =
  Structure.create
    (Signature.of_list [ ("E", 2); ("P", 1) ])
    ~order:4
    [
      ("E", [ [| 0; 1 |]; [| 1; 2 |]; [| 2; 3 |]; [| 3; 0 |] ]);
      ("P", [ [| 0 |]; [| 2 |] ]);
    ]

let parse s = Parser.formula preds s
let parse_t s = Parser.term preds s
let holds_naive s = Foc_eval.Naive.sentence preds cyc4 (parse s)
let value_naive s = Foc_eval.Naive.ground_term preds cyc4 (parse_t s)

let test_naive_sentences () =
  Alcotest.(check bool) "every node has successor" true
    (holds_naive "forall x. exists y. E(x,y)");
  Alcotest.(check bool) "no self loop" true (holds_naive "!(exists x. E(x,x))");
  Alcotest.(check bool) "P not universal" false (holds_naive "forall x. P(x)");
  Alcotest.(check bool) "true" true (holds_naive "true");
  Alcotest.(check bool) "false" false (holds_naive "false")

let test_naive_counting () =
  Alcotest.(check int) "4 nodes" 4 (value_naive "#(x). x = x");
  Alcotest.(check int) "4 edges" 4 (value_naive "#(x,y). E(x,y)");
  Alcotest.(check int) "2 coloured" 2 (value_naive "#(x). P(x)");
  Alcotest.(check int) "arith" 14 (value_naive "2 + 3 * #(x). x = x");
  Alcotest.(check int) "empty count of true" 1 (value_naive "#(). true");
  Alcotest.(check int) "silent variable multiplies" 16 (value_naive "#(x,y). x = x");
  (* Example 3.2: nodes+edges = 8, not prime *)
  Alcotest.(check bool) "prime(8) false" false
    (holds_naive "prime(#(x). x = x + #(x,y). E(x,y))")

let test_naive_env () =
  let env = Foc_eval.Naive.env_of_list [ ("x", 0) ] in
  Alcotest.(check bool) "E(x,y) with x=0 via exists" true
    (Foc_eval.Naive.formula preds cyc4 env (parse "exists y. E(x,y)"));
  Alcotest.(check int) "out-degree of 0" 1
    (Foc_eval.Naive.term preds cyc4 env (parse_t "#(z). E(x,z)"));
  Alcotest.check_raises "unbound" (Foc_eval.Naive.Unbound "w") (fun () ->
      ignore (Foc_eval.Naive.formula preds cyc4 env (parse "E(w,w)")))

let test_naive_dist () =
  (* cyc4 is an undirected 4-cycle in the Gaifman sense *)
  let env = Foc_eval.Naive.env_of_list [ ("x", 0); ("y", 2) ] in
  Alcotest.(check bool) "dist(0,2) <= 2" true
    (Foc_eval.Naive.formula preds cyc4 env (parse "dist(x,y) <= 2"));
  Alcotest.(check bool) "dist(0,2) <= 1" false
    (Foc_eval.Naive.formula preds cyc4 env (parse "dist(x,y) <= 1"))

let test_table_ops () =
  let t1 = Foc_eval.Table.of_rows [| "x"; "y" |] [ [| 0; 1 |]; [| 1; 2 |] ] in
  let t2 = Foc_eval.Table.of_rows [| "y"; "z" |] [ [| 1; 5 |]; [| 9; 9 |] ] in
  let j = Foc_eval.Table.join t1 t2 in
  Alcotest.(check int) "join row count" 1 (Foc_eval.Table.cardinal j);
  Alcotest.(check (list string)) "join columns" [ "x"; "y"; "z" ]
    (Array.to_list (Foc_eval.Table.vars j));
  let p = Foc_eval.Table.project t1 [| "y" |] in
  Alcotest.(check int) "project" 2 (Foc_eval.Table.cardinal p);
  let c = Foc_eval.Table.complement t1 3 in
  Alcotest.(check int) "complement" 7 (Foc_eval.Table.cardinal c);
  let b = Foc_eval.Table.bind t1 [ ("x", 1) ] in
  Alcotest.(check int) "bind" 1 (Foc_eval.Table.cardinal b);
  let e = Foc_eval.Table.extend_full t1 2 [| "w" |] in
  Alcotest.(check int) "extend" 4 (Foc_eval.Table.cardinal e);
  Alcotest.(check bool) "unit nonempty" false (Foc_eval.Table.is_empty Foc_eval.Table.unit);
  Alcotest.(check bool) "zero empty" true (Foc_eval.Table.is_empty Foc_eval.Table.zero)

let test_relalg_matches_naive_fixed () =
  let sentences =
    [
      "forall x. exists y. E(x,y)";
      "exists x. P(x) & (exists y. E(x,y) & P(y))";
      "!(exists x y. E(x,y) & E(y,x))";
      "prime(#(x). P(x))";
      "#(x,y). E(x,y) == #(x). x = x";
      "exists x. prime(#(z). E(x,z), ) | true";
    ]
  in
  (* last entry is deliberately unparseable: filter through the result API *)
  List.iter
    (fun s ->
      match Parser.formula_result preds s with
      | Error _ -> ()
      | Ok f ->
          Alcotest.(check bool)
            ("agree: " ^ s)
            (Foc_eval.Naive.sentence preds cyc4 f)
            (Foc_eval.Relalg.holds preds cyc4 [] f))
    sentences

let test_relalg_query () =
  (* out-degree of every node: {(x, #(z).E(x,z)) : x = x} *)
  let q =
    Query.make ~head_vars:[ "x" ]
      ~head_terms:[ parse_t "#(z). E(x,z)" ]
      (parse "x = x")
  in
  let rows = Foc_eval.Relalg.query preds cyc4 q in
  Alcotest.(check int) "4 rows" 4 (List.length rows);
  List.iter
    (fun (_, vals) -> Alcotest.(check (array int)) "deg 1" [| 1 |] vals)
    rows;
  let naive_rows = Foc_eval.Naive.query preds cyc4 q in
  Alcotest.(check bool) "naive query agrees" true (naive_rows = rows)

(* an open input is rejected, as by Naive and the engine, instead of
   answering its existential closure or leaking Naive.Unbound *)
let test_relalg_open_inputs () =
  let rejects what f =
    Alcotest.(check bool) what true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  rejects "holds E(x,y)" (fun () ->
      Foc_eval.Relalg.holds preds cyc4 [] (parse "E(x,y)"));
  rejects "holds with a partial binding" (fun () ->
      Foc_eval.Relalg.holds preds cyc4 [ ("x", 0) ] (parse "E(x,y)"));
  rejects "term_value #(x). E(x,y)" (fun () ->
      Foc_eval.Relalg.term_value preds cyc4 [] (parse_t "#(x). E(x,y)"));
  Alcotest.(check bool) "a covering binding still answers" true
    (Foc_eval.Relalg.holds preds cyc4 [ ("x", 0); ("y", 1) ] (parse "E(x,y)"))

(* --- the agreement property: random small structures, random formulas --- *)

let sign_rand = Signature.of_list [ ("E", 2); ("P", 1) ]

let gen_var = QCheck.Gen.oneofl [ "x"; "y"; "z" ]

(* closed-ish formulas: we quantify the free rest away at the end. The
   size is bounded: QCheck's default size nests quantifiers deeply enough
   that Naive, which pays a factor |A| per quantifier, can take minutes on
   one sentence *)
let gen_formula =
  QCheck.Gen.(
    sized_size (int_bound 12) (fun size ->
        fix
          (fun self (size, depth) ->
            let atom =
              oneof
                [
                  map2 (fun a b -> Eq (a, b)) gen_var gen_var;
                  map2 (fun a b -> Rel ("E", [| a; b |])) gen_var gen_var;
                  map (fun a -> Rel ("P", [| a |])) gen_var;
                  map3 (fun a b d -> Dist (a, b, d)) gen_var gen_var (int_range 0 3);
                ]
            in
            if size <= 1 then atom
            else begin
              let sub = self (size / 2, depth) in
              let smaller = self (size - 1, depth) in
              let base =
                [
                  atom;
                  map (fun f -> Neg f) smaller;
                  map2 (fun f g -> Or (f, g)) sub sub;
                  map2 (fun f g -> And (f, g)) sub sub;
                  map2 (fun v f -> Exists (v, f)) gen_var smaller;
                  map2 (fun v f -> Forall (v, f)) gen_var smaller;
                ]
              in
              let counting =
                let body = self (size / 2, depth + 1) in
                let t =
                  oneof
                    [
                      map2 (fun v f -> Count ([ v ], f)) gen_var body;
                      map (fun i -> Int i) (int_range 0 3);
                    ]
                in
                [
                  map (fun t -> Pred ("ge1", [ t ])) t;
                  map2 (fun s t' -> Pred ("le", [ s; t' ])) t t;
                ]
              in
              oneof (if depth < 1 then base @ counting else base)
            end)
          (size, 0)))

let close f = Ast.forall (Var.Set.elements (free_formula f)) f

let gen_structure =
  QCheck.Gen.(
    map2
      (fun n seed ->
        let rng = Random.State.make [| seed |] in
        Db_gen.random_structure rng sign_rand ~order:n ~tuples:(2 * n))
      (int_range 1 5) int)

let arb_pair =
  QCheck.make
    ~print:(fun (f, a) ->
      Pp.formula_to_string (close f) ^ "\non\n" ^ Format.asprintf "%a" Structure.pp a)
    QCheck.Gen.(pair gen_formula gen_structure)

let prop_engines_agree =
  QCheck.Test.make ~name:"naive = relalg on random sentences" ~count:300
    arb_pair (fun (f, a) ->
      let f = close f in
      Foc_eval.Naive.sentence preds a f = Foc_eval.Relalg.holds preds a [] f)

let gen_term =
  QCheck.Gen.(
    map2
      (fun vs f ->
        let vs = List.sort_uniq compare vs in
        Count (vs, f))
      (list_size (int_range 0 2) gen_var)
      gen_formula)

let arb_term_pair =
  QCheck.make
    ~print:(fun (t, a) ->
      let closed =
        Ast.Count (Var.Set.elements (free_term t), Ast.True)
        |> fun _ -> Pp.term_to_string t
      in
      closed ^ "\non\n" ^ Format.asprintf "%a" Structure.pp a)
    QCheck.Gen.(pair gen_term gen_structure)

let prop_term_engines_agree =
  QCheck.Test.make ~name:"naive = relalg on random ground terms" ~count:300
    arb_term_pair (fun (t, a) ->
      (* close the term by counting all its free variables *)
      let t =
        match Var.Set.elements (free_term t) with
        | [] -> t
        | fvs -> Count (fvs, Pred ("ge1", [ t ]))
      in
      Foc_eval.Naive.ground_term preds a t
      = Foc_eval.Relalg.term_value preds a [] t)

let () =
  Alcotest.run "foc_eval"
    [
      ( "naive",
        [
          Alcotest.test_case "sentences" `Quick test_naive_sentences;
          Alcotest.test_case "counting" `Quick test_naive_counting;
          Alcotest.test_case "environments" `Quick test_naive_env;
          Alcotest.test_case "distance atoms" `Quick test_naive_dist;
        ] );
      ("table", [ Alcotest.test_case "operations" `Quick test_table_ops ]);
      ( "relalg",
        [
          Alcotest.test_case "fixed agreement" `Quick test_relalg_matches_naive_fixed;
          Alcotest.test_case "query" `Quick test_relalg_query;
          Alcotest.test_case "open inputs rejected" `Quick
            test_relalg_open_inputs;
        ] );
      ( "agreement",
        [
          QCheck_alcotest.to_alcotest prop_engines_agree;
          QCheck_alcotest.to_alcotest prop_term_engines_agree;
        ] );
    ]
