(* Parser tests: golden parses, error cases, and the pretty-printer
   round-trip property on randomly generated expressions. *)

open Foc_logic
open Ast

let fml = Alcotest.testable (fun ppf f -> Pp.formula ppf f) equal_formula
let trm = Alcotest.testable (fun ppf t -> Pp.term ppf t) equal_term
let parse s = Parser.formula Pred.standard s
let parse_t s = Parser.term Pred.standard s

let test_atoms () =
  Alcotest.check fml "eq" (Eq ("x", "y")) (parse "x = y");
  Alcotest.check fml "rel" (Rel ("E", [| "x"; "y" |])) (parse "E(x, y)");
  Alcotest.check fml "nullary rel" (Rel ("Z", [||])) (parse "Z()");
  Alcotest.check fml "dist" (Dist ("x", "y", 3)) (parse "dist(x,y) <= 3");
  Alcotest.check fml "true" True (parse "true");
  Alcotest.check fml "false" False (parse "false")

let test_connectives () =
  Alcotest.check fml "precedence & over |"
    (Or (Rel ("P", [| "x" |]), And (Rel ("Q", [| "x" |]), Rel ("R", [| "x" |]))))
    (parse "P(x) | Q(x) & R(x)");
  Alcotest.check fml "neg binds tight"
    (Or (Neg (Rel ("P", [| "x" |])), Rel ("Q", [| "x" |])))
    (parse "!P(x) | Q(x)");
  Alcotest.check fml "implies desugars"
    (Or (Neg (Rel ("P", [| "x" |])), Rel ("Q", [| "x" |])))
    (parse "P(x) -> Q(x)");
  Alcotest.check fml "parens"
    (And (Or (Rel ("P", [| "x" |]), Rel ("Q", [| "x" |])), Rel ("R", [| "x" |])))
    (parse "(P(x) | Q(x)) & R(x)")

let test_quantifiers () =
  Alcotest.check fml "exists multi"
    (Exists ("x", Exists ("y", Rel ("E", [| "x"; "y" |]))))
    (parse "exists x y. E(x,y)");
  Alcotest.check fml "forall"
    (Forall ("x", Rel ("P", [| "x" |])))
    (parse "forall x. P(x)");
  Alcotest.check fml "quantifier in conjunction"
    (And (Rel ("P", [| "x" |]), Exists ("y", Rel ("E", [| "x"; "y" |]))))
    (parse "P(x) & (exists y. E(x,y))")

let test_terms () =
  Alcotest.check trm "int" (Int 42) (parse_t "42");
  Alcotest.check trm "negative" (Int (-3)) (parse_t "-3");
  Alcotest.check trm "count" (Count ([ "y" ], Rel ("E", [| "x"; "y" |])))
    (parse_t "#(y). E(x,y)");
  Alcotest.check trm "empty count" (Count ([], True)) (parse_t "#(). true");
  Alcotest.check trm "precedence * over +"
    (Add (Int 1, Mul (Int 2, Int 3)))
    (parse_t "1 + 2 * 3");
  Alcotest.check trm "subtraction desugars" (Ast.sub (Int 5) (Int 2)) (parse_t "5 - 2")

let test_pred_sugar () =
  Alcotest.check fml "ge1 sugar" (Pred ("ge1", [ Int 2 ])) (parse "2 >= 1");
  Alcotest.check fml "eq sugar"
    (Pred ("eq", [ Int 1; Int 2 ]))
    (parse "1 == 2");
  Alcotest.check fml "named pred" (Pred ("prime", [ Int 7 ])) (parse "prime(7)");
  Alcotest.check fml "pred with count arg"
    (Pred ("prime", [ Count ([ "x" ], Eq ("x", "x")) ]))
    (parse "prime(#(x). x = x)");
  (* comparison of counting terms, parenthesized lhs *)
  Alcotest.check fml "paren lhs comparison"
    (Pred ("le", [ Add (Int 1, Int 2); Int 4 ]))
    (parse "(1 + 2) <= 4")

let test_example_3_2 () =
  (* the paper's Example 3.2 formulas parse and are FOC1 *)
  let f1 = parse "prime(#(x). x = x + #(x,y). E(x,y))" in
  Alcotest.(check bool) "example 1 foc1" true (Fragment.is_foc1 f1);
  let f3 =
    parse "exists x. prime(#(y). eq(#(z). E(x,z), #(z). E(y,z)))"
  in
  Alcotest.(check bool) "example 3 parses, not foc1" false (Fragment.is_foc1 f3)

let test_errors () =
  let bad s =
    match Parser.formula_result Pred.standard s with
    | Ok _ -> Alcotest.fail ("should not parse: " ^ s)
    | Error _ -> ()
  in
  bad "E(x";
  bad "x =";
  bad "exists . P(x)";
  bad "P(x) &";
  bad "dist(x,y) <= ";
  bad "#(y). E(x,y)";
  (* a bare term is not a formula *)
  bad "P(x) P(y)";
  bad "exists exists. P(x)";
  bad "_x = y"

let test_int_out_of_range () =
  let src = "exists x. #(y). E(x,y) >= 99999999999999999999" in
  (match Parser.formula Pred.standard src with
  | _ -> Alcotest.fail "an out-of-range literal parsed"
  | exception Parser.Error (msg, pos) ->
      Alcotest.(check string) "message" "integer literal out of range" msg;
      Alcotest.(check int) "position of the literal" 26 pos);
  Alcotest.(check bool) "max_int still parses" true
    (Result.is_ok
       (Parser.formula_result Pred.standard
          (Printf.sprintf "#(x). E(x,x) >= %d" max_int)))

(* a repeated bound variable is a parse error at its second occurrence,
   through the exception and the Result entry points alike *)
let test_repeated_bound_variable () =
  (match Parser.formula Pred.standard "#(x,y,x). E(x,y) >= 1" with
  | _ -> Alcotest.fail "a repeated bound variable parsed"
  | exception Parser.Error (msg, pos) ->
      Alcotest.(check string) "message" "repeated bound variable x" msg;
      Alcotest.(check int) "position of the repeat" 6 pos);
  Alcotest.(check bool) "term_result is an Error" true
    (Result.is_error (Parser.term_result Pred.standard "#(x,x). R(x)"))

let gen_var = QCheck.Gen.oneofl [ "x"; "y"; "z"; "u"; "v" ]

let gen_formula =
  QCheck.Gen.(
    sized (fun size ->
        fix
          (fun self (size, depth) ->
            let atom =
              oneof
                [
                  map2 (fun a b -> Eq (a, b)) gen_var gen_var;
                  map2 (fun a b -> Rel ("E", [| a; b |])) gen_var gen_var;
                  map (fun a -> Rel ("P", [| a |])) gen_var;
                  map3 (fun a b d -> Dist (a, b, d)) gen_var gen_var (int_range 0 4);
                  return True;
                  return False;
                ]
            in
            if size <= 1 then atom
            else begin
              let sub = self (size / 2, depth) in
              let smaller = self (size - 1, depth) in
              let gen_count =
                map2
                  (fun v f -> Count ([ v ], f))
                  gen_var
                  (self (size / 2, depth + 1))
              in
              let gen_term =
                oneof
                  [
                    map (fun i -> Int i) (int_range (-3) 9);
                    gen_count;
                    map2 (fun a b -> Add (a, b)) (map (fun i -> Int i) small_nat) gen_count;
                  ]
              in
              let preds_gens =
                if depth < 2 then
                  [
                    map (fun t -> Pred ("ge1", [ t ])) gen_term;
                    map2 (fun s t -> Pred ("eq", [ s; t ])) gen_term gen_term;
                    map (fun t -> Pred ("prime", [ t ])) gen_term;
                  ]
                else []
              in
              oneof
                ([
                   atom;
                   map (fun f -> Neg f) smaller;
                   map2 (fun f g -> Or (f, g)) sub sub;
                   map2 (fun f g -> And (f, g)) sub sub;
                   map2 (fun v f -> Exists (v, f)) gen_var smaller;
                   map2 (fun v f -> Forall (v, f)) gen_var smaller;
                 ]
                @ preds_gens)
            end)
          (size, 0)))

let arb_formula = QCheck.make ~print:Pp.formula_to_string gen_formula

let prop_roundtrip =
  QCheck.Test.make ~name:"parse (pp f) = f" ~count:500 arb_formula (fun f ->
      match Parser.formula_result Pred.standard (Pp.formula_to_string f) with
      | Ok f' -> equal_formula f f'
      | Error msg -> QCheck.Test.fail_reportf "no parse: %s" msg)

let () =
  Alcotest.run "foc_logic parser"
    [
      ( "golden",
        [
          Alcotest.test_case "atoms" `Quick test_atoms;
          Alcotest.test_case "connectives" `Quick test_connectives;
          Alcotest.test_case "quantifiers" `Quick test_quantifiers;
          Alcotest.test_case "terms" `Quick test_terms;
          Alcotest.test_case "pred sugar" `Quick test_pred_sugar;
          Alcotest.test_case "example 3.2" `Quick test_example_3_2;
        ] );
      ( "errors",
        [
          Alcotest.test_case "rejections" `Quick test_errors;
          Alcotest.test_case "integer literal out of range" `Quick
            test_int_out_of_range;
          Alcotest.test_case "repeated bound variable" `Quick
            test_repeated_bound_variable;
        ] );
      ("roundtrip", [ QCheck_alcotest.to_alcotest prop_roundtrip ]);
    ]
