(* Integration tests for the main engine (Theorem 5.5): agreement with the
   reference engines on the paper's running examples and on random
   structures, for all three back-ends. *)

open Foc_logic
open Foc_nd

let preds = Pred.standard
let parse s = Parser.formula preds s
let parse_t s = Parser.term preds s

let engines () =
  [
    ("direct", Engine.create ());
    ( "cover",
      Engine.create
        ~config:{ Engine.default_config with backend = Engine.Cover } () );
    ( "splitter",
      Engine.create
        ~config:
          {
            Engine.default_config with
            backend = Engine.Splitter { max_rounds = 3; small = 12 };
          }
        () );
  ]

(* Example 5.4's coloured digraphs over a sparse graph. *)
let colored rng n =
  let g = Foc_graph.Gen.random_bounded_degree rng n 3 in
  Foc_data.Db_gen.colored_digraph rng ~graph:g ~orient:`Random ~p_red:0.3
    ~p_blue:0.4 ~p_green:0.3

let test_sentences () =
  let rng = Random.State.make [| 61 |] in
  let a = colored rng 30 in
  let sentences =
    [
      "exists x. R(x) & B(x)";
      "forall x. (exists y. E(x,y)) | (exists y. E(y,x)) | R(x) | !R(x)";
      "prime(#(x). R(x))";
      "prime(#(x). x = x + #(x,y). E(x,y))" (* Example 3.2 *);
      "exists x. (#(y). (E(x,y) & B(y))) >= 1";
      "!(exists x y. E(x,y) & E(y,x))";
    ]
  in
  List.iter
    (fun (name, eng) ->
      List.iter
        (fun s ->
          let f = parse s in
          Alcotest.(check bool)
            (name ^ ": " ^ s)
            (Foc_eval.Relalg.holds preds a [] f)
            (Engine.check eng a f))
        sentences)
    (engines ())

let test_ground_terms () =
  let rng = Random.State.make [| 67 |] in
  let a = colored rng 25 in
  let terms =
    [
      "#(x). R(x)";
      "#(x,y). E(x,y)";
      "#(x). x = x + #(x,y). E(x,y)";
      "#(x,y). (R(x) & B(y))" (* scattered pairs: inclusion-exclusion *);
      "#(x,y). (E(x,y) | E(y,x))";
      "3 * #(x). (R(x) & (exists y. E(x,y) & B(y))) - 7";
    ]
  in
  List.iter
    (fun (name, eng) ->
      List.iter
        (fun s ->
          let t = parse_t s in
          Alcotest.(check int)
            (name ^ ": " ^ s)
            (Foc_eval.Relalg.term_value preds a [] t)
            (Engine.eval_ground eng a t))
        terms)
    (engines ())

let test_unary_terms () =
  let rng = Random.State.make [| 71 |] in
  let a = colored rng 25 in
  let n = Foc_data.Structure.order a in
  let terms =
    [
      "#(y). E(x,y)" (* out-degree: Example 3.2 *);
      "#(y). (E(x,y) & B(y))" (* t_B of Example 5.4 *);
      "#(y,z). (E(x,y) & E(y,z) & E(z,x))" (* t_Δ of Example 5.4 *);
      "#(y). (B(y) & R(x))" (* scattered *);
      "2 * #(y). E(x,y) + #(y). E(y,x)";
    ]
  in
  List.iter
    (fun (name, eng) ->
      List.iter
        (fun s ->
          let t = parse_t s in
          let got = Engine.eval_unary eng a "x" t in
          for v = 0 to n - 1 do
            Alcotest.(check int)
              (Printf.sprintf "%s: %s @%d" name s v)
              (Foc_eval.Relalg.term_value preds a [ ("x", v) ] t)
              got.(v)
          done)
        terms)
    (engines ())

let test_nested_counting () =
  (* #-depth 2: stratification must materialise the inner condition.
     φ_Δ,R of Example 5.4: nodes whose triangle count equals the number of
     red nodes — then count them. *)
  let rng = Random.State.make [| 73 |] in
  let a = colored rng 20 in
  let t =
    parse_t "#(x). eq(#(y,z). (E(x,y) & E(y,z) & E(z,x)), #(w). R(w))"
  in
  List.iter
    (fun (name, eng) ->
      Alcotest.(check int)
        (name ^ ": t_Δ,R")
        (Foc_eval.Relalg.term_value preds a [] t)
        (Engine.eval_ground eng a t);
      Alcotest.(check bool)
        (name ^ " materialised inner conditions")
        true
        ((Engine.stats eng).materialised > 0))
    (engines ())

let test_holds_unary () =
  let rng = Random.State.make [| 79 |] in
  let a = colored rng 25 in
  let n = Foc_data.Structure.order a in
  let formulas =
    [
      "R(x) & (exists y. E(x,y))";
      "prime(#(y). E(x,y))";
      "(#(y). (E(x,y) & B(y))) == #(y). E(y,x)";
    ]
  in
  List.iter
    (fun (name, eng) ->
      List.iter
        (fun s ->
          let f = parse s in
          let got = Engine.holds_unary eng a "x" f in
          for v = 0 to n - 1 do
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s @%d" name s v)
              (Foc_eval.Relalg.holds preds a [ ("x", v) ] f)
              got.(v)
          done)
        formulas)
    (engines ())

let test_query_example_5_4 () =
  (* the full query of Example 5.4:
     { (x, y, t_B(x)·t_Δ(y)) : φ_B,Δ,R(x) ∧ G(y) } *)
  let rng = Random.State.make [| 83 |] in
  let a = colored rng 14 in
  let t_b = parse_t "#(u). (E(x,u) & B(u))" in
  let t_d y = parse_t (Printf.sprintf "#(u,v). (E(%s,u) & E(u,v) & E(v,%s))" y y) in
  let body =
    parse
      "eq(#(u). (E(x,u) & B(u)), #(u,v). (E(x,u) & E(u,v) & E(v,x)) + #(w). \
       eq(#(u,v). (E(w,u) & E(u,v) & E(v,w)), #(z). R(z))) & G(y)"
  in
  ignore t_b;
  let q =
    Query.make ~head_vars:[ "x"; "y" ]
      ~head_terms:[ Ast.Mul (t_b, t_d "y") ]
      body
  in
  Alcotest.(check bool) "query is FOC1" true (Query.is_foc1 q);
  let expected = Foc_eval.Relalg.query preds a q in
  List.iter
    (fun (name, eng) ->
      let got = Engine.run_query eng a q in
      Alcotest.(check bool) (name ^ ": full result agrees") true (got = expected);
      (* spot-check the per-tuple interface of Theorem 5.5 *)
      List.iter
        (fun (tuple, values) ->
          match Engine.check_tuple eng a q tuple with
          | Some (true, got_values) ->
              Alcotest.(check (array int)) (name ^ ": tuple values") values got_values
          | _ -> Alcotest.fail (name ^ ": check_tuple rejected a result tuple"))
        (if List.length expected > 3 then [ List.hd expected ] else expected))
    (engines ())

let test_unary_head_query () =
  (* single-variable head: fully on the localized path *)
  let rng = Random.State.make [| 89 |] in
  let a = colored rng 30 in
  let q =
    Query.make ~head_vars:[ "x" ]
      ~head_terms:[ parse_t "#(y). E(x,y)" ]
      (parse "R(x)")
  in
  let expected = Foc_eval.Relalg.query preds a q in
  List.iter
    (fun (name, eng) ->
      let got = Engine.run_query eng a q in
      Alcotest.(check bool) (name ^ ": rows agree") true (got = expected))
    (engines ())

let test_no_fallback_on_supported () =
  (* the degree query must run without baseline fallbacks *)
  let rng = Random.State.make [| 97 |] in
  let a = colored rng 40 in
  let eng = Engine.create () in
  ignore (Engine.eval_unary eng a "x" (parse_t "#(y). (E(x,y) & B(y))"));
  Alcotest.(check int) "no fallbacks" 0 (Engine.stats eng).fallbacks;
  Alcotest.(check bool) "built a cl-term" true ((Engine.stats eng).clterms_built > 0)

let test_strict_mode () =
  let rng = Random.State.make [| 101 |] in
  let a = colored rng 10 in
  let eng =
    Engine.create
      ~config:{ Engine.default_config with allow_fallback = false } ()
  in
  (* a genuinely non-FOC1 formula must be rejected, not silently computed *)
  let bad = parse "eq(#(u). E(x,u), #(u). E(y,u))" in
  (match
     Engine.holds_unary eng a "x" (Ast.Exists ("y", Ast.And (bad, Ast.True)))
   with
  | exception Engine.Outside_fragment _ -> ()
  | _ -> Alcotest.fail "expected Outside_fragment");
  (* unguarded global counting body must also be refused in strict mode *)
  (match Engine.eval_ground eng a (parse_t "#(x,y). (R(x) & !E(x,y) & !E(y,x) & !(x = y) & B(y))") with
  | exception Engine.Outside_fragment _ -> ()
  | _ -> ());
  (* a head of two or more variables is one rule on every route: strict
     mode refuses it from run_query and from enumerate, through the walk
     (conjunctive body) and the table producer (disjunctive body) alike,
     and a default engine counts one fallback per call on each *)
  List.iter
    (fun body ->
      let q = Query.make ~head_vars:[ "x"; "y"; "z" ] ~head_terms:[] (parse body) in
      (match Engine.run_query eng a q with
      | exception Engine.Outside_fragment _ -> ()
      | _ -> Alcotest.fail (body ^ ": run_query answered in strict mode"));
      (match Engine.enumerate eng a q with
      | exception Engine.Outside_fragment _ -> ()
      | _ -> Alcotest.fail (body ^ ": enumerate answered in strict mode"));
      let lax = Engine.create () in
      let rows = Engine.run_query lax a q in
      Alcotest.(check int) (body ^ ": run_query fallbacks") 1
        (Engine.stats lax).fallbacks;
      let streamed = Foc_eval.Enum.to_list (Engine.enumerate lax a q) in
      Alcotest.(check int) (body ^ ": enumerate fallbacks") 2
        (Engine.stats lax).fallbacks;
      Alcotest.(check bool) (body ^ ": same rows") true (rows = streamed))
    [ "E(x,y) & E(x,z)"; "E(x,y) & (R(z) | B(z))" ]

(* Strict mode refuses a kernel outside the fragment only when evaluation
   reaches it: a kernel ∧/∨ short-circuit away is compiled (and
   localized) but never run, so it neither raises nor counts. Both the
   one-shot entry point and a session's compiled sentences. *)
let test_strict_short_circuit () =
  let rng = Random.State.make [| 3 |] in
  let a =
    Foc_data.Db_gen.colored_digraph rng
      ~graph:(Foc_graph.Gen.random_tree rng 50)
      ~orient:`Both ~p_red:0.3 ~p_blue:0.4 ~p_green:0.3
  in
  let config = { Engine.default_config with allow_fallback = false } in
  let bad = "exists x. (R(x) & (forall z. (B(z) | E(x,z))))" in
  let checkers =
    [
      ( "engine",
        fun () ->
          let e = Engine.create ~config () in
          ((fun phi -> Engine.check e a phi), e) );
      ( "session",
        fun () ->
          let s = Foc_serve.Session.create ~config a in
          ((fun phi -> Foc_serve.Session.check s phi), Foc_serve.Session.engine s)
      );
    ]
  in
  List.iter
    (fun (name, make) ->
      let check, _ = make () in
      (match check (parse bad) with
      | exception Engine.Outside_fragment _ -> ()
      | _ -> Alcotest.fail (name ^ ": the bare sentence was answered"));
      List.iter
        (fun (src, want) ->
          let check, e = make () in
          Alcotest.(check bool) (name ^ ": " ^ src) want (check (parse src));
          Alcotest.(check int)
            (name ^ ": no fallback on " ^ src)
            0 (Engine.stats e).fallbacks)
        [
          ("(exists x. R(x)) | (" ^ bad ^ ")", true);
          ("!(exists x. R(x)) & (" ^ bad ^ ")", false);
        ])
    checkers

(* a kernel that counts the variable [eval_unary] is asked about is
   closed, not anchored: its value is the same at every element *)
let test_bound_anchor () =
  let rng = Random.State.make [| 3 |] in
  let a = colored rng 30 in
  let eng = Engine.create () in
  let t = parse_t "#(x). R(x)" in
  let n = Engine.eval_ground eng a t in
  Alcotest.(check (array int))
    "constant" (Array.make 30 n)
    (Engine.eval_unary eng a "x" t)

let prop_engine_matches_relalg =
  QCheck.Test.make ~name:"engine = relalg on random FOC1 ground terms"
    ~count:40
    QCheck.(pair (int_range 4 18) (int_range 0 100000))
    (fun (n, seed) ->
      let rng = Random.State.make [| n; seed |] in
      let a = colored rng n in
      let kernels =
        [
          "#(x). (R(x) | (exists y. E(x,y) & G(y)))";
          "#(x,y). (E(x,y) & !B(y))";
          "#(x). eq(#(y). E(x,y), #(y). E(y,x))";
          "#(x,y). ((R(x) & G(y)) | E(x,y))";
        ]
      in
      let eng = Engine.create () in
      List.for_all
        (fun s ->
          let t = parse_t s in
          Engine.eval_ground eng a t = Foc_eval.Relalg.term_value preds a [] t)
        kernels)

let () =
  Alcotest.run "foc_nd engine"
    [
      ( "agreement",
        [
          Alcotest.test_case "sentences" `Quick test_sentences;
          Alcotest.test_case "ground terms" `Quick test_ground_terms;
          Alcotest.test_case "unary terms" `Quick test_unary_terms;
          Alcotest.test_case "counted anchor variable" `Quick test_bound_anchor;
          Alcotest.test_case "nested counting (#-depth 2)" `Quick test_nested_counting;
          Alcotest.test_case "unary formulas" `Quick test_holds_unary;
        ] );
      ( "queries",
        [
          Alcotest.test_case "Example 5.4" `Quick test_query_example_5_4;
          Alcotest.test_case "unary head" `Quick test_unary_head_query;
        ] );
      ( "fragment",
        [
          Alcotest.test_case "no fallback on supported" `Quick test_no_fallback_on_supported;
          Alcotest.test_case "strict mode" `Quick test_strict_mode;
          Alcotest.test_case "strict mode short-circuits" `Quick
            test_strict_short_circuit;
        ] );
      ("random", [ QCheck_alcotest.to_alcotest prop_engine_matches_relalg ]);
    ]
