(* Tests for the query planner (EXPLAIN) and the treedepth module with its
   induced Splitter strategy, plus the new generators. *)

open Foc_logic
module G = Foc_graph

let preds = Pred.standard
let parse s = Parser.formula preds s
let parse_t s = Parser.term preds s

(* ---------------- plans ---------------- *)

let test_plan_degree_term () =
  let plan = Foc_nd.Plan.term_plan (parse_t "#(x,y). (E(x,y) & B(y))") in
  Alcotest.(check bool) "fully localized" true plan.strictly_localized;
  Alcotest.(check int) "one kernel" 1 (List.length plan.kernels);
  match plan.kernels with
  | [ ({ route = Foc_nd.Plan.Localized { patterns; _ }; _ } as k) ] ->
      Alcotest.(check bool) "ground" false k.anchored;
      Alcotest.(check int) "width 2" 2 k.width;
      Alcotest.(check int) "2 patterns" 2 patterns
  | _ -> Alcotest.fail "expected one localized kernel"

let test_plan_nested () =
  (* #-depth 2: the inner prime condition is a materialisation *)
  let plan =
    Foc_nd.Plan.formula_plan
      (parse "exists x. prime(#(y). (E(x,y) & B(y)))")
  in
  Alcotest.(check int) "one materialisation" 1 plan.materialisations;
  Alcotest.(check int) "two kernels" 2 (List.length plan.kernels);
  Alcotest.(check bool) "fully localized" true plan.strictly_localized;
  (* the inner kernel is per-element, the outer ground *)
  match plan.kernels with
  | [ inner; outer ] ->
      Alcotest.(check bool) "inner per-element" true inner.anchored;
      Alcotest.(check bool) "outer ground" false outer.anchored
  | _ -> Alcotest.fail "unexpected kernel count"

let test_plan_fallbacks () =
  (* an unguarded quantifier makes the body non-local: fallback with reason *)
  let plan =
    Foc_nd.Plan.term_plan (parse_t "#(y). (exists z. (B(z) | E(x,y)))")
  in
  Alcotest.(check bool) "not fully localized" false plan.strictly_localized;
  (match plan.kernels with
  | [ { route = Foc_nd.Plan.Fallback why; _ } ] ->
      Alcotest.(check bool) "reason mentions guard" true
        (String.length why > 0)
  | _ -> Alcotest.fail "expected one fallback kernel");
  (* width cap *)
  let narrow = { Foc_nd.Engine.default_config with max_width = 1 } in
  let plan2 =
    Foc_nd.Plan.term_plan ~config:narrow (parse_t "#(x,y). E(x,y)")
  in
  Alcotest.(check bool) "width-capped" false plan2.strictly_localized

let test_plan_query () =
  let q =
    Query.make ~head_vars:[ "x" ]
      ~head_terms:[ parse_t "#(y). (E(x,y) & B(y))" ]
      (parse "R(x)")
  in
  let plan = Foc_nd.Plan.query_plan q in
  Alcotest.(check bool) "localized" true plan.strictly_localized;
  Alcotest.(check int) "body + term kernels" 2 (List.length plan.kernels);
  (* the pretty-printer produces something *)
  let printed = Format.asprintf "%a" Foc_nd.Plan.pp plan in
  Alcotest.(check bool) "pp non-empty" true (String.length printed > 40)

let test_plan_matches_engine () =
  (* if the plan says fully localized, the engine must not fall back *)
  let rng = Random.State.make [| 71 |] in
  let a =
    Foc_data.Db_gen.colored_digraph rng
      ~graph:(G.Gen.random_tree rng 50)
      ~orient:`Both ~p_red:0.3 ~p_blue:0.4 ~p_green:0.3
  in
  let terms =
    [
      "#(x,y). (E(x,y) & B(y))";
      "#(x). prime(#(y). E(x,y))";
      "#(y). (B(y) | R(x))" (* scattered but decomposable *);
      "#(y). (exists z. (B(z) | E(x,y)))" (* unguarded z: fallback *);
    ]
  in
  List.iter
    (fun src ->
      let t = parse_t src in
      let plan = Foc_nd.Plan.term_plan t in
      let eng = Foc_nd.Engine.create () in
      (match Var.Set.elements (Ast.free_term t) with
      | [] -> ignore (Foc_nd.Engine.eval_ground eng a t)
      | [ x ] -> ignore (Foc_nd.Engine.eval_unary eng a x t)
      | _ -> ());
      Alcotest.(check bool)
        (src ^ ": plan fallback prediction matches engine")
        plan.strictly_localized
        ((Foc_nd.Engine.stats eng).fallbacks = 0))
    terms

(* The plan is the engine's compiled tree, so a run's counters are what
   the plan predicts: its fallback kernels are [engine.fallbacks] and its
   steps [engine.materialised]. Terms have no short-circuit, and neither
   does the unary or wide-head enumeration of a query. *)
let plan_counts (plan : Foc_nd.Plan.t) =
  ( List.length
      (List.filter
         (fun (k : Foc_nd.Plan.kernel) ->
           match k.route with Foc_nd.Plan.Fallback _ -> true | _ -> false)
         plan.kernels),
    plan.materialisations )

let run_counts eng =
  let s = Foc_nd.Engine.stats eng in
  (s.fallbacks, s.materialised)

let term_agrees t a =
  let eng = Foc_nd.Engine.create () in
  (match Var.Set.elements (Ast.free_term t) with
  | [] -> ignore (Foc_nd.Engine.eval_ground eng a t)
  | x :: _ -> ignore (Foc_nd.Engine.eval_unary eng a x t));
  plan_counts (Foc_nd.Plan.term_plan t) = run_counts eng

let query_agrees q a =
  let eng = Foc_nd.Engine.create () in
  ignore (Foc_nd.Engine.run_query eng a q);
  plan_counts (Foc_nd.Plan.query_plan q) = run_counts eng

let show (plan, eng) =
  let f, m = plan and f', m' = eng in
  Printf.sprintf "plan fallbacks %d, materialisations %d; engine %d, %d" f m
    f' m'

let test_plan_counts_fixed () =
  let a = Fuzz_gen.coloured 71 (G.Gen.random_tree (Random.State.make [| 71 |]) 50) in
  List.iter
    (fun src ->
      let t = parse_t src in
      let eng = Foc_nd.Engine.create () in
      (match Var.Set.elements (Ast.free_term t) with
      | [] -> ignore (Foc_nd.Engine.eval_ground eng a t)
      | x :: _ -> ignore (Foc_nd.Engine.eval_unary eng a x t));
      let p = plan_counts (Foc_nd.Plan.term_plan t) and e = run_counts eng in
      Alcotest.(check string) src (show (p, p)) (show (p, e)))
    [
      "#(x,y). (E(x,y) & B(y))";
      "#(x). prime(#(y). E(x,y))";
      "#(y). (B(y) | R(x))";
      "#(y). (exists z. (B(z) | E(x,y)))";
    ];
  (* a counting head term over both head variables is evaluated per row:
     the head is the query's one fallback, the term is none *)
  let q =
    Query.make ~head_vars:[ "x"; "y" ]
      ~head_terms:[ parse_t "#(z). (E(x,z) & E(y,z))" ]
      (parse "E(x,y)")
  in
  let eng = Foc_nd.Engine.create () in
  ignore (Foc_nd.Engine.run_query eng a q);
  let p = plan_counts (Foc_nd.Plan.query_plan q) and e = run_counts eng in
  Alcotest.(check string) "two-variable head term" (show (p, p)) (show (p, e));
  Alcotest.(check int) "one fallback" 1 (fst e)

let prop_plan_term =
  QCheck.Test.make ~name:"plan = engine counters on random terms" ~count:60
    (QCheck.make ~print:Fuzz_gen.print_case
       QCheck.Gen.(
         pair
           (oneof
              [
                Fuzz_gen.gen_ground_term ~max_k:3;
                Fuzz_gen.gen_nested_ground;
                Fuzz_gen.gen_unary_term "x0" ~max_k:2;
                map2
                  (fun s u -> Ast.Add (s, u))
                  (Fuzz_gen.gen_unary_term "x0" ~max_k:2)
                  Fuzz_gen.gen_nested_ground;
              ])
           Fuzz_gen.gen_structure))
    (fun (t, a) -> term_agrees t a)

let prop_plan_query =
  QCheck.Test.make ~name:"plan = engine counters on random queries" ~count:40
    (QCheck.make
       ~print:(fun (q, a) ->
         Format.asprintf "%a@.on order-%d structure" Query.pp q
           (Foc_data.Structure.order a))
       QCheck.Gen.(
         pair
           (oneof
              [
                map2
                  (fun body t ->
                    Query.make ~head_vars:[ "x0" ] ~head_terms:[ t ] body)
                  (Fuzz_gen.gen_body ~depth:1 [ "x0" ])
                  (Fuzz_gen.gen_unary_term "x0" ~max_k:2);
                map3
                  (fun s u g ->
                    Query.make ~head_vars:[ "x0"; "x1" ]
                      ~head_terms:
                        [ s; u; g; parse_t "#(z). (E(x0,z) & E(x1,z))" ]
                      (parse "E(x0,x1)"))
                  (Fuzz_gen.gen_unary_term "x0" ~max_k:2)
                  (Fuzz_gen.gen_unary_term "x1" ~max_k:2)
                  (Fuzz_gen.gen_ground_term ~max_k:2);
              ])
           Fuzz_gen.gen_structure))
    (fun (q, a) -> query_agrees q a)

(* ---------------- treedepth ---------------- *)

let test_exact_known () =
  let td g = G.Treedepth.exact g in
  Alcotest.(check int) "single vertex" 1 (td (G.Graph.create 1 []));
  Alcotest.(check int) "edge" 2 (td (G.Gen.path 2));
  (* td(P_n) = ceil(log2 (n+1)) *)
  Alcotest.(check int) "P3" 2 (td (G.Gen.path 3));
  Alcotest.(check int) "P7" 3 (td (G.Gen.path 7));
  Alcotest.(check int) "P8" 4 (td (G.Gen.path 8));
  Alcotest.(check int) "K5" 5 (td (G.Gen.clique 5));
  Alcotest.(check int) "star" 2 (td (G.Gen.star 8));
  Alcotest.(check int) "disconnected = max" 2
    (td (G.Graph.union (G.Gen.path 2) (G.Gen.path 3)))

let test_heuristic_validity () =
  let rng = Random.State.make [| 73 |] in
  List.iter
    (fun g ->
      let f = G.Treedepth.heuristic g in
      Alcotest.(check bool) "elimination forest" true
        (G.Treedepth.is_elimination_forest g f);
      if G.Graph.order g <= 14 then
        Alcotest.(check bool) "bound >= exact" true
          (G.Treedepth.forest_depth f >= G.Treedepth.exact g))
    [
      G.Gen.path 14;
      G.Gen.cycle 12;
      G.Gen.star 13;
      G.Gen.random_tree rng 14;
      G.Gen.random_bounded_degree rng 14 3;
      G.Gen.grid 3 4;
    ]

let test_heuristic_path_logarithmic () =
  let f = G.Treedepth.heuristic (G.Gen.path 1023) in
  (* exact is 10; the centre heuristic is exactly balanced on paths *)
  Alcotest.(check bool) "≈ log depth" true (G.Treedepth.forest_depth f <= 12)

let test_treedepth_splitter_wins () =
  let rng = Random.State.make [| 79 |] in
  let g = G.Gen.random_tree rng 300 in
  let bound = G.Treedepth.upper_bound g in
  let rounds =
    G.Splitter.rounds_to_win g ~r:2 ~max_rounds:(bound + 1)
      ~connector:(G.Splitter.connector_greedy ~r:2 rng)
      ~splitter:(G.Treedepth.splitter g)
  in
  match rounds with
  | Some k ->
      Alcotest.(check bool)
        (Printf.sprintf "wins within forest depth (%d <= %d)" k bound)
        true (k <= bound)
  | None -> Alcotest.fail "treedepth splitter should win"

(* ---------------- new generators ---------------- *)

let test_torus () =
  let g = G.Gen.torus 5 6 in
  Alcotest.(check int) "order" 30 (G.Graph.order g);
  Alcotest.(check int) "4-regular edges" 60 (G.Graph.edge_count g);
  for v = 0 to 29 do
    Alcotest.(check int) "degree 4" 4 (G.Graph.degree g v)
  done;
  (* vertex-transitive: one ball type *)
  let a = Foc_data.Structure.of_graph g in
  Alcotest.(check int) "single type" 1 (Foc_bd.Hanf.type_count a ~r:1)

let test_power_law () =
  let rng = Random.State.make [| 83 |] in
  let g = G.Gen.power_law rng 300 2 in
  Alcotest.(check int) "order" 300 (G.Graph.order g);
  Alcotest.(check bool) "connected" true (G.Components.is_connected g);
  Alcotest.(check bool) "sparse" true (G.Graph.edge_count g <= 2 * 300);
  Alcotest.(check bool) "has a hub" true (G.Graph.max_degree g >= 8)

let () =
  Alcotest.run "plan & treedepth"
    [
      ( "plan",
        [
          Alcotest.test_case "degree term" `Quick test_plan_degree_term;
          Alcotest.test_case "nested counting" `Quick test_plan_nested;
          Alcotest.test_case "fallback reporting" `Quick test_plan_fallbacks;
          Alcotest.test_case "query plan" `Quick test_plan_query;
          Alcotest.test_case "plan matches engine" `Quick test_plan_matches_engine;
          Alcotest.test_case "plan counts = engine counters" `Quick
            test_plan_counts_fixed;
          QCheck_alcotest.to_alcotest prop_plan_term;
          QCheck_alcotest.to_alcotest prop_plan_query;
        ] );
      ( "treedepth",
        [
          Alcotest.test_case "exact knowns" `Quick test_exact_known;
          Alcotest.test_case "heuristic validity" `Quick test_heuristic_validity;
          Alcotest.test_case "path is logarithmic" `Quick test_heuristic_path_logarithmic;
          Alcotest.test_case "splitter wins" `Quick test_treedepth_splitter_wins;
        ] );
      ( "generators",
        [
          Alcotest.test_case "torus" `Quick test_torus;
          Alcotest.test_case "power law" `Quick test_power_law;
        ] );
    ]
