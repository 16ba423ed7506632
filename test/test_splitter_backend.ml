(* The splitter-game back-end (Section 8.2, steps 5a-e): agreement with the
   direct sweep across classes, recursion-depth behaviour, and the removal
   counter. *)

open Foc_logic
open Foc_nd

let preds = Pred.standard
let parse s = Parser.formula preds s
let parse_t s = Parser.term preds s

let coloured seed g =
  let rng = Random.State.make [| seed |] in
  Foc_data.Db_gen.colored_digraph rng ~graph:g ~orient:`Both ~p_red:0.3
    ~p_blue:0.4 ~p_green:0.3

let splitter_cfg ~max_rounds ~small =
  { Engine.default_config with backend = Engine.Splitter { max_rounds; small } }

let decompose vars src =
  let body = parse src in
  let r =
    match Foc_local.Locality.formula_radius body with
    | Foc_local.Locality.Local r -> r
    | Foc_local.Locality.Nonlocal w -> Alcotest.fail w
  in
  match Foc_local.Decompose.unary_count ~r ~vars body with
  | Some cl -> cl
  | None -> Alcotest.fail "decomposition failed"

let direct_sweep a cl =
  let r =
    List.fold_left
      (fun r b -> max r b.Foc_local.Clterm.radius)
      0
      (Foc_local.Clterm.basics cl)
  in
  Foc_local.Clterm.direct (Foc_local.Pattern_count.make_ctx preds a ~r)

(* removal steps land in the metrics registry in scope; with an engine's
   registry in scope they are read back through [Engine.stats] *)
let check_agree name a cl ~max_rounds ~small =
  let e = Engine.create ~config:(splitter_cfg ~max_rounds ~small) () in
  let got =
    Foc.Obs.Metrics.with_current (Engine.metrics e) (fun () ->
        Foc_local.Clterm.eval_unary
          (Splitter_backend.sweep preds a ~max_rounds ~small)
          cl)
  in
  let expected = Foc_local.Clterm.eval_unary (direct_sweep a cl) cl in
  Alcotest.(check (array int)) name expected got;
  (Engine.stats e).removals

let test_agree_star () =
  (* a star forces the hub removal immediately: the textbook case *)
  let a = coloured 1 (Foc_graph.Gen.star 40) in
  let cl = decompose [ "x"; "y" ] "E(x,y) & B(y)" in
  let removed = check_agree "star" a cl ~max_rounds:3 ~small:8 in
  Alcotest.(check bool) "performed removals" true (removed > 0)

let test_agree_tree () =
  let rng = Random.State.make [| 2 |] in
  let a = coloured 2 (Foc_graph.Gen.random_tree rng 150) in
  let cl = decompose [ "x"; "y" ] "E(x,y) & B(y)" in
  ignore (check_agree "tree" a cl ~max_rounds:3 ~small:10)

let test_agree_grid_scattered () =
  let a = coloured 3 (Foc_graph.Gen.grid 7 8) in
  (* a scattered kernel: exercises ground legs inside the polynomial *)
  let cl = decompose [ "x"; "y" ] "B(y) & R(x)" in
  ignore (check_agree "grid scattered" a cl ~max_rounds:2 ~small:10)

let test_rounds_zero_is_direct () =
  let rng = Random.State.make [| 4 |] in
  let a = coloured 4 (Foc_graph.Gen.random_tree rng 60) in
  let cl = decompose [ "x"; "y" ] "E(x,y) & B(y)" in
  let removed = check_agree "rounds=0" a cl ~max_rounds:0 ~small:4 in
  Alcotest.(check int) "no removals at depth 0" 0 removed

let test_engine_integration () =
  let rng = Random.State.make [| 5 |] in
  let a = coloured 5 (Foc_graph.Gen.random_bounded_degree rng 80 3) in
  let eng = Engine.create ~config:(splitter_cfg ~max_rounds:3 ~small:12) () in
  let direct = Engine.create () in
  let terms =
    [
      "#(x). (R(x) & (exists y. E(x,y) & B(y)))";
      "#(x,y). (E(x,y) | (R(x) & B(y)))";
    ]
  in
  List.iter
    (fun src ->
      let t = parse_t src in
      Alcotest.(check int) src
        (Engine.eval_ground direct a t)
        (Engine.eval_ground eng a t))
    terms;
  Alcotest.(check bool) "removal stats recorded" true
    ((Engine.stats eng).removals >= 0)

(* The degree term plus a constant and a width-0 ground leaf (a sentence);
   the Hanf sweep is checked against the same reference. *)
let prop_splitter_agrees =
  QCheck.Test.make ~name:"splitter backend = direct on random graphs"
    ~count:20
    QCheck.(pair (int_range 10 70) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| n; seed |] in
      let a = coloured seed (Foc_graph.Gen.random_bounded_degree rng n 3) in
      let sentence =
        Foc_local.Clterm.basic
          ~pattern:(Foc_graph.Pattern.make 0 [])
          ~radius:1 ~vars:[] ~body:(parse "exists y. (R(y) & G(y))")
      in
      let cl =
        Foc_local.Clterm.(
          Add
            ( Mul (Const 2, Ground sentence),
              decompose [ "x"; "y" ] "E(x,y) & B(y)" ))
      in
      let expected = Foc_local.Clterm.eval_unary (direct_sweep a cl) cl in
      List.for_all
        (fun sweep -> Foc_local.Clterm.eval_unary sweep cl = expected)
        [
          Splitter_backend.sweep preds a ~max_rounds:2 ~small:6;
          Hanf_backend.sweep ~classes_for:(Foc_bd.Hanf.classes a) preds a;
        ])

let () =
  Alcotest.run "foc_nd splitter backend"
    [
      ( "agreement",
        [
          Alcotest.test_case "star (hub removal)" `Quick test_agree_star;
          Alcotest.test_case "tree" `Quick test_agree_tree;
          Alcotest.test_case "grid scattered" `Quick test_agree_grid_scattered;
          Alcotest.test_case "rounds=0 is direct" `Quick test_rounds_zero_is_direct;
          Alcotest.test_case "engine integration" `Quick test_engine_integration;
          QCheck_alcotest.to_alcotest prop_splitter_agrees;
        ] );
    ]
