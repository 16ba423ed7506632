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

(* top-level covers built fresh and counted, as the engine's memo does *)
let cover_for a ~rc =
  Foc.Obs.Metrics.(Counter.inc (counter (current ()) "engine.covers_built"));
  Foc_graph.Cover.make (Foc_data.Structure.gaifman a) ~r:rc

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
          (Splitter_backend.sweep ~cover_for:(cover_for a) preds a ~max_rounds
             ~small cl)
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
          Splitter_backend.sweep ~cover_for:(cover_for a) preds a
            ~max_rounds:2 ~small:6 cl;
          Hanf_backend.sweep ~classes_for:(Foc_bd.Hanf.classes a) preds a;
        ])

let random_tree seed n =
  coloured seed (Foc_graph.Gen.random_tree (Random.State.make [| seed |]) n)

let sweep_term = "#(x,y). (R(x) & !E(x,y) & B(y))"
let distance_term = "#(x,y,z). (R(x) & dist(x,y) <= 1 & dist(y,z) <= 1)"

(* [src] on a fresh Splitter engine: the answer and the engine's stats *)
let splitter_run ?(max_rounds = 3) ?(small = 64) ~jobs a src =
  let eng =
    Engine.create
      ~config:
        { (splitter_cfg ~max_rounds ~small) with Engine.jobs }
      ()
  in
  let v = Engine.eval_ground eng a (parse_t src) in
  (v, Engine.stats eng)

(* A recursion node builds one cover per (structure, cover radius): the
   top structure plus one per removal, and the sweep term's decomposition
   has as many cover radii as it has basic widths. *)
let test_batched_covers () =
  let a = random_tree 7 600 in
  let radii =
    match
      Foc_local.Decompose.localize ~max_width:4 ~anchored:false
        ~vars:[ "x"; "y" ] (parse "R(x) & !E(x,y) & B(y)")
    with
    | Ok (_, cl) ->
        List.sort_uniq compare
          (List.map Foc_local.Cover_term.basic_cover_radius
             (Foc_local.Clterm.basics cl))
    | Error why -> Alcotest.fail why
  in
  let direct = Engine.eval_ground (Engine.create ()) a (parse_t sweep_term) in
  List.iter
    (fun jobs ->
      let v, s = splitter_run ~jobs a sweep_term in
      Alcotest.(check int) (Printf.sprintf "jobs %d = direct" jobs) direct v;
      Alcotest.(check bool) "played removal rounds" true (s.removals > 0);
      Alcotest.(check bool)
        (Printf.sprintf "covers %d <= (1 + removals %d) x radii %d"
           s.covers_built s.removals (List.length radii))
        true
        (s.covers_built <= (1 + s.removals) * List.length radii))
    [ 1; 4 ]

(* k kernels of one removal radius on one cluster: the round removes the
   same vertex once for all of them. A star's hub is within every cover
   radius of every leaf, so the cover has one cluster; with one round the
   recursion below is the base. *)
let test_one_removal_per_radius () =
  let a = coloured 11 (Foc_graph.Gen.star 40) in
  let cl =
    Foc_local.Clterm.(
      Add
        ( decompose [ "x"; "y" ] "E(x,y) & B(y)",
          Add
            ( decompose [ "x"; "y" ] "E(x,y) & R(y)",
              decompose [ "x"; "y" ] "E(x,y) & G(y)" ) ))
  in
  let registry = Foc.Obs.Metrics.create () in
  let got =
    Foc.Obs.Metrics.with_current registry (fun () ->
        Foc_local.Clterm.eval_unary
          (Splitter_backend.sweep ~cover_for:(cover_for a) preds a
             ~max_rounds:1 ~small:8 cl)
          cl)
  in
  Alcotest.(check (array int)) "star = direct"
    (Foc_local.Clterm.eval_unary (direct_sweep a cl) cl)
    got;
  let value name =
    Foc.Obs.Metrics.(Counter.value (counter registry name))
  in
  let kernels = List.length (Foc_local.Clterm.basics cl) in
  Alcotest.(check int) "one round holds every basic term" kernels
    (value "splitter.kernels");
  Alcotest.(check int) "one removal for all of them" 1
    (value "engine.removals")

(* The recursion runs on worker domains at jobs > 1: answers and the
   removal and cover counters are those of jobs = 1. *)
let test_jobs_identical () =
  List.iter
    (fun (a, src, max_rounds, small) ->
      let v1, s1 = splitter_run ~max_rounds ~small ~jobs:1 a src in
      let v4, s4 = splitter_run ~max_rounds ~small ~jobs:4 a src in
      Alcotest.(check int) (src ^ " answer") v1 v4;
      Alcotest.(check int)
        (src ^ " = direct")
        (Engine.eval_ground (Engine.create ()) a (parse_t src))
        v1;
      Alcotest.(check int) (src ^ " removals") s1.removals s4.removals;
      Alcotest.(check int) (src ^ " covers") s1.covers_built s4.covers_built;
      Alcotest.(check bool) (src ^ " removed") true (s1.removals > 0))
    [
      (random_tree 3 2000, sweep_term, 3, 64);
      (random_tree 5 60, distance_term, 2, 12);
    ]

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
      ( "batching",
        [
          Alcotest.test_case "covers bounded by removals" `Quick
            test_batched_covers;
          Alcotest.test_case "one removal per removal radius" `Quick
            test_one_removal_per_radius;
          Alcotest.test_case "jobs 1 = jobs 4" `Quick test_jobs_identical;
        ] );
    ]
