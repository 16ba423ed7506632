(* Cover-based cl-term evaluation (Definitions 7.4/7.5 operationally):
   agreement with the direct neighbourhood sweep, cover-radius requirements,
   and the soundness of evaluating inside clusters. *)

open Foc_logic
open Foc_local
module Structure = Foc_data.Structure

let preds = Pred.standard
let parse s = Parser.formula preds s

let coloured seed g =
  let rng = Random.State.make [| seed |] in
  Foc_data.Db_gen.colored_digraph rng ~graph:g ~orient:`Both ~p_red:0.3
    ~p_blue:0.4 ~p_green:0.3

let decompose_unary vars src =
  let body = parse src in
  let r =
    match Locality.formula_radius body with
    | Locality.Local r -> r
    | Locality.Nonlocal w -> Alcotest.fail w
  in
  match Decompose.unary_count ~r ~vars body with
  | Some cl -> cl
  | None -> Alcotest.fail ("decomposition failed: " ^ src)

let direct_sweep a cl =
  let r = List.fold_left (fun r b -> max r b.Clterm.radius) 0 (Clterm.basics cl) in
  Clterm.direct (Pattern_count.make_ctx preds a ~r)

let cover_sweep a cl =
  let rc = Cover_term.required_cover_radius cl in
  Cover_term.pattern_sweep preds a
    (Foc_graph.Cover.make (Structure.gaifman a) ~r:rc)
    cl

let hanf_sweep a =
  Foc_nd.Hanf_backend.sweep ~classes_for:(Foc_bd.Hanf.classes a) preds a

let check_agreement name a cl =
  Alcotest.(check (array int))
    name
    (Clterm.eval_unary (direct_sweep a cl) cl)
    (Clterm.eval_unary (cover_sweep a cl) cl)

let test_agreement_tree () =
  let rng = Random.State.make [| 7 |] in
  let a = coloured 7 (Foc_graph.Gen.random_tree rng 120) in
  check_agreement "degree term" a
    (decompose_unary [ "x"; "y" ] "E(x,y) & B(y)");
  check_agreement "scattered term" a
    (decompose_unary [ "x"; "y" ] "B(y) & R(x)");
  check_agreement "two counted" a
    (decompose_unary [ "x"; "y"; "z" ] "E(x,y) & E(y,z)")

let test_agreement_grid () =
  let a = coloured 8 (Foc_graph.Gen.grid 9 10) in
  check_agreement "grid degree" a
    (decompose_unary [ "x"; "y" ] "E(x,y) & !B(y)")

let test_ground_agreement () =
  let rng = Random.State.make [| 9 |] in
  let a = coloured 9 (Foc_graph.Gen.random_bounded_degree rng 90 3) in
  let body = parse "E(u,v) | (R(u) & B(v))" in
  let r =
    match Locality.formula_radius body with
    | Locality.Local r -> r
    | Locality.Nonlocal w -> Alcotest.fail w
  in
  match Decompose.ground_count ~r ~vars:[ "u"; "v" ] body with
  | None -> Alcotest.fail "decomposition failed"
  | Some cl ->
      let expected = Foc_eval.Relalg.count preds a [ "u"; "v" ] body in
      Alcotest.(check int) "ground count" expected
        (Clterm.eval_ground (cover_sweep a cl) cl)

let test_radius_requirement () =
  let a = coloured 10 (Foc_graph.Gen.path 30) in
  let cl = decompose_unary [ "x"; "y" ] "E(x,y) & B(y)" in
  let needed = Cover_term.required_cover_radius cl in
  Alcotest.(check bool) "positive requirement" true (needed >= 1);
  let small_cover =
    Foc_graph.Cover.make (Structure.gaifman a) ~r:(needed - 1)
  in
  Alcotest.check_raises "undersized cover rejected"
    (Invalid_argument
       (Printf.sprintf
          "Cover_term: cover parameter %d smaller than required %d"
          (needed - 1) needed))
    (fun () -> ignore (Cover_term.pattern_sweep preds a small_cover cl))

let test_sentence_leaf () =
  let a = coloured 11 (Foc_graph.Gen.path 10) in
  (* a 0-width ground leaf (sentence) inside a polynomial *)
  let sentence_basic =
    Clterm.basic
      ~pattern:(Foc_graph.Pattern.make 0 [])
      ~radius:0 ~vars:[] ~body:Ast.True
  in
  let cl = Clterm.Mul (Clterm.Const 5, Clterm.Ground sentence_basic) in
  let cover = Foc_graph.Cover.make (Structure.gaifman a) ~r:0 in
  Alcotest.(check int)
    "5 * [true]" 5
    (Clterm.eval_ground (Cover_term.pattern_sweep preds a cover cl) cl)

(* The degree term plus a constant and a width-0 ground leaf (a sentence
   that holds on some structures and not on others). *)
let with_sentence cl =
  let sentence =
    Clterm.basic
      ~pattern:(Foc_graph.Pattern.make 0 [])
      ~radius:1 ~vars:[] ~body:(parse "exists y. (R(y) & G(y))")
  in
  Clterm.(Add (Mul (Const 3, Ground sentence), cl))

(* The sweep-cold term decomposes into several basic terms; the Cover
   sweep induces each kernel-bearing cluster once for all of them, and
   agrees with Direct at every jobs setting. *)
let test_one_pass () =
  let rng = Random.State.make [| 12 |] in
  let a = coloured 12 (Foc_graph.Gen.random_tree rng 300) in
  let cl =
    match
      Decompose.ground_count ~r:1 ~vars:[ "x"; "y" ]
        (parse "R(x) & !E(x,y) & B(y)")
    with
    | Some cl -> cl
    | None -> Alcotest.fail "decomposition failed"
  in
  Alcotest.(check bool) "several basic terms" true (Clterm.basic_count cl > 1);
  let cover =
    Foc_graph.Cover.make (Structure.gaifman a)
      ~r:(Cover_term.required_cover_radius cl)
  in
  let kernel_bearing =
    List.length
      (List.filter
         (fun i -> Array.length (Foc_graph.Cover.kernel cover i) > 0)
         (List.init (Foc_graph.Cover.cluster_count cover) Fun.id))
  in
  (* the vector of every swept basic term, then the ground count *)
  let answers s =
    ( List.filter_map
        (fun (b : Clterm.basic) ->
          if Foc_graph.Pattern.k b.pattern = 0 then None
          else Some (Clterm.eval_unary s (Clterm.Unary b)))
        (Clterm.basics cl),
      Clterm.eval_ground s cl )
  in
  let want = answers (direct_sweep a cl) in
  List.iter
    (fun jobs ->
      Foc_obs.Trace.clear ();
      Foc_obs.Trace.enable ();
      let got =
        Fun.protect ~finally:Foc_obs.Trace.disable (fun () ->
            answers (Cover_term.pattern_sweep ~jobs preds a cover cl))
      in
      let induced =
        List.length
          (List.filter
             (fun (e : Foc_obs.Trace.event) -> e.name = "induce")
             (Foc_obs.Trace.events ()))
      in
      Foc_obs.Trace.clear ();
      Alcotest.(check (pair (list (array int)) int))
        (Printf.sprintf "jobs %d: = direct" jobs)
        want got;
      Alcotest.(check int)
        (Printf.sprintf "jobs %d: one induction per cluster" jobs)
        kernel_bearing induced)
    [ 1; 4 ]

let prop_cover_vs_direct =
  (* the Hanf sweep is checked against the same reference *)
  QCheck.Test.make ~name:"cover sweep = direct sweep on random graphs"
    ~count:25
    QCheck.(pair (int_range 10 60) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| n; seed |] in
      let a = coloured seed (Foc_graph.Gen.random_bounded_degree rng n 3) in
      let unary = with_sentence (decompose_unary [ "x"; "y" ] "E(x,y) & B(y)") in
      let ground =
        match
          Decompose.ground_count ~r:1 ~vars:[ "x"; "y" ] (parse "E(x,y) & B(y)")
        with
        | Some cl -> with_sentence cl
        | None -> QCheck.assume_fail ()
      in
      List.for_all
        (fun sweep ->
          Clterm.eval_unary (direct_sweep a unary) unary
          = Clterm.eval_unary (sweep unary) unary
          && Clterm.eval_ground (direct_sweep a ground) ground
             = Clterm.eval_ground (sweep ground) ground)
        [ cover_sweep a; (fun _ -> hanf_sweep a) ])

let () =
  Alcotest.run "foc_local cover_term"
    [
      ( "agreement",
        [
          Alcotest.test_case "tree" `Quick test_agreement_tree;
          Alcotest.test_case "grid" `Quick test_agreement_grid;
          Alcotest.test_case "ground" `Quick test_ground_agreement;
          Alcotest.test_case "one pass" `Quick test_one_pass;
          QCheck_alcotest.to_alcotest prop_cover_vs_direct;
        ] );
      ( "contracts",
        [
          Alcotest.test_case "radius requirement" `Quick test_radius_requirement;
          Alcotest.test_case "sentence leaf" `Quick test_sentence_leaf;
        ] );
    ]
