(* Tests for the locality machinery: radius certification, ball-restricted
   evaluation, the Feferman-Vaught split, and — crucially — the Lemma 6.4
   decomposition checked against the relational-algebra engine. *)

open Foc_logic
open Foc_local
open Ast

let preds = Pred.standard
let parse s = Parser.formula preds s
let parse_t s = Parser.term preds s

let sign = Foc_data.Signature.of_list [ ("E", 2); ("B", 1); ("C", 1) ]

let structure_of_graph_coloured rng g =
  let base = Foc_data.Structure.of_graph g in
  let n = Foc_data.Structure.order base in
  let colour p =
    List.filter_map
      (fun v -> if Random.State.float rng 1.0 < p then Some [| v |] else None)
      (List.init n (fun i -> i))
  in
  Foc_data.Structure.create sign ~order:n
    [
      ( "E",
        Foc_data.Tuple.Set.elements (Foc_data.Structure.rel base "E")
        |> List.map (fun t -> t) );
      ("B", colour 0.4);
      ("C", colour 0.3);
    ]

(* ---------------- locality radius ---------------- *)

let check_local name expected phi =
  match Locality.formula_radius phi with
  | Locality.Local r -> Alcotest.(check int) name expected r
  | Locality.Nonlocal why -> Alcotest.fail (name ^ ": unexpectedly nonlocal: " ^ why)

let check_nonlocal name phi =
  match Locality.formula_radius phi with
  | Locality.Local r ->
      Alcotest.fail (Printf.sprintf "%s: unexpectedly local (r=%d)" name r)
  | Locality.Nonlocal _ -> ()

let test_radius_atoms () =
  check_local "atom" 0 (parse "E(x,y)");
  check_local "dist" 3 (parse "dist(x,y) <= 3");
  check_local "bool" 2 (parse "E(x,y) | dist(x,y) <= 2")

let test_radius_quantifiers () =
  (* ∃y (E(x,y) ∧ B(y)): y guarded at distance 1 *)
  check_local "guarded exists" 1 (parse "exists y. E(x,y) & B(y)");
  (* chain: ∃y∃z (E(x,y) ∧ E(y,z) ∧ B(z)) *)
  check_local "guard chain" 2 (parse "exists y z. E(x,y) & E(y,z) & B(z)");
  (* guarded forall: ∀y (dist(x,y) ≤ 2 → B(y)) *)
  check_local "guarded forall" 4 (parse "forall y. dist(x,y) <= 2 -> B(y)");
  check_nonlocal "unguarded exists" (parse "exists y. B(y) & B(x)");
  check_nonlocal "unguarded forall" (parse "forall y. B(y)")

let test_radius_terms () =
  (* t_B(x) = #(y).(E(x,y) ∧ B(y)) — Example 5.4 *)
  (match Locality.term_radius (parse_t "#(y). (E(x,y) & B(y))") with
  | Locality.Local r -> Alcotest.(check int) "t_B radius" 1 r
  | Locality.Nonlocal w -> Alcotest.fail w);
  (* t_Δ(x): triangles through x — chained guards *)
  (match Locality.term_radius (parse_t "#(y,z). (E(x,y) & E(y,z) & E(z,x))") with
  | Locality.Local r -> Alcotest.(check bool) "t_Δ local" true (r >= 1)
  | Locality.Nonlocal w -> Alcotest.fail w);
  (* ground term: global count *)
  (match Locality.term_radius (parse_t "#(x). B(x)") with
  | Locality.Local _ -> Alcotest.fail "ground term cannot be local"
  | Locality.Nonlocal _ -> ());
  (* unguarded counted variable *)
  match Locality.term_radius (parse_t "#(y). (B(y) | E(x,x))") with
  | Locality.Local _ -> Alcotest.fail "unguarded count cannot be local"
  | Locality.Nonlocal _ -> ()

let test_radius_pred_formula () =
  (* Prime(t_B(x)) is local around x *)
  check_local "pred of local term" 1 (parse "prime(#(y). (E(x,y) & B(y)))");
  (* Prime of a ground count is global *)
  check_nonlocal "pred of ground term" (parse "prime(#(y). B(y))")

(* ---------------- local evaluation agreement ---------------- *)

let compiled_at a f =
  let prog = Local_eval.compile preds a ~vars:[ "x" ] f in
  let s = Local_eval.scratch a and env = Array.make (Local_eval.width prog) 0 in
  fun v ->
    env.(0) <- v;
    Local_eval.holds prog s env

let test_local_eval_agreement () =
  let rng = Random.State.make [| 23 |] in
  let g = Foc_graph.Gen.random_tree rng 40 in
  let a = structure_of_graph_coloured rng g in
  let formulas =
    [
      "exists y. E(x,y) & B(y)";
      "forall y. dist(x,y) <= 2 -> (B(y) | C(y))";
      "prime(#(y). E(x,y))";
      "B(x) & (exists y z. E(x,y) & E(y,z) & C(z))";
      "(#(y). (E(x,y) & B(y))) >= 1";
    ]
  in
  List.iter
    (fun s ->
      let f = parse s in
      let compiled = compiled_at a f in
      for v = 0 to Foc_data.Structure.order a - 1 do
        let env = Foc_eval.Naive.env_of_list [ ("x", v) ] in
        Alcotest.(check bool)
          (Printf.sprintf "%s @ %d" s v)
          (Foc_eval.Naive.formula preds a env f)
          (compiled v)
      done)
    formulas

(* The guarded quantifier seeks its candidates through the E index: no
   position of the program scans the universe, and a predicate conjunct
   placed first in the body ticks once per candidate tried. *)
let test_local_eval_uses_balls () =
  let rng = Random.State.make [| 29 |] in
  let g = Foc_graph.Gen.path 200 in
  let a = structure_of_graph_coloured rng g in
  let f = parse "exists y. E(x,y) & B(y)" in
  Alcotest.(check int) "no unguarded scans" 0
    (Local_eval.unguarded (Local_eval.compile preds a ~vars:[ "x" ] f));
  let tried = ref 0 in
  let tick =
    { Pred.name = "tick"; arity = 1; sem = (fun _ -> incr tried; true) }
  in
  let preds' = Pred.add preds tick in
  let f' = Parser.formula preds' "exists y. tick(#(). (y = y)) & E(x,y) & B(y)" in
  let prog = Local_eval.compile preds' a ~vars:[ "x" ] f' in
  Alcotest.(check int) "no unguarded scans (ticking)" 0 (Local_eval.unguarded prog);
  let env = Array.make (Local_eval.width prog) 0 in
  env.(0) <- 100;
  Alcotest.(check bool) "agrees with naive"
    (Foc_eval.Naive.formula preds a (Foc_eval.Naive.env_of_list [ ("x", 100) ]) f)
    (Local_eval.holds prog (Local_eval.scratch a) env);
  Alcotest.(check bool) "few candidates" true (!tried >= 1 && !tried <= 5)

(* ---------------- compiled evaluator vs Naive ---------------- *)

let pool = [ "x"; "y"; "z"; "w" ]

(* Random formulas over E/B/C with free variables in [scope]: every
   constructor, counting terms under predicates, quantifiers that shadow,
   guarded (by an atom or a distance) and unguarded binders alike. *)
let rec gen_formula scope depth : formula QCheck.Gen.t =
  let open QCheck.Gen in
  let var = oneofl scope in
  let atom =
    oneof
      [
        map2 (fun u v -> Rel ("E", [| u; v |])) var var;
        map (fun u -> Rel ("B", [| u |])) var;
        map (fun u -> Rel ("C", [| u |])) var;
        map3 (fun u v w -> Rel ("T", [| u; v; w |])) var var var;
        return (Rel ("Z", [||]));
        map2 (fun u v -> Eq (u, v)) var var;
        map3 (fun u v d -> Dist (u, v, d)) var var (int_range 0 3);
        oneofl [ True; False ];
      ]
  in
  if depth = 0 then atom
  else
    let sub = gen_formula scope (depth - 1) in
    let binder k =
      oneofl pool >>= fun y -> k y (gen_formula (y :: scope) (depth - 1))
    in
    frequency
      [
        (4, atom);
        (2, map (fun f -> Neg f) sub);
        (3, map2 (fun f g -> And (f, g)) sub sub);
        (2, map2 (fun f g -> Or (f, g)) sub sub);
        (1, binder (fun y body -> map (fun f -> Exists (y, f)) body));
        (1, binder (fun y body -> map (fun f -> Forall (y, f)) body));
        ( 2,
          binder (fun y body ->
              map2 (fun u f -> Exists (y, And (Rel ("E", [| u; y |]), f))) var body) );
        ( 1,
          binder (fun y body ->
              map3
                (fun u v f -> Exists (y, And (Rel ("T", [| u; y; v |]), f)))
                var var body) );
        ( 2,
          binder (fun y body ->
              map3
                (fun u d f -> Forall (y, Or (Neg (Dist (u, y, d)), f)))
                var (int_range 1 2) body) );
        ( 2,
          map2
            (fun (p, unary) (t, t') -> Pred (p, if unary then [ t ] else [ t; t' ]))
            (oneofl [ ("ge1", true); ("prime", true); ("even", true); ("eq", false); ("le", false) ])
            (pair (gen_term scope (depth - 1)) (gen_term scope (depth - 1))) );
      ]

and gen_term scope depth : term QCheck.Gen.t =
  let open QCheck.Gen in
  let count =
    oneofl [ []; [ "z" ]; [ "w" ]; [ "y"; "z" ]; [ "z"; "w" ] ] >>= fun ys ->
    map (fun f -> Count (ys, f)) (gen_formula (ys @ scope) (max 0 (depth - 1)))
  in
  (* a counted variable seeking through either orientation of E: the two
     seeks overlap, so the union must drop duplicates *)
  let guarded =
    oneofl [ "z"; "w" ] >>= fun y ->
    map3
      (fun u u' f -> Count ([ y ], And (Or (Rel ("E", [| u; y |]), Rel ("E", [| y; u' |])), f)))
      (oneofl scope) (oneofl scope)
      (gen_formula (y :: scope) (max 0 (depth - 1)))
  in
  (* a pair seeking through a ternary atom with one bound argument: rows
     repeat the first counted value, so the seek must drop duplicates *)
  let ternary =
    map2
      (fun u f -> Count ([ "z"; "w" ], And (Rel ("T", [| u; "z"; "w" |]), f)))
      (oneofl scope)
      (gen_formula ("z" :: "w" :: scope) (max 0 (depth - 1)))
  in
  if depth = 0 then map (fun i -> Int i) (int_range 0 3)
  else
    frequency
      [
        (1, map (fun i -> Int i) (int_range 0 3));
        (4, count);
        (2, guarded);
        (2, ternary);
        (1, map2 (fun s t -> Ast.Add (s, t)) count count);
        (1, map2 (fun s t -> Ast.Mul (s, t)) count count);
      ]

(* a coloured bounded-degree graph plus a 0-ary Z and a ternary T whose
   rows often share their first two entries *)
let random_structure rng n =
  let g = Foc_graph.Gen.random_bounded_degree rng n 3 in
  let small () = Random.State.int rng (min n 3) in
  let triple _ = [| small (); small (); Random.State.int rng n |] in
  Foc_data.Structure.expand
    (structure_of_graph_coloured rng g)
    [
      ("T", 3, List.init (Random.State.int rng (n + 1)) triple);
      ("Z", 0, if Random.State.bool rng then [ [||] ] else []);
    ]

let params = [ "x"; "y" ]

let arb_formula =
  QCheck.make ~print:Pp.formula_to_string (gen_formula params 3)

let arb_term = QCheck.make ~print:Pp.term_to_string (gen_term params 3)

(* every environment of the parameters over a random structure *)
let all_envs n f =
  let ok = ref true in
  for x = 0 to n - 1 do
    for y = 0 to n - 1 do
      if !ok then ok := f x y
    done
  done;
  !ok

let prop_compiled_formula =
  QCheck.Test.make ~name:"compiled formula = Naive" ~count:300
    QCheck.(pair arb_formula (pair (int_range 1 7) (int_range 0 10000)))
    (fun (f, (n, seed)) ->
      let a = random_structure (Random.State.make [| n; seed |]) n in
      let prog = Local_eval.compile preds a ~vars:params f in
      let s = Local_eval.scratch a and env = Array.make (Local_eval.width prog) 0 in
      all_envs n (fun x y ->
          env.(0) <- x;
          env.(1) <- y;
          Local_eval.holds prog s env
          = Foc_eval.Naive.formula preds a
              (Foc_eval.Naive.env_of_list [ ("x", x); ("y", y) ])
              f))

let prop_compiled_term =
  QCheck.Test.make ~name:"compiled term = Naive" ~count:300
    QCheck.(pair arb_term (pair (int_range 1 7) (int_range 0 10000)))
    (fun (t, (n, seed)) ->
      let a = random_structure (Random.State.make [| n; seed |]) n in
      let prog = Local_eval.compile_term preds a ~vars:params t in
      let s = Local_eval.scratch a and env = Array.make (Local_eval.term_width prog) 0 in
      all_envs n (fun x y ->
          env.(0) <- x;
          env.(1) <- y;
          Local_eval.value prog s env
          = Foc_eval.Naive.term preds a
              (Foc_eval.Naive.env_of_list [ ("x", x); ("y", y) ])
              t))

(* The pattern sweep with its body pushed down to the placement levels
   counts what Naive counts for #(tl vars).(δ_{G,2r+1} ∧ body) at every
   anchor, sequentially and on four domains. *)
let connected_patterns =
  [
    (1, []);
    (2, [ (0, 1) ]);
    (3, [ (0, 1); (1, 2) ]);
    (3, [ (0, 1); (0, 2) ]);
    (3, [ (0, 2); (1, 2) ]);
    (3, [ (0, 1); (0, 2); (1, 2) ]);
  ]

let prop_pattern_count_pushdown =
  QCheck.Test.make ~name:"pushed-down Pattern_count = Naive δ-count" ~count:120
    QCheck.(
      pair
        (make
           ~print:(fun ((k, _), r, f) ->
             Printf.sprintf "k=%d r=%d %s" k r (Pp.formula_to_string f))
           Gen.(
             oneofl connected_patterns >>= fun (k, edges) ->
             let vars = List.filteri (fun i _ -> i < k) [ "x"; "y"; "z" ] in
             map2 (fun r f -> ((k, edges), r, f)) (int_range 0 1) (gen_formula vars 2)))
        (pair (int_range 1 10) (int_range 0 10000)))
    (fun (((k, edges), r, body), (n, seed)) ->
      let a = random_structure (Random.State.make [| n; seed |]) n in
      let pattern = Foc_graph.Pattern.make k edges in
      let vars = List.filteri (fun i _ -> i < k) [ "x"; "y"; "z" ] in
      let theta =
        And (Dist_formula.delta ~r:((2 * r) + 1) pattern vars, body)
      in
      let expected =
        Array.init n (fun v ->
            Foc_eval.Naive.term preds a
              (Foc_eval.Naive.env_of_list [ ("x", v) ])
              (Count (List.tl vars, theta)))
      in
      List.for_all
        (fun jobs ->
          let ctx = Pattern_count.make_ctx preds a ~r in
          Pattern_count.per_anchor ~jobs ctx ~pattern ~vars ~body = expected)
        [ 1; 4 ])

(* ---------------- split ---------------- *)

let eval_blocks a blocks envl envr =
  (* value of ⋁ λ∧ρ under combined env, plus disjointness check *)
  let holding =
    List.filter
      (fun (l, rho) ->
        Foc_eval.Naive.formula preds a envl l
        && Foc_eval.Naive.formula preds a envr rho)
      blocks
  in
  (List.length holding > 0, List.length holding <= 1)

let test_split_product () =
  let theta = parse "B(x) & C(y)" in
  let side_of v = if v = "x" then Split.L else Split.R in
  match Split.split ~r:0 ~side_of theta with
  | None -> Alcotest.fail "split failed"
  | Some blocks ->
      Alcotest.(check bool) "nonempty" true (List.length blocks >= 1);
      List.iter
        (fun (l, rho) ->
          Alcotest.(check bool) "lambda left-pure" true
            (Var.Set.subset (free_formula l) (Var.Set.singleton "x"));
          Alcotest.(check bool) "rho right-pure" true
            (Var.Set.subset (free_formula rho) (Var.Set.singleton "y")))
        blocks

let test_split_semantics () =
  let rng = Random.State.make [| 31 |] in
  (* two far-apart paths glued in one structure: x on one, y on the other *)
  let g = Foc_graph.Graph.union (Foc_graph.Gen.path 6) (Foc_graph.Gen.path 6) in
  let a = structure_of_graph_coloured rng g in
  let side_of v = if v = "x" then Split.L else Split.R in
  let cases =
    [ "B(x) & C(y)"; "B(x) | C(y)"; "!(B(x) & C(y))";
      "(exists u. E(x,u) & B(u)) & (C(y) | B(y))";
      "E(x,y)" (* cross atom: always false under the promise *) ]
  in
  List.iter
    (fun s ->
      let theta = parse s in
      match Split.split ~r:1 ~side_of theta with
      | None -> Alcotest.fail ("split failed on " ^ s)
      | Some blocks ->
          (* x ranges over the left path (0..5), y over the right (6..11):
             all cross distances are infinite, promise holds *)
          for vx = 0 to 5 do
            for vy = 6 to 11 do
              let env =
                Foc_eval.Naive.env_of_list [ ("x", vx); ("y", vy) ]
              in
              let expected = Foc_eval.Naive.formula preds a env theta in
              let got, disjoint = eval_blocks a blocks env env in
              Alcotest.(check bool) (s ^ " equivalent") expected got;
              Alcotest.(check bool) (s ^ " disjoint") true disjoint
            done
          done)
    cases

(* ---------------- atoms from the incidence index ---------------- *)

module Structure = Foc_data.Structure

let atom_sign = Foc_data.Signature.of_list [ ("U", 1); ("E", 2); ("T", 3) ]

(* a random structure over [atom_sign] with loops E(v,v) and a hub 0,
   whose incidence row (at least 2n - 1 rows) is the longer one in every
   binary test that involves it *)
let atom_structure rng n =
  let v () = Random.State.int rng n in
  let some p f =
    List.filter_map
      (fun x -> if Random.State.float rng 1.0 < p then Some (f x) else None)
      (List.init n Fun.id)
  in
  Structure.create atom_sign ~order:n
    [
      ("U", some 0.4 (fun x -> [| x |]));
      ( "E",
        List.init (2 * n) (fun _ -> [| v (); v () |])
        @ some 0.3 (fun x -> [| x; x |])
        @ List.concat_map (fun x -> [ [| 0; x |]; [| x; 0 |] ]) (List.init n Fun.id) );
      ("T", List.init (2 * n) (fun _ -> [| v (); v (); v () |]));
    ]

(* the structure, and structures derived from it whose relations are
   fresh: an expansion, an induced substructure, and updates *)
let derived rng a =
  let n = Structure.order a in
  let pairs k =
    List.init k (fun _ -> [| Random.State.int rng n; Random.State.int rng n |])
  in
  let members =
    List.filter (fun x -> x = 0 || Random.State.bool rng) (List.init n Fun.id)
  in
  [
    a;
    Structure.expand a [ ("F", 2, pairs n @ [ [| 1; 1 |] ]) ];
    fst (Structure.induced a members);
    Structure.add_tuples (Structure.add_tuples a "E" (pairs n)) "U" [ [| 0 |] ];
    Structure.remove_tuples a "E"
      (List.filteri (fun i _ -> i mod 2 = 0)
         (Foc_data.Tuple.Set.elements (Structure.rel a "E")));
  ]

let atoms =
  [ "U(x)"; "E(x,y)"; "E(y,x)"; "E(x,x)"; "E(x,z)"; "T(x,y,z)"; "T(x,x,y)"; "F(x,y)" ]

let prop_atom_incidence =
  QCheck.Test.make ~name:"compiled atom = Tuple.Set.mem, arities 1-3"
    ~count:60
    QCheck.(pair (int_range 2 24) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| n; seed |] in
      List.for_all
        (fun b ->
          let m = Structure.order b in
          List.for_all
            (fun src ->
              let phi = parse src in
              match phi with
              | Rel (r, args) when Foc_data.Signature.mem (Structure.signature b) r ->
                  let f = Local_eval.compile preds b ~vars:[ "x"; "y"; "z" ] phi in
                  let s = Local_eval.scratch b in
                  let env = Array.make (Local_eval.width f) 0 in
                  let ok = ref true in
                  for x = 0 to m - 1 do
                    for y = 0 to m - 1 do
                      let z = Random.State.int rng m in
                      let value = function "x" -> x | "y" -> y | _ -> z in
                      env.(0) <- x;
                      env.(1) <- y;
                      env.(2) <- z;
                      let expected =
                        Foc_data.Tuple.Set.mem (Array.map value args)
                          (Structure.rel b r)
                      in
                      if Local_eval.holds f s env <> expected then ok := false
                    done
                  done;
                  !ok
              | _ -> true)
            atoms)
        (derived rng (atom_structure rng n)))

(* ---------------- pattern counting ---------------- *)

let test_pattern_count_edges () =
  let rng = Random.State.make [| 37 |] in
  let g = Foc_graph.Gen.cycle 8 in
  let a = structure_of_graph_coloured rng g in
  let ctx = Pattern_count.make_ctx preds a ~r:0 in
  (* ordered pairs at distance <= 1 satisfying E: exactly the directed edges *)
  let edge_pattern = Foc_graph.Pattern.make 2 [ (0, 1) ] in
  let edges =
    Clterm.basic ~pattern:edge_pattern ~radius:0 ~vars:[ "u"; "v" ]
      ~body:(parse "E(u,v)")
  in
  Alcotest.(check int)
    "close E-pairs = 16" 16
    (Clterm.eval_ground (Clterm.direct ctx) (Clterm.Ground edges));
  (* per-anchor: each cycle vertex sees 2 outgoing close E-edges *)
  let per =
    Pattern_count.per_anchor ctx ~pattern:edge_pattern ~vars:[ "u"; "v" ]
      ~body:(parse "E(u,v)")
  in
  Array.iter (fun c -> Alcotest.(check int) "deg 2" 2 c) per;
  (* far pattern is not connected: sweeping it must be rejected *)
  Alcotest.check_raises "disconnected rejected"
    (Invalid_argument "Pattern_count: pattern not connected") (fun () ->
      ignore
        (Pattern_count.per_anchor ctx
           ~pattern:(Foc_graph.Pattern.make 2 [])
           ~vars:[ "u"; "v" ] ~body:Ast.True))

(* A sweep allocates nothing per anchor: the minor words of a whole
   [per_anchor] (plan compilation included) stay below the anchor count. *)
let test_sweep_allocation () =
  let n = 2000 in
  let rng = Random.State.make [| 59 |] in
  let a =
    Foc_data.Db_gen.colored_digraph rng
      ~graph:(Foc_graph.Gen.random_tree rng n)
      ~orient:`Both ~p_red:0.3 ~p_blue:0.4 ~p_green:0.3
  in
  Structure.prepare a;
  let pin name pattern vars body =
    let ctx = Pattern_count.make_ctx preds a ~r:1 in
    let before = Gc.minor_words () in
    let per = Pattern_count.per_anchor ctx ~pattern ~vars ~body:(parse body) in
    let words = Gc.minor_words () -. before in
    Alcotest.(check int)
      (name ^ " count")
      (Foc_eval.Relalg.count preds a vars (parse body))
      (Array.fold_left ( + ) 0 per);
    if words >= float_of_int n then
      Alcotest.failf "%s: %.0f minor words for %d anchors" name words n
  in
  pin "R(x)" (Foc_graph.Pattern.make 1 []) [ "x" ] "R(x)";
  pin "E(x,y) & B(y)"
    (Foc_graph.Pattern.make 2 [ (0, 1) ])
    [ "x"; "y" ] "E(x,y) & B(y)";
  (* y from its parent's ball: on bd-8 every 3-ball is stored as a bitset;
     the second sweep finds every ball cached, so it computes none *)
  let a =
    Foc_data.Db_gen.colored_digraph rng
      ~graph:(Foc_graph.Gen.random_bounded_degree rng n 8)
      ~orient:`Both ~p_red:0.3 ~p_blue:0.4 ~p_green:0.3
  in
  Structure.prepare a;
  let ctx = Pattern_count.make_ctx preds a ~r:1 in
  let pattern = Foc_graph.Pattern.make 2 [ (0, 1) ] and vars = [ "x"; "y" ] in
  let body = parse "B(y)" in
  let first = Pattern_count.per_anchor ctx ~pattern ~vars ~body in
  let before = Gc.minor_words () in
  let again = Pattern_count.per_anchor ctx ~pattern ~vars ~body in
  let words = Gc.minor_words () -. before in
  Alcotest.(check (array int)) "bitset balls: same counts" first again;
  Alcotest.(check bool) "bitset balls: some y" true (Array.exists (fun c -> c > 0) again);
  if words >= float_of_int n then
    Alcotest.failf "bitset balls: %.0f minor words for %d anchors" words n

let test_pattern_count_sentence () =
  let rng = Random.State.make [| 41 |] in
  let a = structure_of_graph_coloured rng (Foc_graph.Gen.path 5) in
  let ctx = Pattern_count.make_ctx preds a ~r:0 in
  let sentence body =
    Clterm.Ground
      (Clterm.basic ~pattern:(Foc_graph.Pattern.make 0 []) ~radius:0 ~vars:[]
         ~body)
  in
  Alcotest.(check int) "true sentence" 1
    (Clterm.eval_ground (Clterm.direct ctx) (sentence Ast.True));
  Alcotest.(check int) "false sentence" 0
    (Clterm.eval_ground (Clterm.direct ctx) (sentence Ast.False))

(* ---------------- decomposition vs relalg ---------------- *)

let check_ground_decomposition ?(max_width = 3) a name vars body =
  ignore max_width;
  let r =
    match Locality.formula_radius body with
    | Locality.Local r -> r
    | Locality.Nonlocal w -> Alcotest.fail (name ^ " body nonlocal: " ^ w)
  in
  match Decompose.ground_count ~r ~vars body with
  | None -> Alcotest.fail (name ^ ": decomposition failed")
  | Some cl ->
      let ctx = Pattern_count.make_ctx preds a ~r in
      let got = Clterm.eval_ground (Clterm.direct ctx) cl in
      let expected = Foc_eval.Relalg.count preds a vars body in
      Alcotest.(check int) name expected got

let test_decompose_ground_fixed () =
  let rng = Random.State.make [| 43 |] in
  let g = Foc_graph.Gen.random_tree rng 14 in
  let a = structure_of_graph_coloured rng g in
  check_ground_decomposition a "all pairs" [ "u"; "v" ] (parse "u = u");
  check_ground_decomposition a "edges" [ "u"; "v" ] (parse "E(u,v)");
  check_ground_decomposition a "colour product" [ "u"; "v" ]
    (parse "B(u) & C(v)");
  check_ground_decomposition a "non-edges" [ "u"; "v" ] (parse "!E(u,v)");
  check_ground_decomposition a "mixed or" [ "u"; "v" ]
    (parse "B(u) | C(v)");
  check_ground_decomposition a "single var" [ "u" ] (parse "B(u)");
  check_ground_decomposition a "guarded exists" [ "u"; "v" ]
    (parse "(exists w. E(u,w) & E(w,v)) | (B(u) & C(v))")

let test_decompose_ground_triples () =
  let rng = Random.State.make [| 47 |] in
  let g = Foc_graph.Gen.grid 3 4 in
  let a = structure_of_graph_coloured rng g in
  check_ground_decomposition a "triple colours" [ "u"; "v"; "w" ]
    (parse "B(u) & B(v) & C(w)");
  check_ground_decomposition a "path of length 2" [ "u"; "v"; "w" ]
    (parse "E(u,v) & E(v,w)");
  check_ground_decomposition a "edge plus isolated colour" [ "u"; "v"; "w" ]
    (parse "E(u,v) & C(w)")

let test_decompose_unary_fixed () =
  let rng = Random.State.make [| 53 |] in
  let g = Foc_graph.Gen.random_tree rng 12 in
  let a = structure_of_graph_coloured rng g in
  let check name vars body =
    let counted = List.tl vars in
    let r =
      match Locality.formula_radius body with
      | Locality.Local r -> r
      | Locality.Nonlocal w -> Alcotest.fail (name ^ ": " ^ w)
    in
    match Decompose.unary_count ~r ~vars body with
    | None -> Alcotest.fail (name ^ ": decomposition failed")
    | Some cl ->
        let ctx = Pattern_count.make_ctx preds a ~r in
        let got = Clterm.eval_unary (Clterm.direct ctx) cl in
        for v = 0 to Foc_data.Structure.order a - 1 do
          let expected =
            Foc_eval.Relalg.term_value preds a
              [ (List.hd vars, v) ]
              (Ast.Count (counted, body))
          in
          Alcotest.(check int)
            (Printf.sprintf "%s @ %d" name v)
            expected got.(v)
        done
  in
  check "degree" [ "x"; "y" ] (parse "E(x,y)");
  check "non-neighbours" [ "x"; "y" ] (parse "!E(x,y) & B(y)");
  check "global colour count per x" [ "x"; "y" ] (parse "B(y) & B(x)");
  check "two scattered" [ "x"; "y"; "z" ] (parse "B(x) & C(y) & C(z)")

(* the headline property: decomposition = relalg on random structures *)
let prop_decompose_random =
  QCheck.Test.make ~name:"Lemma 6.4 decomposition agrees with relalg"
    ~count:60
    QCheck.(pair (int_range 4 16) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| n; seed |] in
      let g = Foc_graph.Gen.random_bounded_degree rng n 3 in
      let a = structure_of_graph_coloured rng g in
      let bodies =
        [
          ([ "u"; "v" ], "E(u,v) | (B(u) & C(v))");
          ([ "u"; "v" ], "(B(u) & !E(u,v)) | (C(u) & E(v,u))");
          ([ "u"; "v"; "w" ], "E(u,v) & B(w)");
          ([ "u"; "v" ], "(exists s. E(u,s) & E(s,v)) & B(u)");
        ]
      in
      List.for_all
        (fun (vars, src) ->
          let body = parse src in
          let r =
            match Locality.formula_radius body with
            | Locality.Local r -> r
            | Locality.Nonlocal _ -> QCheck.assume_fail ()
          in
          match Decompose.ground_count ~r ~vars body with
          | None -> QCheck.assume_fail ()
          | Some cl ->
              let ctx = Pattern_count.make_ctx preds a ~r in
              Clterm.eval_ground (Clterm.direct ctx) cl
              = Foc_eval.Relalg.count preds a vars body)
        bodies)

let () =
  Alcotest.run "foc_local"
    [
      ( "locality",
        [
          Alcotest.test_case "atoms" `Quick test_radius_atoms;
          Alcotest.test_case "quantifiers" `Quick test_radius_quantifiers;
          Alcotest.test_case "terms" `Quick test_radius_terms;
          Alcotest.test_case "pred formulas" `Quick test_radius_pred_formula;
        ] );
      ( "local_eval",
        [
          Alcotest.test_case "agreement" `Quick test_local_eval_agreement;
          Alcotest.test_case "ball restriction" `Quick test_local_eval_uses_balls;
          QCheck_alcotest.to_alcotest prop_compiled_formula;
          QCheck_alcotest.to_alcotest prop_compiled_term;
          QCheck_alcotest.to_alcotest prop_pattern_count_pushdown;
          QCheck_alcotest.to_alcotest prop_atom_incidence;
        ] );
      ( "split",
        [
          Alcotest.test_case "product shape" `Quick test_split_product;
          Alcotest.test_case "semantics on far pairs" `Quick test_split_semantics;
        ] );
      ( "pattern_count",
        [
          Alcotest.test_case "edges" `Quick test_pattern_count_edges;
          Alcotest.test_case "sentences" `Quick test_pattern_count_sentence;
          Alcotest.test_case "a sweep allocates nothing per anchor" `Quick
            test_sweep_allocation;
        ] );
      ( "decompose",
        [
          Alcotest.test_case "ground fixed" `Quick test_decompose_ground_fixed;
          Alcotest.test_case "ground triples" `Quick test_decompose_ground_triples;
          Alcotest.test_case "unary fixed" `Quick test_decompose_unary_fixed;
          QCheck_alcotest.to_alcotest prop_decompose_random;
        ] );
    ]
