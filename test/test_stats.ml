(* The statistics layer (Foc_stats) and the statistics-driven adaptive
   planner: histogram bucket boundaries, estimator sanity, overflow-free
   cardinality arithmetic, incremental-vs-scratch equivalence under random
   update sequences, and — the property everything else leans on — that
   plan choices never change results. *)

open Foc_logic
module Summary = Foc_stats.Summary
module Stats = Foc_stats.Stats
module Structure = Foc_data.Structure
module Relalg = Foc_eval.Relalg
module Eval_obs = Foc_eval.Eval_obs

let preds = Pred.standard

(* ---------------- Summary units ---------------- *)

let test_bucket_boundaries () =
  (* 100 values, one row each, 4 buckets: depth 25 *)
  let pairs = Array.init 100 (fun i -> (i, 1)) in
  let s = Summary.of_counts ~buckets:4 pairs in
  Alcotest.(check int) "rows" 100 s.Summary.rows;
  Alcotest.(check int) "distinct" 100 s.Summary.distinct;
  let h = s.Summary.hist in
  Alcotest.(check int) "bucket count" 4 (Array.length h);
  let rows = Array.fold_left (fun acc b -> acc + b.Summary.brows) 0 h in
  let dis = Array.fold_left (fun acc b -> acc + b.Summary.bdistinct) 0 h in
  Alcotest.(check int) "bucket rows sum to total" 100 rows;
  Alcotest.(check int) "bucket distincts sum to total" 100 dis;
  Array.iteri
    (fun i b ->
      Alcotest.(check bool) "lo <= hi" true (b.Summary.lo <= b.Summary.hi);
      if i > 0 then
        Alcotest.(check bool)
          "buckets disjoint and increasing" true
          (h.(i - 1).Summary.hi < b.Summary.lo))
    h;
  (* uniform data: every value estimated at its true frequency *)
  Alcotest.(check (float 1e-9)) "eq_rows uniform" 1.0 (Summary.eq_rows s 42);
  Alcotest.(check (float 1e-9)) "eq_rows outside" 0.0 (Summary.eq_rows s 200)

let test_heavy_hitter_isolated () =
  (* value 50 carries 1000 of 1100 rows: equi-depth must give it its own
     bucket, so its true frequency survives into the estimate *)
  let pairs = Array.init 101 (fun i -> (i, if i = 50 then 1000 else 1)) in
  let s = Summary.of_counts ~buckets:8 pairs in
  Alcotest.(check (float 1e-9)) "hub keeps its frequency" 1000.
    (Summary.eq_rows s 50);
  Alcotest.(check bool)
    "light neighbours stay light" true
    (Summary.eq_rows s 10 <= 2.);
  (* self-join of the skewed column: dominated by the hub's 1000^2 pairs;
     the uniform-domain model (1100^2/101 ~ 12k) is off by ~80x *)
  let j = Summary.join_rows s s in
  Alcotest.(check bool) "self-join sees the hub" true (j >= 900_000.)

let test_no_histogram () =
  let pairs = Array.init 10 (fun i -> (i, 3)) in
  let s = Summary.of_counts ~buckets:0 pairs in
  Alcotest.(check int) "rows" 30 s.Summary.rows;
  Alcotest.(check int) "no buckets" 0 (Array.length s.Summary.hist);
  Alcotest.(check (float 1e-9)) "eq_rows = rows/distinct" 3.0
    (Summary.eq_rows s 4);
  (* containment fallback: rows1*rows2 / max distinct *)
  Alcotest.(check (float 1e-9)) "join_rows fallback" 90.
    (Summary.join_rows s s);
  Alcotest.(check (float 1e-9)) "empty joins to zero" 0.
    (Summary.join_rows s Summary.empty)

let test_uniform_self_join () =
  let pairs = Array.init 100 (fun i -> (i, 1)) in
  let s = Summary.of_counts ~buckets:4 pairs in
  Alcotest.(check (float 1e-6)) "self-join of a key column" 100.
    (Summary.join_rows s s);
  Alcotest.(check (float 1e-9)) "eq_sel in [0,1]" 0.01 (Summary.eq_sel s s)

(* ---------------- planner arithmetic (overflow regression) ------------ *)

let vset l = Var.Set.of_list l

let test_join_estimate_no_overflow () =
  (* intermediate cardinalities beyond 2^62: the old int arithmetic
     wrapped negative and derailed the greedy order; floats must not *)
  let huge = max_int / 4 in
  let e =
    Planner.join_estimate ~n:2
      (vset [ "x"; "y" ], huge)
      (vset [ "y"; "z" ], huge)
  in
  Alcotest.(check bool) "finite" true (Float.is_finite e);
  Alcotest.(check bool) "positive" true (e > 0.)

let test_plan_joins_huge_cards () =
  let huge = max_int / 4 in
  let inputs =
    [|
      Planner.input (vset [ "x"; "y" ]) huge;
      Planner.input (vset [ "y"; "z" ]) huge;
      Planner.input (vset [ "z"; "w" ]) huge;
    |]
  in
  let plan = Planner.plan_joins ~n:2 inputs in
  Alcotest.(check (list int))
    "order is a permutation" [ 0; 1; 2 ]
    (List.sort compare plan.Planner.order);
  Array.iter
    (fun est ->
      Alcotest.(check bool)
        "estimates stay finite and non-negative" true
        (Float.is_finite est && est >= 0.))
    plan.Planner.est

(* ---------------- incremental stats = collect from scratch ------------ *)

let sign =
  Foc_data.Signature.of_list [ ("E", 2); ("B", 1) ]

let gen_case =
  let open QCheck.Gen in
  int_range 3 10 >>= fun n ->
  let elem = int_range 0 (n - 1) in
  let edge = pair elem elem in
  list_size (int_range 0 20) edge >>= fun edges ->
  list_size (int_range 0 8) elem >>= fun bs ->
  list_size (int_range 0 40) (triple bool (oneofl [ `E; `B ]) edge)
  >>= fun ops -> return (n, edges, bs, ops)

let print_case (n, edges, bs, ops) =
  Printf.sprintf "n=%d |E0|=%d |B0|=%d ops=%d" n (List.length edges)
    (List.length bs) (List.length ops)

let prop_incremental =
  QCheck.Test.make ~name:"incremental stats = collect from scratch"
    ~count:300
    (QCheck.make ~print:print_case gen_case)
    (fun (n, edges, bs, ops) ->
      let a0 =
        Structure.create sign ~order:n
          [
            ("E", List.map (fun (u, v) -> [| u; v |]) edges);
            ("B", List.map (fun b -> [| b |]) bs);
          ]
      in
      let s = Stats.collect ~buckets:4 a0 in
      let a = ref a0 in
      List.iter
        (fun (ins, rel, (u, v)) ->
          let name, tup =
            match rel with `E -> ("E", [| u; v |]) | `B -> ("B", [| u |])
          in
          (* set semantics: only record deltas that change membership *)
          let changed =
            if ins then not (Structure.mem !a name tup)
            else Structure.mem !a name tup
          in
          a :=
            (if ins then Structure.add_tuples !a name [ tup ]
             else Structure.remove_tuples !a name [ tup ]);
          if changed then
            if ins then Stats.insert s name tup else Stats.delete s name tup)
        ops;
      let scratch = Stats.collect ~buckets:4 !a in
      Stats.equal s scratch && Stats.equal scratch s)

(* ---------------- plan choices never change results ------------------- *)

let fvars = [ "x"; "y"; "z" ]

let gen_conj =
  let open QCheck.Gen in
  let v = oneofl fvars in
  let atom =
    oneof
      [
        map2 (fun u w -> Ast.Rel ("E", [| u; w |])) v v;
        map (fun u -> Ast.Rel ("B", [| u |])) v;
        map2 (fun u w -> Ast.Eq (u, w)) v v;
      ]
  in
  let lit = oneof [ atom; map (fun f -> Ast.Neg f) atom ] in
  list_size (int_range 1 5) lit >>= fun ls ->
  return
    (List.fold_left (fun acc l -> Ast.And (acc, l)) (List.hd ls) (List.tl ls))

let gen_small_structure =
  let open QCheck.Gen in
  int_range 2 7 >>= fun n ->
  let elem = int_range 0 (n - 1) in
  list_size (int_range 0 12) (pair elem elem) >>= fun edges ->
  list_size (int_range 0 4) elem >>= fun bs ->
  return
    (Structure.create sign ~order:n
       [
         ("E", List.map (fun (u, v) -> [| u; v |]) edges);
         ("B", List.map (fun b -> [| b |]) bs);
       ])

let print_formula_case (phi, a) =
  Format.asprintf "%s on order-%d structure" (Pp.formula_to_string phi)
    (Structure.order a)

let prop_stats_neutral =
  QCheck.Test.make
    ~name:"stats-driven plans = stats-free plans = naive" ~count:300
    (QCheck.make ~print:print_formula_case
       QCheck.Gen.(pair gen_conj gen_small_structure))
    (fun (phi, a) ->
      let uniform =
        Relalg.count ~ctx:(Relalg.make_ctx ~buckets:0 ()) preds a fvars phi
      in
      let planned = Relalg.count preds a fvars phi in
      let ctx =
        Relalg.make_ctx ~stats_for:(fun a -> Stats.collect a) ~buckets:4 ()
      in
      let with_stats = Relalg.count ~ctx preds a fvars phi in
      (* second evaluation through the same ctx: the re-planned order
         (if the feedback loop fired) must agree too *)
      let again = Relalg.count ~ctx preds a fvars phi in
      let naive =
        Foc_eval.Naive.ground_term preds a (Ast.Count (fvars, phi))
      in
      if uniform <> planned then
        QCheck.Test.fail_reportf "planned %d vs uniform %d" planned uniform
      else if with_stats <> planned then
        QCheck.Test.fail_reportf "stats %d vs planned %d" with_stats planned
      else if again <> with_stats then
        QCheck.Test.fail_reportf "replanned %d vs first %d" again with_stats
      else if naive <> planned then
        QCheck.Test.fail_reportf "naive %d vs planned %d" naive planned
      else true)

(* ---------------- the adaptive feedback loop -------------------------- *)

(* A conjunction built to fool the first plan: A and B are perfectly
   correlated on (x, y) (B contains A's diagonal), so the independence
   estimate for joining B early is ~16x under the truth; C is an
   uncorrelated same-size alternative. Run 1 must pick B early, observe
   the blow-up, and run 2 must re-plan around it — with identical
   results. *)
let test_adaptive_replan () =
  let n = 60 in
  let sg =
    Foc_data.Signature.of_list [ ("S", 1); ("A", 2); ("B", 2); ("C", 2) ]
  in
  let a =
    Structure.create sg ~order:n
      [
        ("S", List.init 16 (fun i -> [| i |]));
        ("A", List.init 32 (fun i -> [| i; i |]));
        ( "B",
          List.concat_map
            (fun i -> [ [| i; i |]; [| i; (i + 1) mod 32 |] ])
            (List.init 32 Fun.id) );
        ("C", List.init 32 (fun i -> [| i; (i + 40) mod 60 |]));
      ]
  in
  let phi =
    Ast.And
      ( Ast.And
          ( Ast.And (Ast.Rel ("S", [| "x" |]), Ast.Rel ("A", [| "x"; "y" |])),
            Ast.Rel ("C", [| "x"; "z" |]) ),
        Ast.Rel ("B", [| "x"; "y" |]) )
  in
  let expected =
    Foc_eval.Naive.ground_term preds a (Ast.Count (fvars, phi))
  in
  Alcotest.(check int) "scenario sanity" 16 expected;
  Eval_obs.reset ();
  (* statistics off (buckets 0): run 1 plans with uniform estimates and
     must misjudge the correlated join *)
  let orders () =
    List.map
      (fun (p : Eval_obs.plan_record) -> p.order)
      (Eval_obs.plans_since 0)
  in
  let ctx = Relalg.make_ctx ~buckets:0 () in
  let r1 = Relalg.count ~ctx preds a fvars phi in
  let orders1 = orders () in
  let r2 = Relalg.count ~ctx preds a fvars phi in
  let orders2 = orders () in
  Alcotest.(check int) "run 1 result" expected r1;
  Alcotest.(check int) "run 2 result" expected r2;
  Alcotest.(check bool) "estimation error observed" true
    (Eval_obs.err_max_x100 () > 800);
  Alcotest.(check bool) "re-planned" true (Eval_obs.replans () >= 1);
  (* the recorded orders actually differ *)
  let last l = List.nth l (List.length l - 1) in
  Alcotest.(check bool) "order flip" true
    (List.length orders2 > List.length orders1
    && last orders2 <> last orders1)

(* ---------------- stats through the session layer --------------------- *)

let test_session_stats_incremental () =
  (* the session keeps the base structure's statistics fresh across
     updates without recollecting *)
  let a =
    Structure.create sign ~order:8
      [ ("E", [ [| 0; 1 |]; [| 1; 2 |] ]); ("B", [ [| 0 |] ]) ]
  in
  let s = Foc_serve.Session.create a in
  let phi = Foc.parse_formula "exists x. exists y. (E(x,y) & B(x))" in
  let r0 = Foc_serve.Session.check s phi in
  Alcotest.(check bool) "before insert" true r0;
  Foc_serve.Session.insert s "E" [| 3; 4 |];
  Foc_serve.Session.insert s "E" [| 3; 4 |] (* duplicate: must be a no-op *);
  Foc_serve.Session.delete s "B" [| 0 |];
  let r1 = Foc_serve.Session.check s phi in
  Alcotest.(check bool) "after delete" false r1;
  (* engine fallbacks during those checks route stats through the
     session hook; the counters prove the hook is installed *)
  let line = Foc_serve.Session.stats_line s in
  Alcotest.(check bool) "session counts stats lookups" true
    (String.length line > 0)

let () =
  Alcotest.run "stats"
    [
      ( "summary",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "heavy hitter isolated" `Quick
            test_heavy_hitter_isolated;
          Alcotest.test_case "no histogram" `Quick test_no_histogram;
          Alcotest.test_case "uniform self-join" `Quick test_uniform_self_join;
        ] );
      ( "planner",
        [
          Alcotest.test_case "join_estimate overflow" `Quick
            test_join_estimate_no_overflow;
          Alcotest.test_case "plan_joins huge cards" `Quick
            test_plan_joins_huge_cards;
        ] );
      ( "incremental",
        [ QCheck_alcotest.to_alcotest prop_incremental ] );
      ( "neutrality",
        [ QCheck_alcotest.to_alcotest prop_stats_neutral ] );
      ( "adaptive",
        [
          Alcotest.test_case "replan on misestimate" `Quick
            test_adaptive_replan;
        ] );
      ( "session",
        [
          Alcotest.test_case "incremental session stats" `Quick
            test_session_stats_incremental;
        ] );
    ]
