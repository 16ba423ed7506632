(* The columnar table kernel and the conjunction planner against the
   reference evaluator: random (unguarded) formulas — repeated-variable
   atoms, Neg under And, Forall, Eq chains, empty relations — must give
   the same counts and tables through the planned Relalg as brute-force
   Naive enumeration; plus unit tests for the kernels themselves (the
   leapfrog joins against a nested-loop reference, anti-join vs
   complement, division, merges) and the planner helpers. *)

open Foc_logic
open QCheck.Gen
module Table = Foc_eval.Table

let preds = Pred.standard
let sign = Foc_data.Signature.of_list [ ("E", 2); ("B", 1); ("R", 1) ]

(* small random structures, allowing empty relations and n = 1 *)
let gen_structure =
  pair (int_range 1 7) (int_range 0 1_000_000) >>= fun (n, seed) ->
  let rng = Random.State.make [| n; seed; 42 |] in
  let pick p xs = List.filter (fun _ -> Random.State.float rng 1.0 < p) xs in
  let p_edge = Random.State.float rng 0.6 in
  let pairs =
    List.concat_map
      (fun u -> List.map (fun v -> (u, v)) (List.init n (fun i -> i)))
      (List.init n (fun i -> i))
  in
  let edges = List.map (fun (u, v) -> [| u; v |]) (pick p_edge pairs) in
  let colour p = List.map (fun v -> [| v |]) (pick p (List.init n (fun i -> i))) in
  return
    (Foc_data.Structure.create sign ~order:n
       [ ("E", edges); ("B", colour 0.5); ("R", colour 0.4) ])

(* random formulas over a fixed pool, deliberately outside the guarded
   fragment: repeated-variable atoms E(v,v), Eq chains, Neg in all
   positions, Forall *)
let pool = [ "x"; "y"; "z" ]

let rec gen_formula ~depth =
  let v = oneofl pool in
  let atom =
    oneof
      [
        map2 (fun u w -> Ast.Rel ("E", [| u; w |])) v v;
        map (fun u -> Ast.Rel ("B", [| u |])) v;
        map (fun u -> Ast.Rel ("R", [| u |])) v;
        map2 (fun u w -> Ast.Eq (u, w)) v v;
        return Ast.True;
        return Ast.False;
      ]
  in
  if depth <= 0 then atom
  else
    frequency
      [
        (2, atom);
        ( 3,
          map2
            (fun f g -> Ast.And (f, g))
            (gen_formula ~depth:(depth - 1))
            (gen_formula ~depth:(depth - 1)) );
        ( 2,
          map2
            (fun f g -> Ast.Or (f, g))
            (gen_formula ~depth:(depth - 1))
            (gen_formula ~depth:(depth - 1)) );
        (2, map (fun f -> Ast.Neg f) (gen_formula ~depth:(depth - 1)));
        (1, map2 (fun x f -> Ast.Exists (x, f)) v (gen_formula ~depth:(depth - 1)));
        (1, map2 (fun x f -> Ast.Forall (x, f)) v (gen_formula ~depth:(depth - 1)));
      ]

let print_case (phi, a) =
  Format.asprintf "%s@.on order-%d structure" (Pp.formula_to_string phi)
    (Foc_data.Structure.order a)

(* the brute-force table of satisfying assignments over [vars] *)
let naive_table a phi vars =
  let vs = Array.of_list vars in
  let rows = ref [] in
  Foc_util.Combi.iter_tuples (Foc_data.Structure.order a) (Array.length vs)
    (fun tup ->
      let env =
        Array.to_seq (Array.mapi (fun i x -> (x, tup.(i))) vs)
        |> Var.Map.of_seq
      in
      if Foc_eval.Naive.formula preds a env phi then
        rows := Array.copy tup :: !rows);
  Table.of_rows vs !rows

let prop_planned_vs_naive =
  QCheck.Test.make ~name:"planned Relalg = Naive on random formulas"
    ~count:300
    (QCheck.make ~print:print_case (pair (gen_formula ~depth:4) gen_structure))
    (fun (phi, a) ->
      let vars = Var.Set.elements (Ast.free_formula phi) in
      let want = naive_table a phi vars in
      Foc_eval.Relalg.count preds a vars phi = Table.cardinal want
      && Table.equal (Foc_eval.Relalg.formula_table preds a phi) want)

(* ---------------- kernel unit tests ---------------- *)

let t_of vars rows = Table.of_rows vars rows

(* ---------------- join kernels against a nested-loop reference -------- *)

(* two operands over a small variable pool, related by a disjoint,
   overlapping, equal or permuted column set; widths 0-3, empty operands
   and unit/zero included. Values mix small ones with ones near 2^40, far
   past any domain size, so a kernel that packed several columns into one
   int key would overflow *)
let gen_operands =
  let pool = [ "a"; "b"; "c"; "d"; "e"; "f" ] in
  let value = oneofl [ 0; 1; 2; 1 lsl 40; (1 lsl 40) - 1; 123_456_789_012 ] in
  let gen_vars =
    int_range 0 3 >>= fun k -> shuffle_l pool >|= List.filteri (fun i _ -> i < k)
  in
  let rows vars =
    let k = List.length vars in
    if k = 0 then oneofl [ []; [ [||] ] ]
    else int_range 0 8 >>= fun m -> list_repeat m (array_repeat k value)
  in
  gen_vars >>= fun v1 ->
  oneof
    [
      gen_vars;
      return v1;
      shuffle_l v1;
      gen_vars >|= List.filter (fun x -> not (List.mem x v1));
    ]
  >>= fun v2 ->
  pair (rows v1) (rows v2) >|= fun (r1, r2) -> ((v1, r1), (v2, r2))

let print_operands ((v1, r1), (v2, r2)) =
  let rows r =
    String.concat " "
      (List.map
         (fun row ->
           "(" ^ String.concat "," (List.map string_of_int (Array.to_list row)) ^ ")")
         r)
  in
  Printf.sprintf "t1[%s] = {%s}\nt2[%s] = {%s}" (String.concat "," v1) (rows r1)
    (String.concat "," v2) (rows r2)

(* the value of [x] in a row over [vars] *)
let get vars row x =
  let rec go i = function
    | [] -> raise Not_found
    | y :: rest -> if y = x then row.(i) else go (i + 1) rest
  in
  go 0 vars

let agree v1 r1 v2 r2 =
  List.for_all (fun x -> not (List.mem x v2) || get v1 r1 x = get v2 r2 x) v1

let strictly_sorted t =
  let prev = ref None and ok = ref true in
  Table.iter t (fun row ->
      (match !prev with
      | Some p when compare p row >= 0 -> ok := false
      | _ -> ());
      prev := Some (Array.copy row));
  !ok

let prop_join_kernels =
  QCheck.Test.make
    ~name:"join/semijoin/antijoin = nested-loop reference" ~count:1000
    (QCheck.make ~print:print_operands gen_operands)
    (fun ((v1, r1), (v2, r2)) ->
      let t1 = t_of (Array.of_list v1) r1 and t2 = t_of (Array.of_list v2) r2 in
      let fresh = List.filter (fun x -> not (List.mem x v1)) v2 in
      let out_vars = v1 @ fresh in
      let joined =
        List.concat_map
          (fun a ->
            List.filter_map
              (fun b ->
                if agree v1 a v2 b then
                  Some (Array.append a (Array.of_list (List.map (get v2 b) fresh)))
                else None)
              r2)
          r1
      in
      let matched a = List.exists (agree v1 a v2) r2 in
      let j = Table.join t1 t2 in
      let check what got want_vars want_rows =
        if Array.to_list (Table.vars got) <> want_vars then
          QCheck.Test.fail_reportf "%s: columns %s" what
            (String.concat "," (Array.to_list (Table.vars got)));
        if not (strictly_sorted got) then
          QCheck.Test.fail_reportf "%s: rows out of order" what;
        if not (Table.equal got (t_of (Array.of_list want_vars) want_rows)) then
          QCheck.Test.fail_reportf "%s: %d rows, reference %d" what
            (Table.cardinal got)
            (Table.cardinal (t_of (Array.of_list want_vars) want_rows))
      in
      check "join" j out_vars joined;
      check "semijoin" (Table.semijoin t1 t2) v1 (List.filter matched r1);
          (* [t1 ∧ ¬t2]: the columns [t1] lacks range over the domain [0..n-1] *)
      let n = 3 in
      let rec pad = function
        | 0 -> [ [] ]
        | k ->
            List.concat_map (fun r -> List.init n (fun v -> v :: r)) (pad (k - 1))
      in
      let padded =
        List.concat_map
          (fun a ->
            List.map
              (fun p -> Array.append a (Array.of_list p))
              (pad (List.length fresh)))
          r1
      in
      check "antijoin" (Table.antijoin ~n t1 t2) out_vars
        (List.filter (fun a -> not (List.exists (agree out_vars a v2) r2)) padded);
      (* either argument order gives the same rows *)
      Table.equal j (Table.join t2 t1))

let test_antijoin_vs_complement () =
  (* t1 ▷ t2 must equal t1 ⋈ complement(t2) for every n that covers the
     values *)
  let t1 =
    t_of [| "x"; "y" |] [ [| 0; 0 |]; [| 0; 3 |]; [| 1; 2 |]; [| 2; 1 |] ]
  in
  let t2 = t_of [| "y" |] [ [| 0 |]; [| 2 |] ] in
  let anti = Table.antijoin ~n:4 t1 t2 in
  let via_complement = Table.join t1 (Table.complement t2 4) in
  Alcotest.(check bool) "antijoin = join with complement" true
    (Table.equal anti via_complement);
  Alcotest.(check int) "kept rows" 2 (Table.cardinal anti);
  (* empty right side: keep everything / drop nothing symmetric checks *)
  let none = t_of [| "y" |] [] in
  Alcotest.(check bool) "antijoin with empty keeps all" true
    (Table.equal (Table.antijoin ~n:4 t1 none) t1);
  Alcotest.(check bool) "semijoin with empty drops all" true
    (Table.is_empty (Table.semijoin t1 none))

let test_divide () =
  let t =
    t_of [| "x"; "y" |]
      [ [| 0; 0 |]; [| 0; 1 |]; [| 0; 2 |]; [| 1; 0 |]; [| 1; 2 |] ]
  in
  let d = Table.divide t "y" 3 in
  Alcotest.(check int) "only x=0 has all three y" 1 (Table.cardinal d);
  Alcotest.(check (list string)) "columns" [ "x" ]
    (Array.to_list (Table.vars d));
  (* division by a larger domain keeps nothing *)
  Alcotest.(check bool) "n=4 empty" true (Table.is_empty (Table.divide t "y" 4))

let test_group_count () =
  let t =
    t_of [| "x"; "y" |]
      [ [| 0; 0 |]; [| 0; 1 |]; [| 2; 1 |]; [| 2; 5 |]; [| 2; 7 |] ]
  in
  let keys, counts = Table.group_count t [| "x" |] in
  Alcotest.(check (list int)) "keys sorted" [ 0; 2 ] (Array.to_list keys);
  Alcotest.(check (list int)) "counts" [ 2; 3 ] (Array.to_list counts)

let test_select_and_duplicate () =
  let t = t_of [| "x"; "y" |] [ [| 0; 0 |]; [| 0; 1 |]; [| 1; 1 |] ] in
  let s = Table.select_eq t "x" "y" in
  Alcotest.(check int) "diagonal rows" 2 (Table.cardinal s);
  let d = Table.duplicate_column t ~src:"x" ~dst:"z" in
  Alcotest.(check (list string)) "columns extended" [ "x"; "y"; "z" ]
    (Array.to_list (Table.vars d));
  Alcotest.(check bool) "z copies x" true
    (Table.equal (Table.select_eq d "x" "z") d)

let test_iter_sorted () =
  let t = t_of [| "x" |] [ [| 4 |]; [| 1 |]; [| 3 |]; [| 1 |] ] in
  let seen = ref [] in
  Table.iter t (fun row -> seen := row.(0) :: !seen);
  Alcotest.(check (list int)) "iter deduplicates and sorts" [ 1; 3; 4 ]
    (List.rev !seen)

(* ---------------- planner unit tests ---------------- *)

let test_conjuncts () =
  let f = Ast.Rel ("B", [| "x" |]) and g = Ast.Rel ("R", [| "y" |]) in
  let h = Ast.Eq ("x", "y") in
  Alcotest.(check int) "flattens nested And" 3
    (List.length (Planner.conjuncts (Ast.And (Ast.And (f, g), h))));
  Alcotest.(check int) "drops True" 1
    (List.length (Planner.conjuncts (Ast.And (Ast.True, f))));
  Alcotest.(check int) "collapses double negation" 2
    (List.length (Planner.conjuncts (Ast.Neg (Ast.Neg (Ast.And (f, g))))));
  (* De Morgan exposes both negations as separate conjuncts *)
  (match Planner.conjuncts (Ast.Neg (Ast.Or (f, g))) with
  | [ Ast.Neg f'; Ast.Neg g' ] ->
      Alcotest.(check bool) "de morgan" true (f' = f && g' = g)
  | other ->
      Alcotest.failf "expected two negated conjuncts, got %d"
        (List.length other))

let test_join_order () =
  let inp l card = Planner.input (Var.Set.of_list l) card in
  (* three tables: tiny disconnected, medium connected, huge connected *)
  let inputs = [| inp [ "a" ] 1000; inp [ "a"; "b" ] 10; inp [ "c" ] 3 |] in
  match (Planner.plan_joins ~n:100 inputs).order with
  | [ first; second; third ] ->
      Alcotest.(check int) "starts from the smallest" 2 first;
      (* after {c}, both others are disconnected; the estimate picks the
         10-row table before the 1000-row one *)
      Alcotest.(check int) "then the cheaper join" 1 second;
      Alcotest.(check int) "largest last" 0 third
  | other -> Alcotest.failf "expected 3 indices, got %d" (List.length other)

let test_planner_avoids_complement () =
  (* R(x) ∧ ¬E(x,y) ∧ B(y): negation only in conjunctive context, so the
     planned evaluation must not materialise any full n^k complement *)
  let phi =
    Ast.And
      ( Ast.Rel ("R", [| "x" |]),
        Ast.And (Ast.Neg (Ast.Rel ("E", [| "x"; "y" |])), Ast.Rel ("B", [| "y" |]))
      )
  in
  let rng = Random.State.make [| 7 |] in
  let a =
    let g = Foc_graph.Gen.random_tree rng 30 in
    let edges =
      List.concat_map
        (fun (u, v) -> [ [| u; v |]; [| v; u |] ])
        (Foc_graph.Graph.edges g)
    in
    Foc_data.Structure.create sign ~order:30
      [ ("E", edges);
        ("B", List.map (fun v -> [| v |]) [ 0; 2; 4; 6 ]);
        ("R", List.map (fun v -> [| v |]) [ 1; 3; 5 ]) ]
  in
  Foc_eval.Eval_obs.reset ();
  let planned = Foc_eval.Relalg.count preds a [ "x"; "y" ] phi in
  Alcotest.(check int) "no full complement" 0 (Foc_eval.Eval_obs.complements ());
  Alcotest.(check bool) "negation became an anti-join" true
    (Foc_eval.Eval_obs.antijoins () > 0);
  Alcotest.(check int) "count = Naive"
    (Table.cardinal (naive_table a phi [ "x"; "y" ]))
    planned

(* Negated conjuncts over variables no positive conjunct binds: the kernel
   ranges those variables over the domain, so the tables built are the
   relations (|R| = 3, |E| = 4), the conjunction's answer and, under
   [exists], its projection — no padded |R|·6^missing intermediate (18,
   108 and 18 more rows) and no complement *)
let test_uncovered_negation () =
  let a =
    Foc_data.Structure.create sign ~order:6
      [ ("E", [ [| 0; 1 |]; [| 1; 2 |]; [| 2; 2 |]; [| 4; 0 |] ]);
        ("B", []);
        ("R", [ [| 1 |]; [| 2 |]; [| 5 |] ]) ]
  in
  let r x = Ast.Rel ("R", [| x |]) in
  let ne x y = Ast.Neg (Ast.Rel ("E", [| x; y |])) in
  List.iter
    (fun (name, phi, rows_built) ->
      let vars = Var.Set.elements (Ast.free_formula phi) in
      Foc_eval.Eval_obs.reset ();
      let got = Foc_eval.Relalg.formula_table preds a phi in
      Alcotest.(check int) (name ^ ": rows built") rows_built
        (Foc_eval.Eval_obs.rows_built ());
      Alcotest.(check int) (name ^ ": no complement") 0
        (Foc_eval.Eval_obs.complements ());
      Alcotest.(check bool) (name ^ " = Naive") true
        (Table.equal got (naive_table a phi vars)))
    [ ("R(x) & !E(x,y)", Ast.And (r "x", ne "x" "y"), 3 + 4 + 16);
      ("R(x) & !E(y,z)", Ast.And (r "x", ne "y" "z"), 3 + 4 + 96);
      ( "exists y. (R(x) & !E(x,y))",
        Ast.Exists ("y", Ast.And (r "x", ne "x" "y")),
        3 + 4 + 16 + 3 ) ]

let () =
  Alcotest.run "table kernel & planner"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest prop_planned_vs_naive;
          QCheck_alcotest.to_alcotest prop_join_kernels;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "antijoin vs complement" `Quick
            test_antijoin_vs_complement;
          Alcotest.test_case "division" `Quick test_divide;
          Alcotest.test_case "group count" `Quick test_group_count;
          Alcotest.test_case "select/duplicate" `Quick
            test_select_and_duplicate;
          Alcotest.test_case "iter order" `Quick test_iter_sorted;
        ] );
      ( "planner",
        [
          Alcotest.test_case "conjuncts" `Quick test_conjuncts;
          Alcotest.test_case "greedy order" `Quick test_join_order;
          Alcotest.test_case "complement avoidance" `Quick
            test_planner_avoids_complement;
          Alcotest.test_case "uncovered negation" `Quick
            test_uncovered_negation;
        ] );
    ]
