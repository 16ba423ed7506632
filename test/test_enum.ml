(* Streaming answer enumeration (lib/eval/enum.ml + Engine.enumerate +
   Session.enumerate): the cursor must be bit-identical — content AND
   order — to the materialised Relalg.query / Engine.run_query answer
   list, on every back-end, jobs setting, limit/after split, and both on
   a cold engine and a warm session. Plus the canonical-order regression
   (ascending lexicographic head tuples) the cursor contract rests on,
   and the version-pinning contract of session cursors. *)

open Foc_logic
open QCheck.Gen

let preds = Pred.standard
let sign = Foc_data.Signature.of_list [ ("E", 2); ("B", 1); ("C", 1); ("R", 1) ]

let coloured seed g =
  let rng = Random.State.make [| seed |] in
  let n = Foc_graph.Graph.order g in
  let colour p =
    List.filter_map
      (fun v -> if Random.State.float rng 1.0 < p then Some [| v |] else None)
      (List.init n (fun i -> i))
  in
  let edges =
    List.concat_map
      (fun (u, v) -> [ [| u; v |]; [| v; u |] ])
      (Foc_graph.Graph.edges g)
  in
  Foc_data.Structure.create sign ~order:n
    [ ("E", edges); ("B", colour 0.4); ("C", colour 0.3); ("R", colour 0.25) ]

let gen_structure =
  int_range 6 26 >>= fun n ->
  int_range 0 9999 >>= fun seed ->
  let rng = Random.State.make [| n; seed |] in
  let g =
    if seed mod 3 = 0 then Foc_graph.Gen.random_tree rng n
    else Foc_graph.Gen.random_bounded_degree rng n 3
  in
  return (coloured seed g)

(* ---------------- query generator ---------------- *)

let unary_rel = oneofl [ "B"; "C"; "R" ]

(* one atom over the in-scope variables — the walkable alphabet *)
let gen_atom vars =
  oneof
    [
      map2 (fun r v -> Ast.Rel (r, [| v |])) unary_rel (oneofl vars);
      map2 (fun u v -> Ast.Rel ("E", [| u; v |])) (oneofl vars) (oneofl vars);
      map2 (fun u v -> Ast.Eq (u, v)) (oneofl vars) (oneofl vars);
      map3
        (fun u v d -> Ast.Dist (u, v, d))
        (oneofl vars) (oneofl vars) (int_range 0 2);
      return Ast.True;
    ]

let rec chain = function
  | [] -> Ast.True
  | [ a ] -> a
  | a :: rest -> Ast.And (a, chain rest)

(* one negated atom over the in-scope variables — also walkable *)
let gen_neg_atom vars =
  map
    (fun a -> Ast.Neg a)
    (oneof
       [
         map2 (fun r v -> Ast.Rel (r, [| v |])) unary_rel (oneofl vars);
         map2 (fun u v -> Ast.Rel ("E", [| u; v |])) (oneofl vars) (oneofl vars);
         map2 (fun u v -> Ast.Eq (u, v)) (oneofl vars) (oneofl vars);
         map3
           (fun u v d -> Ast.Dist (u, v, d))
           (oneofl vars) (oneofl vars) (int_range 0 2);
       ])

(* conjunctive bodies, negated atoms included, take the walk producer; the
   rest (disjunction, a guarded quantifier) take the table producer, the
   planned search whose last join streams — the property must hold for
   both *)
let gen_body vars =
  int_range 1 4 >>= fun k ->
  list_repeat k (frequency [ (3, gen_atom vars); (1, gen_neg_atom vars) ])
  >>= fun atoms ->
  let last = List.nth vars (List.length vars - 1) in
  let rest = List.filter (fun v -> v <> last) vars in
  frequency
    [
      (3, return (chain atoms));
      ( 1,
        (* a disjunctive conjunct *)
        pair (gen_atom vars) (gen_atom vars) >>= fun (f, g) ->
        return (Ast.And (chain atoms, Ast.Or (f, g))) );
      ( 1,
        (* a head variable the body never mentions *)
        if rest = [] then return Ast.True
        else
          list_repeat k (gen_atom rest) >>= fun pos ->
          pair (gen_atom rest) (gen_atom rest) >>= fun (f, g) ->
          oneofl [ chain pos; Ast.And (chain pos, Ast.Or (f, g)) ] );
      ( 1,
        (* a negation over variables two tables bind: still pending at the
           plan's last join *)
        triple (oneofl vars) (oneofl vars) (oneofl vars) >>= fun (u, v, w) ->
        pair unary_rel unary_rel >>= fun (r, r') ->
        return
          (chain
             [
               Ast.Rel ("E", [| u; v |]);
               Ast.Or (Ast.Rel (r, [| w |]), Ast.Rel (r', [| w |]));
               Ast.Neg (Ast.Rel ("E", [| v; w |]));
             ]) );
      ( 1,
        (* a negated atom over a variable no positive conjunct binds *)
        (if rest = [] then return [] else list_repeat k (gen_atom rest))
        >>= fun pos ->
        oneof
          [
            map (fun r -> Ast.Neg (Ast.Rel (r, [| last |]))) unary_rel;
            map (fun u -> Ast.Neg (Ast.Rel ("E", [| u; last |]))) (oneofl vars);
          ]
        >>= fun neg -> return (chain (pos @ [ neg ])) );
      ( 1,
        gen_atom vars >>= fun extra ->
        return (Ast.Or (chain atoms, extra)) );
      ( 1,
        oneofl vars >>= fun anchor ->
        gen_atom ("w" :: vars) >>= fun inner ->
        return
          (Ast.And
             ( chain atoms,
               Ast.Exists ("w", Ast.And (Ast.Rel ("E", [| anchor; "w" |]), inner))
             )) );
    ]

let gen_terms vars =
  int_range 0 2 >>= fun k ->
  list_repeat k
    ( pair (oneofl vars) (oneofl vars) >>= fun (v, w) ->
      let deg = Ast.Count ([ "u" ], Ast.Rel ("E", [| v; "u" |])) in
      oneof
        [
          return deg;
          map (fun c -> Ast.Int c) (int_range 0 3);
          return
            (Ast.Count
               ( [ "u" ],
                 Ast.And
                   (Ast.Rel ("E", [| v; "u" |]), Ast.Rel ("B", [| "u" |])) ));
          (* over two head variables *)
          return
            (Ast.Count
               ( [ "u" ],
                 Ast.And (Ast.Rel ("E", [| v; "u" |]), Ast.Rel ("E", [| "u"; w |]))
               ));
          (* ground, and with a ground summand *)
          return (Ast.Count ([ "u" ], Ast.Rel ("B", [| "u" |])));
          return (Ast.Add (deg, Ast.Count ([ "u" ], Ast.Rel ("R", [| "u" |]))));
        ] )

let gen_query =
  int_range 1 3 >>= fun nvars ->
  let vars = List.filteri (fun i _ -> i < nvars) [ "x"; "y"; "z" ] in
  gen_body vars >>= fun body ->
  gen_terms vars >>= fun terms ->
  return (Query.make ~head_vars:vars ~head_terms:terms body)

let print_case (q, a) =
  Format.asprintf "%a  on |A|=%d" Query.pp q (Foc_data.Structure.order a)

(* ---------------- the agreement property ---------------- *)

let backends =
  [
    ("direct", Foc_nd.Engine.Direct);
    ("cover", Foc_nd.Engine.Cover);
    ("splitter", Foc_nd.Engine.Splitter { max_rounds = 2; small = 6 });
    ("hanf", Foc_nd.Engine.Hanf);
  ]

let engine ~backend ~jobs =
  Foc_nd.Engine.create
    ~config:{ Foc_nd.Engine.default_config with backend; jobs; ball_cache_mb = 8 }
    ()

let rows_eq (t1, v1) (t2, v2) = t1 = (t2 : int array) && v1 = (v2 : int array)

let check_rows ~what want got =
  if
    List.length want <> List.length got
    || not (List.for_all2 rows_eq want got)
  then
    QCheck.Test.fail_reportf "%s: %d streamed rows vs %d materialised" what
      (List.length got) (List.length want)

let slice ?limit ?after rows =
  let tail =
    match after with
    | None -> rows
    | Some a -> List.filter (fun (t, _) -> compare t a > 0) rows
  in
  match limit with
  | None -> tail
  | Some l -> List.filteri (fun i _ -> i < l) tail

(* The reference rows: Relalg.query, checked against the independent
   oracle Naive.query (Definition 3.1 verbatim) — Relalg.query shares the
   planned search with the table producer, so agreeing with it alone
   would prove little. *)
let oracle q a =
  let want = Foc_eval.Naive.query preds a q in
  check_rows ~what:"Relalg.query vs Naive" want (Foc_eval.Relalg.query preds a q);
  want

let prop_enumerate_agrees =
  QCheck.Test.make ~name:"enumerate = Relalg.query (all back-ends, jobs, splits)"
    ~count:25
    (QCheck.make ~print:print_case (pair gen_query gen_structure))
    (fun (q, a) ->
      let want = oracle q a in
      List.iter
        (fun (bname, backend) ->
          List.iter
            (fun jobs ->
              let eng = engine ~backend ~jobs in
              let what = Printf.sprintf "%s/jobs=%d" bname jobs in
              (* run_query canonical order (satellite regression) *)
              let mat = Foc_nd.Engine.run_query eng a q in
              check_rows ~what:(what ^ "/run_query") want mat;
              (* full drain *)
              let c = Foc_nd.Engine.enumerate eng a q in
              check_rows ~what want (Foc_eval.Enum.to_list c);
              (* random limit/after split derived from the answer count *)
              let n = List.length want in
              if n > 0 then begin
                let limit = 1 + ((n * 3 / 7) mod n) in
                let after = fst (List.nth want (n / 2)) in
                let c = Foc_nd.Engine.enumerate eng ~limit a q in
                check_rows ~what:(what ^ "/limit") (slice ~limit want)
                  (Foc_eval.Enum.to_list c);
                let c = Foc_nd.Engine.enumerate eng ~after a q in
                check_rows ~what:(what ^ "/after") (slice ~after want)
                  (Foc_eval.Enum.to_list c);
                let c = Foc_nd.Engine.enumerate eng ~limit ~after a q in
                check_rows
                  ~what:(what ^ "/limit+after")
                  (slice ~limit ~after want)
                  (Foc_eval.Enum.to_list c)
              end)
            [ 1; 4 ])
        backends;
      true)

(* session cursors: cold session, warm session (artifacts already built by
   a prior evaluation), and pagination through ?after across the session *)
let prop_session_agrees =
  QCheck.Test.make ~name:"Session.enumerate = Relalg.query (cold and warm)"
    ~count:15
    (QCheck.make ~print:print_case (pair gen_query gen_structure))
    (fun (q, a) ->
      let want = oracle q a in
      let s = Foc_serve.Session.create ~budget_mb:16 a in
      (* cold *)
      check_rows ~what:"session/cold" want
        (Foc_eval.Enum.to_list (Foc_serve.Session.enumerate s q));
      (* warm: the first drain built whatever artifacts the query needs *)
      check_rows ~what:"session/warm" want
        (Foc_eval.Enum.to_list (Foc_serve.Session.enumerate s q));
      (* page through with ?after in random page sizes *)
      let n = List.length want in
      if n > 0 then begin
        let page = 1 + (n mod 5) in
        let rec go acc after =
          let c = Foc_serve.Session.enumerate s ~limit:page ?after q in
          match Foc_eval.Enum.to_list c with
          | [] -> List.rev acc
          | rows ->
              let last, _ = List.nth rows (List.length rows - 1) in
              go (List.rev_append rows acc) (Some last)
        in
        check_rows ~what:"session/paged" want (go [] None)
      end;
      true)

(* ---------------- version pinning ---------------- *)

let test_cursor_expires () =
  let rng = Random.State.make [| 42 |] in
  let a = coloured 3 (Foc_graph.Gen.random_bounded_degree rng 20 3) in
  let q =
    Query.make ~head_vars:[ "x"; "y" ] ~head_terms:[]
      (Ast.Rel ("E", [| "x"; "y" |]))
  in
  let s = Foc_serve.Session.create ~budget_mb:16 a in
  let c = Foc_serve.Session.enumerate s q in
  (match c.Foc_eval.Enum.next () with
  | Some _ -> ()
  | None -> Alcotest.fail "expected at least one edge");
  let v0 = Foc_serve.Session.version s in
  Foc_serve.Session.insert s "E" [| 0; 1 |];
  Alcotest.(check int) "write bumped the version" (v0 + 1)
    (Foc_serve.Session.version s);
  (match c.Foc_eval.Enum.next () with
  | exception Foc_serve.Session.Expired -> ()
  | Some _ -> Alcotest.fail "cursor served rows across a version bump"
  | None -> Alcotest.fail "cursor silently ended across a version bump");
  c.Foc_eval.Enum.close ();
  (* a cursor opened AFTER the write sees the new snapshot *)
  let want = Foc_eval.Relalg.query preds (Foc_serve.Session.structure s) q in
  let got = Foc_eval.Enum.to_list (Foc_serve.Session.enumerate s q) in
  Alcotest.(check int) "reopened cursor reads the new version"
    (List.length want) (List.length got);
  List.iter2
    (fun (t, v) (t', v') ->
      Alcotest.(check (array int)) "tuple" t t';
      Alcotest.(check (array int)) "values" v v')
    want got

(* ---------------- canonical order (regression) ---------------- *)

let test_canonical_order () =
  let rng = Random.State.make [| 7 |] in
  let a = coloured 5 (Foc_graph.Gen.random_bounded_degree rng 24 3) in
  let q =
    Query.make ~head_vars:[ "x"; "y" ]
      ~head_terms:[ Ast.Count ([ "u" ], Ast.Rel ("E", [| "y"; "u" |])) ]
      (Ast.Rel ("E", [| "x"; "y" |]))
  in
  let check_sorted what rows =
    Alcotest.(check bool) (what ^ " non-empty") true (rows <> []);
    ignore
      (List.fold_left
         (fun prev (t, _) ->
           (match prev with
           | Some p ->
               Alcotest.(check bool)
                 (what ^ " strictly ascending lexicographic")
                 true
                 (compare (p : int array) t < 0)
           | None -> ());
           Some t)
         None rows)
  in
  check_sorted "Relalg.query" (Foc_eval.Relalg.query preds a q);
  let eng = engine ~backend:Foc_nd.Engine.Direct ~jobs:1 in
  check_sorted "Engine.run_query" (Foc_nd.Engine.run_query eng a q);
  check_sorted "Engine.enumerate"
    (Foc_eval.Enum.to_list (Foc_nd.Engine.enumerate eng a q))

(* a conjunctive body with a negated atom streams through the walk, not
   the materialised table *)
let test_negation_walks () =
  let rng = Random.State.make [| 11 |] in
  let a = coloured 4 (Foc_graph.Gen.random_bounded_degree rng 24 3) in
  let q =
    Query.make ~head_vars:[ "x"; "y" ] ~head_terms:[]
      (Ast.And (Ast.Rel ("E", [| "x"; "y" |]), Ast.Neg (Ast.Rel ("R", [| "y" |]))))
  in
  let eng = engine ~backend:Foc_nd.Engine.Direct ~jobs:1 in
  let c = Foc_nd.Engine.enumerate eng a q in
  Alcotest.(check string) "producer" "walk" (Foc_eval.Enum.producer c);
  (* reference straight from the structure, not through the join kernel *)
  let want =
    List.filter
      (fun e -> not (Foc_data.Structure.mem a "R" [| e.(1) |]))
      (Foc_data.Tuple.Set.elements (Foc_data.Structure.rel a "E"))
  in
  Alcotest.(check bool) "non-empty" true (want <> []);
  Alcotest.(check (list (array int))) "rows" want
    (List.map fst (Foc_eval.Enum.to_list c))

(* ground heads (k = 0) stream their 0/1 answer too *)
let test_ground_head () =
  let rng = Random.State.make [| 9 |] in
  let a = coloured 2 (Foc_graph.Gen.random_bounded_degree rng 12 3) in
  let q =
    Query.make ~head_vars:[]
      ~head_terms:[ Ast.Count ([ "u"; "v" ], Ast.Rel ("E", [| "u"; "v" |])) ]
      Ast.True
  in
  let want = Foc_eval.Relalg.query preds a q in
  let eng = engine ~backend:Foc_nd.Engine.Direct ~jobs:1 in
  let got = Foc_eval.Enum.to_list (Foc_nd.Engine.enumerate eng a q) in
  Alcotest.(check int) "one row" (List.length want) (List.length got);
  List.iter2
    (fun (t, v) (t', v') ->
      Alcotest.(check (array int)) "tuple" t t';
      Alcotest.(check (array int)) "values" v v')
    want got

(* a counting head term is evaluated at the rows a page emits: opening
   the cursor and reading a page builds no cl-term and computes no ball,
   which a per-open sweep of the structure would *)
let test_counting_head_cost () =
  let rng = Random.State.make [| 13 |] in
  let a = coloured 6 (Foc_graph.Gen.random_bounded_degree rng 200 3) in
  let q =
    Query.make ~head_vars:[ "x"; "y" ]
      ~head_terms:[ Ast.Count ([ "z" ], Ast.Rel ("E", [| "y"; "z" |])) ]
      (Ast.And (Ast.Rel ("E", [| "x"; "y" |]), Ast.Rel ("B", [| "x" |])))
  in
  let eng = engine ~backend:Foc_nd.Engine.Direct ~jobs:1 in
  let page = Foc_eval.Enum.to_list (Foc_nd.Engine.enumerate eng ~limit:8 a q) in
  Alcotest.(check int) "a full page" 8 (List.length page);
  let st = Foc_nd.Engine.stats eng in
  Alcotest.(check int) "engine.clterms_built" 0 st.clterms_built;
  Alcotest.(check int) "ball.computed" 0 st.balls_computed;
  let degree v =
    List.length
      (List.filter
         (fun e -> e.(0) = v)
         (Foc_data.Tuple.Set.elements (Foc_data.Structure.rel a "E")))
  in
  List.iter
    (fun (t, v) ->
      Alcotest.(check int) "head term = out-degree" (degree t.(1)) v.(0))
    page

let () =
  Alcotest.run "enum"
    [
      ( "agreement",
        [
          QCheck_alcotest.to_alcotest prop_enumerate_agrees;
          QCheck_alcotest.to_alcotest prop_session_agrees;
        ] );
      ( "contract",
        [
          Alcotest.test_case "session cursor expires on write" `Quick
            test_cursor_expires;
          Alcotest.test_case "canonical lexicographic order" `Quick
            test_canonical_order;
          Alcotest.test_case "ground head streams" `Quick test_ground_head;
          Alcotest.test_case "negated atom walks" `Quick test_negation_walks;
          Alcotest.test_case "counting head builds no cl-term" `Quick
            test_counting_head_cost;
        ] );
    ]
