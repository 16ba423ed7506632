(* Tests for the session layer (lib/serve): cross-query artifact caching,
   batched evaluation, budget eviction and update invalidation — plus the
   canonical-AST machinery (Ast.canonical / Ast.hash_formula / Ast.Key)
   compiled sentences are keyed by, and the engine's per-call cover memo.

   The master property throughout: a session is a pure performance layer —
   every answer must be identical to a fresh engine evaluating the same
   sentence on the session's current structure. *)

let coloured seed g =
  let rng = Random.State.make [| seed |] in
  Foc.Db_gen.colored_digraph rng ~graph:g ~orient:`Both ~p_red:0.3
    ~p_blue:0.4 ~p_green:0.3

let structure n seed =
  let rng = Random.State.make [| n; seed |] in
  coloured seed (Foc.Gen.random_bounded_degree rng n 3)

let config backend jobs =
  { Foc.Engine.default_config with Foc.Engine.backend; jobs }

let fresh_check backend a phi =
  Foc.Engine.check (Foc.Engine.create ~config:(config backend 1) ()) a phi

let counter_value s name =
  Foc.Obs.Metrics.Counter.value
    (Foc.Obs.Metrics.counter (Foc.Session.metrics s) name)

(* ---------------- generators ---------------- *)

(* random r-local bodies over the coloured-digraph signature, as in
   test_par *)
let body_gen =
  let open QCheck.Gen in
  let atom = oneofl [ "E(x,y)"; "E(y,x)"; "B(y)"; "R(y)"; "G(y)"; "R(x)" ] in
  let literal = map2 (fun neg a -> if neg then "!" ^ a else a) bool atom in
  let connective = oneofl [ " & "; " | " ] in
  map3
    (fun l1 op l2 -> "(" ^ l1 ^ op ^ l2 ^ ")")
    literal connective literal

(* closed FOC(P) sentences exercising quantifier peeling, numeric
   predicates and stratification (the inner prime(..) forms materialise a
   fresh $P relation at compile time) *)
let sentence_gen =
  let open QCheck.Gen in
  body_gen >>= fun body ->
  int_range 1 3 >>= fun k ->
  oneofl
    [
      Printf.sprintf "exists x. #(y). %s >= %d" body k;
      Printf.sprintf "#(x,y). %s >= %d" body (3 * k);
      Printf.sprintf "exists x. prime(#(y). %s)" body;
      Printf.sprintf "#(x). prime(#(y). %s) >= %d" body k;
      Printf.sprintf "forall x. #(y). %s <= %d" body (k + 3);
    ]

let parse src = Foc.parse_formula src

(* ---------------- sessions agree with fresh engines ---------------- *)

let arb_batch_case =
  QCheck.make
    ~print:(fun (n, seed, srcs) ->
      Printf.sprintf "n=%d seed=%d [%s]" n seed (String.concat "; " srcs))
    QCheck.Gen.(
      triple (int_range 8 24) (int_range 0 10000)
        (list_size (return 3) sentence_gen))

let prop_session backend name =
  QCheck.Test.make ~name ~count:12 arb_batch_case (fun (n, seed, srcs) ->
      let a = structure n seed in
      let phis = List.map parse srcs in
      let expected = List.map (fun phi -> fresh_check backend a phi) phis in
      let s = Foc.Session.create ~config:(config backend 1) a in
      let cold = Foc.Session.run_batch ~jobs:1 s phis in
      let par = Foc.Session.run_batch ~jobs:4 s phis in
      let warm = List.map (fun phi -> Foc.Session.check s phi) phis in
      cold = expected && par = expected && warm = expected)

(* ---------------- warm-path hit counters ---------------- *)

(* bound-variable renaming for α-variants (test sentences never shadow) *)
let rec rn_f m = function
  | (Foc.Ast.True | Foc.Ast.False) as f -> f
  | Foc.Ast.Eq (a, b) -> Foc.Ast.Eq (rn m a, rn m b)
  | Foc.Ast.Rel (r, xs) -> Foc.Ast.Rel (r, Array.map (rn m) xs)
  | Foc.Ast.Dist (a, b, d) -> Foc.Ast.Dist (rn m a, rn m b, d)
  | Foc.Ast.Neg g -> Foc.Ast.Neg (rn_f m g)
  | Foc.Ast.Or (g, h) -> Foc.Ast.Or (rn_f m g, rn_f m h)
  | Foc.Ast.And (g, h) -> Foc.Ast.And (rn_f m g, rn_f m h)
  | Foc.Ast.Exists (y, g) -> Foc.Ast.Exists (rn m y, rn_f m g)
  | Foc.Ast.Forall (y, g) -> Foc.Ast.Forall (rn m y, rn_f m g)
  | Foc.Ast.Pred (p, ts) -> Foc.Ast.Pred (p, List.map (rn_t m) ts)

and rn_t m = function
  | Foc.Ast.Int i -> Foc.Ast.Int i
  | Foc.Ast.Count (ys, g) -> Foc.Ast.Count (List.map (rn m) ys, rn_f m g)
  | Foc.Ast.Add (s, u) -> Foc.Ast.Add (rn_t m s, rn_t m u)
  | Foc.Ast.Mul (s, u) -> Foc.Ast.Mul (rn_t m s, rn_t m u)

and rn m x = match List.assoc_opt x m with Some y -> y | None -> x

let alpha = rn_f [ ("x", "u"); ("y", "v") ]

let test_warm_hits () =
  let a = structure 30 11 in
  let phi = parse "exists x. prime(#(y). (E(x,y) | E(y,x)))" in
  let s = Foc.Session.create ~config:(config Foc.Engine.Direct 1) a in
  let r1 = Foc.Session.check s phi in
  let r2 = Foc.Session.check s phi in
  let r3 = Foc.Session.check s (alpha phi) in
  Alcotest.(check bool) "repeat agrees" r1 r2;
  Alcotest.(check bool) "alpha-variant agrees" r1 r3;
  Alcotest.(check bool)
    "matches fresh engine" r1
    (fresh_check Foc.Engine.Direct a phi);
  Alcotest.(check int) "one compile" 1
    (counter_value s "session.compiled_misses");
  Alcotest.(check int) "two compiled hits" 2
    (counter_value s "session.compiled_hits");
  Alcotest.(check bool) "ctx reused across queries" true
    (counter_value s "session.ctx_hits" > 0)

(* ---------------- budget pressure ---------------- *)

let test_zero_budget () =
  let a = structure 24 5 in
  let srcs =
    [
      "exists x. #(y). (E(x,y) | E(y,x)) >= 2";
      "exists x. prime(#(y). (B(y) & E(x,y)))";
      "#(x,y). (E(x,y) & G(y)) >= 4";
      "forall x. #(y). E(y,x) <= 3";
    ]
  in
  let phis = List.map parse srcs in
  let expected =
    List.map (fun phi -> fresh_check Foc.Engine.Direct a phi) phis
  in
  let s = Foc.Session.create ~budget_mb:0 ~config:(config Foc.Engine.Direct 1) a in
  let got = Foc.Session.run_batch ~jobs:1 s phis in
  let again = Foc.Session.run_batch ~jobs:1 s phis in
  Alcotest.(check (list bool)) "zero-budget batch agrees" expected got;
  Alcotest.(check (list bool)) "second round still agrees" expected again;
  Alcotest.(check bool) "budget evicted something" true
    (counter_value s "session.evictions" > 0);
  Alcotest.(check bool) "cache stayed near-empty" true
    (Foc.Session.cached_artifacts s <= 2)

(* ---------------- update invalidation ---------------- *)

let arb_update_case =
  let op =
    QCheck.Gen.(
      quad bool bool (int_range 0 1000) (int_range 0 1000))
  in
  QCheck.make
    ~print:(fun (n, seed, body, ops) ->
      Printf.sprintf "n=%d seed=%d %s ops=%s" n seed body
        (String.concat ","
           (List.map
              (fun (ins, unary, u, v) ->
                Printf.sprintf "%c%c(%d,%d)"
                  (if ins then '+' else '-')
                  (if unary then 'R' else 'E')
                  u v)
              ops)))
    QCheck.Gen.(
      quad (int_range 8 20) (int_range 0 10000) body_gen
        (list_size (int_range 2 5) op))

let prop_invalidation backend name =
  QCheck.Test.make ~name ~count:10 arb_update_case
    (fun (n, seed, body, ops) ->
      let a = structure n seed in
      let phi1 = parse (Printf.sprintf "exists x. #(y). %s >= 2" body) in
      let phi2 = parse (Printf.sprintf "exists x. prime(#(y). %s)" body) in
      let s = Foc.Session.create ~config:(config backend 1) a in
      (* warm every cache before the first update *)
      ignore (Foc.Session.run_batch ~jobs:1 s [ phi1; phi2 ]);
      List.for_all
        (fun (ins, unary, u, v) ->
          let name = if unary then "R" else "E" in
          let tup =
            if unary then [| u mod n |] else [| u mod n; v mod n |]
          in
          if ins then Foc.Session.insert s name tup
          else Foc.Session.delete s name tup;
          let b = Foc.Session.structure s in
          Foc.Session.check s phi1 = fresh_check backend b phi1
          && Foc.Session.check s phi2 = fresh_check backend b phi2)
        ops)

(* ---------------- budget cache eviction policy ---------------- *)

(* Unit tests against Budget_cache directly, with [size = Fun.id] so an
   int value is its own byte count. The first two are regressions for the
   duplicate-FIFO-node bug: re-inserting (or removing and re-adding) a key
   used to leave the key's old queue node behind, and the next trim would
   pop that stale node and evict the *fresh* copy of the hot key while
   colder entries survived. *)

let make_cache ?(capacity = 300) evicted =
  Foc.Budget_cache.create
    ~on_evict:(fun k _ -> evicted := k :: !evicted)
    ~capacity ~size:Fun.id ()

let test_cache_reinsert_stays_hot () =
  let evicted = ref [] in
  let c = make_cache evicted in
  Foc.Budget_cache.insert c "A" 100;
  Foc.Budget_cache.insert c "B" 100;
  (* refresh the hot key: this must not leave an evictable older node *)
  Foc.Budget_cache.insert c "A" 100;
  Foc.Budget_cache.insert c "C" 150 (* 350 > 300: forces one eviction *);
  Alcotest.(check (option int))
    "re-inserted hot key survives" (Some 100)
    (Foc.Budget_cache.find c "A");
  Alcotest.(check (option int))
    "oldest cold key evicted" None
    (Foc.Budget_cache.find c "B");
  Alcotest.(check (option int))
    "new key present" (Some 150)
    (Foc.Budget_cache.find c "C");
  Alcotest.(check (list string)) "exactly one eviction" [ "B" ] !evicted

let test_cache_remove_then_reinsert () =
  let evicted = ref [] in
  let c = make_cache evicted in
  Foc.Budget_cache.insert c "A" 100;
  Foc.Budget_cache.insert c "B" 100;
  Foc.Budget_cache.remove c "A";
  Alcotest.(check (option int)) "removed key gone" None
    (Foc.Budget_cache.find c "A");
  Alcotest.(check int) "bytes track the removal" 100
    (Foc.Budget_cache.bytes_used c);
  Alcotest.(check (list string)) "remove is not an eviction" [] !evicted;
  (* the removed key comes back as the NEWEST entry; its leftover queue
     node from the first insert must not make it first in line again *)
  Foc.Budget_cache.insert c "A" 100;
  Foc.Budget_cache.insert c "C" 150;
  Alcotest.(check (option int))
    "re-added key survives the trim" (Some 100)
    (Foc.Budget_cache.find c "A");
  Alcotest.(check (option int)) "cold key evicted instead" None
    (Foc.Budget_cache.find c "B");
  Alcotest.(check int) "two live entries" 2 (Foc.Budget_cache.length c)

let test_cache_second_chance () =
  let evicted = ref [] in
  let c = make_cache ~capacity:200 evicted in
  Foc.Budget_cache.insert c "A" 100;
  Foc.Budget_cache.insert c "B" 100;
  ignore (Foc.Budget_cache.find c "A") (* sets A's reference bit *);
  Foc.Budget_cache.insert c "C" 100;
  Alcotest.(check (option int))
    "referenced key gets a second chance" (Some 100)
    (Foc.Budget_cache.find c "A");
  Alcotest.(check (list string)) "unreferenced key evicted" [ "B" ] !evicted

let test_cache_reinsert_churn () =
  (* a server rebinding the same artifact key on every write: the queue
     must stay consistent through compaction and still evict correctly *)
  let evicted = ref [] in
  let c = make_cache ~capacity:250 evicted in
  for i = 1 to 50 do
    Foc.Budget_cache.insert c "A" (100 + (i mod 2))
  done;
  Foc.Budget_cache.insert c "B" 100;
  Foc.Budget_cache.insert c "C" 100;
  Alcotest.(check (option int)) "churned key evicted first" None
    (Foc.Budget_cache.find c "A");
  Alcotest.(check (option int)) "B survives" (Some 100)
    (Foc.Budget_cache.find c "B");
  Alcotest.(check (option int)) "C survives" (Some 100)
    (Foc.Budget_cache.find c "C");
  Alcotest.(check (list string)) "A evicted exactly once" [ "A" ] !evicted

(* ---------------- engine cover memo (satellite a) ---------------- *)

let test_cover_dedup () =
  let a = structure 40 3 in
  let eng = Foc.Engine.create ~config:(config Foc.Engine.Cover 1) () in
  (* one evaluation, two same-radius counting terms: before the per-call
     artifact memo the Cover back-end built the cover once per term *)
  let t =
    Foc.parse_term "(#(x,y). (E(x,y) & B(y))) + (#(x,y). (E(x,y) & G(y)))"
  in
  ignore (Foc.Engine.eval_ground eng a t);
  let st = Foc.Engine.stats eng in
  Alcotest.(check int) "cover built exactly once" 1
    st.Foc.Engine.covers_built

(* ---------------- worker spans reach the merged trace ------------- *)

(* Regression for the server-context span loss: spans recorded on pool
   worker domains must appear in the merged event stream, with their own
   domain ids, and the merged stream must stay well nested. [foc serve
   --trace] depends on this — the per-chunk "session.batch" spans used to
   vanish because nothing on the server path ever enabled tracing. *)
let test_worker_spans () =
  Fun.protect
    ~finally:(fun () ->
      Foc.Obs.Trace.clear ();
      Foc.Obs.Trace.disable ())
    (fun () ->
      Foc.Obs.Trace.clear ();
      Foc.Obs.Trace.enable ();
      let a = structure 40 7 in
      let phis =
        List.map parse
          [
            "exists x. #(y). (E(x,y) | E(y,x)) >= 2";
            "#(x,y). (E(x,y) & B(y)) >= 3";
            "exists x. prime(#(y). (E(x,y) & G(y)))";
            "forall x. #(y). E(y,x) <= 4";
            "#(x,y). (E(x,y) | B(y)) >= 6";
            "exists x. #(y). (R(y) & E(x,y)) >= 1";
            "#(x). prime(#(y). (E(x,y) | R(y))) >= 1";
            "forall x. #(y). (E(x,y) & !B(y)) <= 5";
            "exists x. #(y). (G(y) | E(y,x)) >= 2";
            "#(x,y). (E(y,x) & R(x)) >= 2";
            "exists x. prime(#(y). (B(y) | E(y,x)))";
            "#(x,y). (E(x,y) & !G(y)) >= 4";
          ]
      in
      let s = Foc.Session.create ~config:(config Foc.Engine.Direct 1) a in
      let self = (Domain.self () :> int) in
      let worker_span (e : Foc.Obs.Trace.event) =
        e.name = "session.batch" && e.tid <> self
      in
      (* scheduling may let the submitter drain every chunk on a tiny
         batch; retry until a pool worker demonstrably ran one *)
      let saw_worker = ref false in
      let attempts = ref 0 in
      while (not !saw_worker) && !attempts < 20 do
        incr attempts;
        ignore (Foc.Session.run_batch ~jobs:4 s phis);
        saw_worker := List.exists worker_span (Foc.Obs.Trace.events ())
      done;
      let evs = Foc.Obs.Trace.events () in
      Alcotest.(check bool) "submitter recorded batch spans" true
        (List.exists
           (fun (e : Foc.Obs.Trace.event) ->
             e.name = "session.batch" && e.tid = self)
           evs);
      Alcotest.(check bool) "worker spans reach the merged stream" true
        !saw_worker;
      Alcotest.(check bool) "merged stream stays well nested" true
        (Foc.Obs.Trace.well_nested ()))

(* ---------------- canonical AST properties ---------------- *)

let arb_sentence = QCheck.make ~print:Fun.id sentence_gen

let prop_canonical_idempotent =
  QCheck.Test.make ~name:"canonical idempotent" ~count:100 arb_sentence
    (fun src ->
      let f = parse src in
      Foc.Ast.equal_formula
        (Foc.Ast.canonical (Foc.Ast.canonical f))
        (Foc.Ast.canonical f))

let prop_alpha_invariant =
  QCheck.Test.make ~name:"alpha-variants share canonical form and hash"
    ~count:100 arb_sentence (fun src ->
      let f = parse src in
      let g = alpha f in
      Foc.Ast.equal_formula (Foc.Ast.canonical f) (Foc.Ast.canonical g)
      && Foc.Ast.hash_formula (Foc.Ast.canonical f)
         = Foc.Ast.hash_formula (Foc.Ast.canonical g))

let prop_commutative =
  QCheck.Test.make ~name:"and/or commute under canonicalization" ~count:100
    (QCheck.pair arb_sentence arb_sentence) (fun (s1, s2) ->
      let f = parse s1 and g = parse s2 in
      Foc.Ast.equal_formula
        (Foc.Ast.canonical (Foc.Ast.And (f, g)))
        (Foc.Ast.canonical (Foc.Ast.And (g, f)))
      && Foc.Ast.equal_formula
           (Foc.Ast.canonical (Foc.Ast.Or (f, g)))
           (Foc.Ast.canonical (Foc.Ast.Or (g, f))))

let prop_hash_agrees =
  QCheck.Test.make ~name:"hash agrees with equality on canonical forms"
    ~count:100
    (QCheck.pair arb_sentence arb_sentence) (fun (s1, s2) ->
      let a = Foc.Ast.canonical (parse s1)
      and b = Foc.Ast.canonical (parse s2) in
      (not (Foc.Ast.equal_formula a b))
      || Foc.Ast.hash_formula a = Foc.Ast.hash_formula b)

let prop_key_interning =
  QCheck.Test.make ~name:"Key.intern identifies alpha-variants" ~count:100
    arb_sentence (fun src ->
      let f = parse src in
      let tbl = Foc.Ast.Key.create_table () in
      let k1 = Foc.Ast.Key.intern tbl f in
      let k2 = Foc.Ast.Key.intern tbl (alpha f) in
      Foc.Ast.Key.equal k1 k2
      && Foc.Ast.Key.id k1 = Foc.Ast.Key.id k2
      && Foc.Ast.Key.interned tbl = 1)

(* Width-5 sentences exceed the decomposition width, so every one runs on
   the relational baseline, and a parallel batch runs them on pool workers
   that all record into the process-wide Eval_obs registry. With adaptive
   re-planning off every worker plans alike, so the counters at jobs 4
   must equal the sequential ones: no update may be lost to a race. *)
let test_baseline_counters_jobs_invariant () =
  let a = structure 60 11 in
  let sentences =
    List.concat_map
      (fun extra ->
        List.map
          (fun k ->
            Foc.parse_formula
              (Printf.sprintf
                 "#(v,w,x,y,z). (E(v,w) & E(w,x) & E(x,y) & E(y,z)%s) >= %d"
                 extra k))
          [ 1; 50; 400 ])
      [ ""; " & R(v)"; " & B(z)"; " & G(x)" ]
  in
  let run jobs =
    let config =
      { (config Foc.Engine.Direct 1) with Foc.Engine.adaptive = false }
    in
    let s = Foc.Session.create ~config a in
    Foc.Eval_obs.reset ();
    let answers = Foc.Session.run_batch ~jobs s sentences in
    ( answers,
      Foc.Eval_obs.[ joins (); tables_built (); rows_built () ] )
  in
  let answers1, counts1 = run 1 in
  let answers4, counts4 = run 4 in
  Alcotest.(check (list bool)) "answers" answers1 answers4;
  Alcotest.(check bool) "baseline ran" true (List.hd counts1 > 0);
  Alcotest.(check (list int)) "joins, tables, rows" counts1 counts4

let () =
  Alcotest.run "session layer"
    [
      ( "session = fresh engine",
        [
          QCheck_alcotest.to_alcotest
            (prop_session Foc.Engine.Direct "direct: batch/warm/parallel");
          QCheck_alcotest.to_alcotest
            (prop_session Foc.Engine.Cover "cover: batch/warm/parallel");
          QCheck_alcotest.to_alcotest
            (prop_session
               (Foc.Engine.Splitter { max_rounds = 4; small = 32 })
               "splitter: batch/warm/parallel");
          QCheck_alcotest.to_alcotest
            (prop_session Foc.Engine.Hanf "hanf: batch/warm/parallel");
        ] );
      ( "caching behaviour",
        [
          Alcotest.test_case "warm-path hit counters" `Quick test_warm_hits;
          Alcotest.test_case "zero budget stays correct" `Quick
            test_zero_budget;
          Alcotest.test_case "per-call cover memo" `Quick test_cover_dedup;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "worker spans reach the merged trace" `Quick
            test_worker_spans;
          Alcotest.test_case "baseline counters are jobs-invariant" `Quick
            test_baseline_counters_jobs_invariant;
        ] );
      ( "budget cache",
        [
          Alcotest.test_case "re-inserted key stays hot" `Quick
            test_cache_reinsert_stays_hot;
          Alcotest.test_case "remove then re-insert" `Quick
            test_cache_remove_then_reinsert;
          Alcotest.test_case "second-chance policy" `Quick
            test_cache_second_chance;
          Alcotest.test_case "re-insert churn" `Quick test_cache_reinsert_churn;
        ] );
      ( "update invalidation",
        [
          QCheck_alcotest.to_alcotest
            (prop_invalidation Foc.Engine.Direct "direct: updates agree");
          QCheck_alcotest.to_alcotest
            (prop_invalidation Foc.Engine.Cover "cover: updates agree");
          QCheck_alcotest.to_alcotest
            (prop_invalidation Foc.Engine.Hanf "hanf: updates agree");
        ] );
      ( "canonical AST",
        [
          QCheck_alcotest.to_alcotest prop_canonical_idempotent;
          QCheck_alcotest.to_alcotest prop_alpha_invariant;
          QCheck_alcotest.to_alcotest prop_commutative;
          QCheck_alcotest.to_alcotest prop_hash_agrees;
          QCheck_alcotest.to_alcotest prop_key_interning;
        ] );
    ]
