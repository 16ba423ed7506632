(* Deep fuzzing of the whole pipeline: randomly generated guarded FOC1
   expressions evaluated by the localized engine (all four back-ends)
   against the relational-algebra baseline on random sparse structures.

   The generator produces expressions inside the guarded fragment on
   purpose — so the localized path is actually exercised (plans are checked
   to be fallback-free for a large share of the samples) — but the
   agreement property itself never assumes that: whatever route the engine
   takes must produce baseline-equal answers. *)

open Foc_logic
open QCheck.Gen
open Fuzz_gen

let engines =
  [
    ("direct", fun () -> Foc_nd.Engine.create ());
    ( "cover",
      fun () ->
        Foc_nd.Engine.create
          ~config:
            { Foc_nd.Engine.default_config with backend = Foc_nd.Engine.Cover }
          () );
    ( "splitter",
      fun () ->
        Foc_nd.Engine.create
          ~config:
            {
              Foc_nd.Engine.default_config with
              backend = Foc_nd.Engine.Splitter { max_rounds = 1; small = 10 };
            }
          () );
    ( "hanf",
      fun () ->
        Foc_nd.Engine.create
          ~config:
            { Foc_nd.Engine.default_config with backend = Foc_nd.Engine.Hanf }
          () );
  ]

let agreement_test name gen_term count =
  QCheck.Test.make ~name ~count
    (QCheck.make ~print:print_case (pair gen_term gen_structure))
    (fun (t, a) ->
      let expected = Foc_eval.Relalg.term_value preds a [] t in
      List.for_all
        (fun (ename, make) ->
          let got = Foc_nd.Engine.eval_ground (make ()) a t in
          if got <> expected then
            QCheck.Test.fail_reportf "%s: %d vs baseline %d" ename got
              expected
          else true)
        engines)

let prop_ground = agreement_test "fuzz: ground guarded terms, 4 back-ends"
    (gen_ground_term ~max_k:3) 60

let prop_nested =
  agreement_test "fuzz: #-depth-2 guarded terms, 4 back-ends" gen_nested_ground
    30

let prop_unary =
  QCheck.Test.make ~name:"fuzz: unary guarded terms, direct back-end"
    ~count:50
    (QCheck.make ~print:print_case
       (pair (gen_unary_term "x0" ~max_k:2) gen_structure))
    (fun (t, a) ->
      let eng = Foc_nd.Engine.create () in
      let got = Foc_nd.Engine.eval_unary eng a "x0" t in
      let counts = Foc_eval.Relalg.term_counts preds a t in
      let ok = ref true in
      for v = 0 to Foc_data.Structure.order a - 1 do
        if got.(v) <> Foc_eval.Counts.get counts (Var.Map.singleton "x0" v)
        then ok := false
      done;
      !ok)

(* a sanity meter: a decent share of generated kernels should be localized *)
let prop_generator_hits_fragment =
  QCheck.Test.make ~name:"fuzz generator mostly stays in the fragment"
    ~count:1
    (QCheck.make (return ()))
    (fun () ->
      let rng = Random.State.make [| 1234 |] in
      let localized = ref 0 in
      for _ = 1 to 100 do
        let t = generate1 ~rand:rng (gen_ground_term ~max_k:3) in
        let plan = Foc_nd.Plan.term_plan t in
        if plan.Foc_nd.Plan.strictly_localized then incr localized
      done;
      !localized >= 60)

let () =
  Alcotest.run "fuzz"
    [
      ( "agreement",
        [
          QCheck_alcotest.to_alcotest prop_ground;
          QCheck_alcotest.to_alcotest prop_nested;
          QCheck_alcotest.to_alcotest prop_unary;
          QCheck_alcotest.to_alcotest prop_generator_hits_fragment;
        ] );
    ]
