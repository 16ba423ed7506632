(* Tests for the parallel evaluation layer: the Foc_par combinators
   themselves, and the engine invariant parallel(jobs=4) ≡ sequential
   (jobs=1) over random structures × random FOC1 queries for the Direct,
   Cover and Hanf back-ends. *)

let coloured seed g =
  let rng = Random.State.make [| seed |] in
  Foc.Db_gen.colored_digraph rng ~graph:g ~orient:`Both ~p_red:0.3
    ~p_blue:0.4 ~p_green:0.3

let engine backend jobs =
  Foc.Engine.create
    ~config:{ Foc.Engine.default_config with backend; jobs }
    ()

(* ---------------- Foc_par combinators ---------------- *)

let test_parallel_for () =
  List.iter
    (fun (jobs, n) ->
      let hits = Array.make (max n 1) 0 in
      Foc.Par.parallel_for ~jobs n (fun i -> hits.(i) <- hits.(i) + 1);
      for i = 0 to n - 1 do
        Alcotest.(check int)
          (Printf.sprintf "jobs=%d n=%d index %d hit once" jobs n i)
          1 hits.(i)
      done)
    [ (1, 100); (2, 100); (4, 1); (4, 7); (4, 1000); (8, 64); (4, 0) ]

let test_tabulate () =
  List.iter
    (fun (jobs, n) ->
      Alcotest.(check (array int))
        (Printf.sprintf "tabulate jobs=%d n=%d" jobs n)
        (Array.init n (fun i -> (i * i) mod 97))
        (Foc.Par.tabulate ~jobs n (fun i -> (i * i) mod 97)))
    [ (1, 50); (3, 50); (4, 1); (4, 1023); (16, 33) ]

(* 0 + 1 + ... + (n - 1), tabulated on the pool *)
let sum ~jobs n = Array.fold_left ( + ) 0 (Foc.Par.tabulate ~jobs n Fun.id)

let test_tabulate_ctx () =
  let lock = Mutex.create () and ctxs = ref [] in
  let out =
    Foc.Par.tabulate_ctx ~jobs:4
      ~make_ctx:(fun () ->
        let c = ref 0 in
        Mutex.lock lock;
        ctxs := c :: !ctxs;
        Mutex.unlock lock;
        c)
      500
      (fun c i ->
        incr c;
        i * 2)
  in
  let ctxs = !ctxs in
  Alcotest.(check (array int))
    "values" (Array.init 500 (fun i -> i * 2)) out;
  Alcotest.(check bool) "at most one context per executor" true
    (List.length ctxs <= 4);
  Alcotest.(check int) "per-context counts add up to n" 500
    (List.fold_left (fun acc c -> acc + !c) 0 ctxs)

let test_exception_propagates () =
  Alcotest.check_raises "exception re-raised at join" Exit (fun () ->
      Foc.Par.parallel_for ~jobs:4 100 (fun i ->
          if i = 63 then raise Exit));
  (* and the pool still works afterwards *)
  Alcotest.(check int) "pool survives" 4950 (sum ~jobs:4 100)

exception Probe of int

(* the exception — payload included — must come back identical at every
   jobs setting (sequential path, submitter slot, worker domains), and
   each failed batch must leave the pool reusable for the next one *)
let test_exception_every_jobs () =
  List.iter
    (fun jobs ->
      (match
         Foc.Par.tabulate ~jobs 64 (fun i ->
             if i = 37 then raise (Probe (1000 + i)) else i)
       with
      | _ -> Alcotest.failf "jobs=%d: no exception raised" jobs
      | exception Probe p ->
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d payload intact" jobs)
            1037 p);
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d pool reusable after failure" jobs)
        2016 (sum ~jobs 64))
    [ 1; 2; 4; 8 ]

(* regression: the join point must re-raise with the backtrace captured on
   the failing executor. Before the fix it did a plain [raise], so the
   trace pointed at Foc_par.run_batch instead of the task's raise site. *)
let test_exception_backtrace () =
  let prev = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect
    ~finally:(fun () -> Printexc.record_backtrace prev)
    (fun () ->
      match
        Foc.Par.parallel_for ~jobs:4 256 (fun i ->
            if i mod 64 = 63 then failwith "kaboom")
      with
      | () -> Alcotest.fail "no exception raised"
      | exception Failure _ ->
          let bt =
            Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ())
          in
          (* the preserved trace starts at Stdlib.failwith; a trace
             starting inside Foc_par means the capture was lost. An empty
             trace (no debug info) is accepted. *)
          let mentions needle =
            let ln = String.length needle and lb = String.length bt in
            let rec go i =
              i + ln <= lb && (String.sub bt i ln = needle || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool)
            "backtrace names the raise site, not the join" true
            (bt = "" || mentions "failwith" || mentions "stdlib.ml"))

let test_nested_degrades () =
  (* a parallel call from inside a worker must degrade to sequential
     instead of deadlocking *)
  let out =
    Foc.Par.tabulate ~jobs:4 64 (fun i -> sum ~jobs:4 (i + 1))
  in
  Alcotest.(check (array int))
    "nested results"
    (Array.init 64 (fun i -> i * (i + 1) / 2))
    out

(* ---------------- cross-engine property ---------------- *)

(* random r-local bodies over the coloured-digraph signature *)
let body_gen =
  let open QCheck.Gen in
  let atom = oneofl [ "E(x,y)"; "E(y,x)"; "B(y)"; "R(y)"; "G(y)"; "R(x)" ] in
  let literal = map2 (fun neg a -> if neg then "!" ^ a else a) bool atom in
  let connective = oneofl [ " & "; " | " ] in
  map3
    (fun l1 op l2 -> "(" ^ l1 ^ op ^ l2 ^ ")")
    literal connective literal

let arb_case =
  QCheck.make
    ~print:(fun (n, seed, body) -> Printf.sprintf "n=%d seed=%d %s" n seed body)
    QCheck.Gen.(triple (int_range 8 40) (int_range 0 10000) body_gen)

let prop_engines backend name =
  QCheck.Test.make ~name ~count:25 arb_case (fun (n, seed, body) ->
      let rng = Random.State.make [| n; seed |] in
      let a = coloured seed (Foc.Gen.random_bounded_degree rng n 3) in
      let unary = Foc.parse_term (Printf.sprintf "#(y). %s" body) in
      let ground = Foc.parse_term (Printf.sprintf "#(x,y). %s" body) in
      let seq = engine backend 1 and par = engine backend 4 in
      Foc.Engine.eval_unary seq a "x" unary
      = Foc.Engine.eval_unary par a "x" unary
      && Foc.Engine.eval_ground seq a ground
         = Foc.Engine.eval_ground par a ground)

let () =
  Alcotest.run "parallel layer"
    [
      ( "foc_par combinators",
        [
          Alcotest.test_case "parallel_for covers range" `Quick
            test_parallel_for;
          Alcotest.test_case "tabulate = Array.init" `Quick test_tabulate;
          Alcotest.test_case "per-executor contexts" `Quick test_tabulate_ctx;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagates;
          Alcotest.test_case "exceptions at every jobs setting" `Quick
            test_exception_every_jobs;
          Alcotest.test_case "backtrace survives the join" `Quick
            test_exception_backtrace;
          Alcotest.test_case "nested calls degrade" `Quick
            test_nested_degrades;
        ] );
      ( "parallel = sequential",
        [
          QCheck_alcotest.to_alcotest
            (prop_engines Foc.Engine.Direct "direct: jobs=4 = jobs=1");
          QCheck_alcotest.to_alcotest
            (prop_engines Foc.Engine.Cover "cover: jobs=4 = jobs=1");
          QCheck_alcotest.to_alcotest
            (prop_engines Foc.Engine.Hanf "hanf: jobs=4 = jobs=1");
        ] );
    ]
