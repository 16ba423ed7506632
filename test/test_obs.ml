(* Tests for the observability layer (foc_obs): logfmt rendering,
   histogram bucketing, the metrics registry, span nesting and the Chrome
   trace export round-trip — plus the load-bearing property that turning
   observability on cannot change an evaluation result, for every back-end
   and for jobs=1 and jobs=4. *)

let coloured seed g =
  let rng = Random.State.make [| seed |] in
  Foc.Db_gen.colored_digraph rng ~graph:g ~orient:`Both ~p_red:0.3
    ~p_blue:0.4 ~p_green:0.3

let engine backend jobs =
  Foc.Engine.create
    ~config:{ Foc.Engine.default_config with backend; jobs }
    ()

(* every test leaves the global observability state off *)
let obs_off () =
  Foc.Obs.Trace.disable ();
  Foc.Obs.Trace.clear ();
  Foc.Obs.Trace.set_logfmt_sink None

(* ---------------- logfmt ---------------- *)

let test_logfmt () =
  let open Foc.Obs.Logfmt in
  Alcotest.(check string)
    "plain" "a=1 b=ok c=true"
    (line [ ("a", Int 1); ("b", Str "ok"); ("c", Bool true) ]);
  Alcotest.(check string)
    "float" "t=0.250000"
    (line [ ("t", Float 0.25) ]);
  Alcotest.(check string)
    "spaces quoted" "msg=\"two words\""
    (line [ ("msg", Str "two words") ]);
  Alcotest.(check string)
    "equals quoted" "msg=\"k=v\""
    (line [ ("msg", Str "k=v") ]);
  Alcotest.(check string)
    "quotes escaped" "msg=\"say \\\"hi\\\"\""
    (line [ ("msg", Str "say \"hi\"") ]);
  Alcotest.(check string)
    "newline escaped" "msg=\"a\\nb\""
    (line [ ("msg", Str "a\nb") ])

(* ---------------- histogram buckets ---------------- *)

let test_histogram_buckets () =
  let b = Foc.Obs.Metrics.Histogram.bucket_of in
  List.iter
    (fun (v, expect) ->
      Alcotest.(check int) (Printf.sprintf "bucket_of %d" v) expect (b v))
    [
      (min_int, 0); (-1, 0); (0, 0); (1, 1); (2, 2); (3, 2); (4, 3);
      (7, 3); (8, 4); (1023, 10); (1024, 11); (max_int, 62);
    ]

let test_histogram_observe () =
  let open Foc.Obs.Metrics in
  let r = create () in
  let h = histogram r "h" in
  List.iter (Histogram.observe h) [ 0; 1; 1; 3; 1000; -5 ];
  Alcotest.(check int) "count" 6 (Histogram.count h);
  Alcotest.(check int) "sum" 1000 (Histogram.sum h);
  Alcotest.(check (list (pair int int)))
    "nonzero buckets"
    [ (0, 2); (1, 2); (3, 1); (1023, 1) ]
    (Histogram.nonzero_buckets h)

let test_histogram_quantiles () =
  let open Foc.Obs.Metrics in
  let r = create () in
  let empty = histogram r "empty" in
  Alcotest.(check (float 0.)) "empty histogram" 0. (Histogram.quantile empty 0.5);
  (* 100 observations in one bucket [4,7]: interpolation walks the bucket *)
  let single = histogram r "single" in
  for _ = 1 to 100 do
    Histogram.observe single 5
  done;
  Alcotest.(check (float 1e-9)) "single-bucket p50" 5.5
    (Histogram.quantile single 0.5);
  Alcotest.(check (float 1e-9)) "q<=0 is the bucket floor" 4.
    (Histogram.quantile single 0.);
  Alcotest.(check (float 1e-9)) "q>=1 is the bucket ceiling" 7.
    (Histogram.quantile single 1.);
  (* 50 ones + 50 at 1024: the median rank lands exactly on the edge of
     the first bucket, p95 interpolates inside the second *)
  let split = histogram r "split" in
  for _ = 1 to 50 do
    Histogram.observe split 1;
    Histogram.observe split 1024
  done;
  Alcotest.(check (float 1e-9)) "edge-rank p50" 1.
    (Histogram.quantile split 0.5);
  let p95 = Histogram.quantile split 0.95 in
  Alcotest.(check bool)
    (Printf.sprintf "p95 inside [1024,2047], got %f" p95)
    true
    (p95 >= 1024. && p95 <= 2047.);
  (* monotone in q *)
  Alcotest.(check bool) "monotone" true
    (Histogram.quantile split 0.2 <= Histogram.quantile split 0.8)

(* ---------------- registry ---------------- *)

let test_registry () =
  let open Foc.Obs.Metrics in
  let r = create () in
  let c = counter r "x.count" in
  Counter.inc c;
  Counter.add c 4;
  (* get-or-create returns the same underlying cell *)
  Counter.inc (counter r "x.count");
  Alcotest.(check int) "counter" 6 (Counter.value c);
  let g = gauge r "x.peak" in
  Gauge.set_max g 10;
  Gauge.set_max g 3;
  Alcotest.(check int) "gauge keeps max" 10 (Gauge.value g);
  let h = histogram r "x.ns" in
  Histogram.observe h 100;
  Alcotest.(check string)
    "line sorted with histogram scalars"
    "x.count=6 x.ns.count=1 x.ns.sum=100 x.peak=10" (line r);
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Metrics.gauge: name in use: x.count") (fun () ->
      ignore (gauge r "x.count"));
  Alcotest.(check int) "report has one line per metric" 3
    (List.length (report r))

(* Pool tasks record into the submitter's registry in scope, each domain
   into its own shard: reads after the join lose no update. *)
let test_registry_domains () =
  let open Foc.Obs.Metrics in
  let r = create () in
  let per = 20_000 in
  with_current r (fun () ->
      Foc.Par.parallel_for ~jobs:4 ~chunks:8 8 (fun i ->
          let reg = current () in
          let c = counter reg "x.count" in
          for _ = 1 to per do
            Counter.inc c
          done;
          Gauge.set_max (gauge reg "x.peak") i;
          Histogram.observe (histogram reg "x.ns") i));
  Alcotest.(check bool) "scope restored" true (current () != r);
  Alcotest.(check int) "no lost increments" (8 * per)
    (Counter.value (counter r "x.count"));
  Alcotest.(check int) "gauge is the max over shards" 7
    (Gauge.value (gauge r "x.peak"));
  Alcotest.(check (pair int int))
    "histogram count and sum" (8, 28)
    (Histogram.count (histogram r "x.ns"), Histogram.sum (histogram r "x.ns"))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_prometheus () =
  let open Foc.Obs.Metrics in
  let r1 = create () and r2 = create () in
  Counter.add (counter r1 "req.slow") 3;
  Gauge.set (gauge r1 "cache.bytes") 512;
  let h = histogram r1 "req.read.ns" in
  Histogram.observe h 5;
  Histogram.observe h 1000;
  (* same sanitised name in a later registry: first wins, no dup series *)
  Counter.add (counter r2 "req.slow") 99;
  Counter.add (counter r2 "other.count") 7;
  let page = prometheus [ r1; r2 ] in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("page has " ^ needle) true (contains page needle))
    [
      "# TYPE foc_req_slow counter";
      "foc_req_slow 3";
      "# TYPE foc_cache_bytes gauge";
      "foc_cache_bytes 512";
      "# TYPE foc_req_read_ns histogram";
      "foc_req_read_ns_bucket{le=\"7\"} 1";
      "foc_req_read_ns_bucket{le=\"1023\"} 2";
      "foc_req_read_ns_bucket{le=\"+Inf\"} 2";
      "foc_req_read_ns_sum 1005";
      "foc_req_read_ns_count 2";
      "foc_other_count 7";
    ];
  Alcotest.(check bool) "first registry wins on a clash" false
    (contains page "foc_req_slow 99")

(* ---------------- spans ---------------- *)

let test_span_nesting () =
  obs_off ();
  Foc.Obs.Trace.enable ();
  let v =
    Foc.Obs.span ~name:"outer" (fun () ->
        Foc.Obs.span ~name:"inner" (fun () -> 21) * 2)
  in
  (* a span closed by an exception must still be recorded *)
  (try
     Foc.Obs.span ~name:"raises" (fun () -> raise Exit)
   with Exit -> ());
  Alcotest.(check int) "value passes through" 42 v;
  let evs = Foc.Obs.Trace.events () in
  Alcotest.(check (list string))
    "merged order: outer first (earlier start), inner nested"
    [ "outer"; "inner"; "raises" ]
    (List.map (fun (e : Foc.Obs.Trace.event) -> e.name) evs);
  Alcotest.(check (list int))
    "depths" [ 1; 2; 1 ]
    (List.map (fun (e : Foc.Obs.Trace.event) -> e.depth) evs);
  Alcotest.(check bool) "well nested" true (Foc.Obs.Trace.well_nested ());
  let totals = Foc.Obs.Trace.phase_totals () in
  let outer = List.assoc "outer" totals in
  let inner = List.assoc "inner" totals in
  Alcotest.(check bool)
    "outer self excludes inner" true
    (outer.Foc.Obs.Trace.self_ns
     = outer.Foc.Obs.Trace.total_ns - inner.Foc.Obs.Trace.total_ns);
  obs_off ();
  Alcotest.(check int) "clear drops events" 0
    (List.length (Foc.Obs.Trace.events ()));
  (* disabled spans record nothing and cost nothing observable *)
  Alcotest.(check int) "disabled span is transparent" 7
    (Foc.Obs.span ~name:"ghost" (fun () -> 7));
  Alcotest.(check int) "no ghost event" 0
    (List.length (Foc.Obs.Trace.events ()))

let test_span_parallel_labels () =
  obs_off ();
  Foc.Obs.Trace.enable ();
  let out =
    Foc.Par.tabulate ~jobs:4 ~label:"work" 200 (fun i -> i + 1)
  in
  Alcotest.(check (array int))
    "values" (Array.init 200 (fun i -> i + 1)) out;
  let evs = Foc.Obs.Trace.events () in
  Alcotest.(check bool) "at least one labelled span" true
    (List.exists (fun (e : Foc.Obs.Trace.event) -> e.name = "work") evs);
  Alcotest.(check bool) "all spans labelled" true
    (List.for_all (fun (e : Foc.Obs.Trace.event) -> e.name = "work") evs);
  Alcotest.(check bool) "well nested across domains" true
    (Foc.Obs.Trace.well_nested ());
  obs_off ()

(* ---------------- bounded trace rings ---------------- *)

let test_trace_ring_cap () =
  obs_off ();
  let default = Foc.Obs.Trace.cap () in
  Fun.protect
    ~finally:(fun () ->
      Foc.Obs.Trace.set_cap default;
      obs_off ())
    (fun () ->
      Foc.Obs.Trace.set_cap 8;
      Alcotest.(check int) "cap taken" 8 (Foc.Obs.Trace.cap ());
      Foc.Obs.Trace.enable ();
      (* 50 nested-pair spans: far beyond the cap, the ring wraps *)
      for i = 1 to 50 do
        Foc.Obs.span
          ~name:(Printf.sprintf "outer%d" i)
          (fun () -> Foc.Obs.span ~name:(Printf.sprintf "inner%d" i) ignore)
      done;
      let evs = Foc.Obs.Trace.events () in
      Alcotest.(check int) "ring holds exactly the cap" 8 (List.length evs);
      Alcotest.(check int) "drop counter accounts for the rest" (100 - 8)
        (Foc.Obs.Trace.dropped_events ());
      (* the survivors are the newest-closed spans *)
      Alcotest.(check bool) "latest span survives" true
        (List.exists
           (fun (e : Foc.Obs.Trace.event) -> e.name = "outer50")
           evs);
      (* a subset of a well-nested event set stays well nested, and the
         exporter still produces valid JSON on a wrapped buffer *)
      Alcotest.(check bool) "wrapped buffer well nested" true
        (Foc.Obs.Trace.well_nested ());
      let path = Filename.temp_file "foc_ring" ".json" in
      Foc.Obs.Trace.export_chrome path;
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Sys.remove path;
      (match Foc.Obs.Json.parse s with
      | Ok (Foc.Obs.Json.List l) ->
          (* the ring's 8 spans, then the record of the 92 it dropped *)
          Alcotest.(check int) "export matches ring contents" 9
            (List.length l);
          let last = List.nth l 8 in
          Alcotest.(check bool) "export records the drops" true
            (Foc.Obs.Json.member "name" last
             = Some (Foc.Obs.Json.Str Foc.Obs.Trace.dropped_name)
            && Option.bind
                 (Foc.Obs.Json.member "args" last)
                 (Foc.Obs.Json.member "dropped_events")
               = Some (Foc.Obs.Json.Num 92.))
      | Ok _ -> Alcotest.fail "wrapped export is not an array"
      | Error e -> Alcotest.failf "wrapped export does not parse: %s" e);
      (* clear resets the drop counter too *)
      Foc.Obs.Trace.clear ();
      Alcotest.(check int) "clear resets drops" 0
        (Foc.Obs.Trace.dropped_events ()))

(* ---------------- request scopes ---------------- *)

let test_scope_phases () =
  let open Foc.Obs.Scope in
  let s = create ~id:7 () in
  Alcotest.(check int) "id kept" 7 (id s);
  (* nested phases use self-time: the inner Artifact interval is excluded
     from the surrounding Eval accumulator *)
  let spin ns =
    let t0 = ref (Foc.Obs.Clock.now_ns ()) in
    let stop = !t0 + ns in
    while Foc.Obs.Clock.now_ns () < stop do
      ()
    done
  in
  (* wall-clock readings taken just outside the Eval interval and just
     inside the Artifact one, so the self-time bound below is exact even
     when the process is descheduled mid-test *)
  let inner_ns = ref 0 in
  let t_before = Foc.Obs.Clock.now_ns () in
  time s Eval (fun () ->
      spin 2_000_000;
      time s Artifact (fun () ->
          let i0 = Foc.Obs.Clock.now_ns () in
          spin 2_000_000;
          inner_ns := Foc.Obs.Clock.now_ns () - i0);
      spin 1_000_000);
  let outer_ns = Foc.Obs.Clock.now_ns () - t_before in
  add_ns s Queue 500;
  let total = finish s in
  Alcotest.(check int) "total_ns matches finish" total (total_ns s);
  let e = phase_ns s Eval and a = phase_ns s Artifact in
  Alcotest.(check bool) "eval ≈ its own spinning only" true
    (e >= 3_000_000 && e <= outer_ns - !inner_ns);
  Alcotest.(check bool) "artifact holds the nested interval" true
    (a >= 2_000_000);
  Alcotest.(check bool) "phases sum within total" true
    (e + a + 500 <= total);
  Alcotest.(check int) "add_ns credits directly" 500 (phase_ns s Queue);
  (* breakdown is the six accumulators in protocol order *)
  Alcotest.(check (list string))
    "breakdown keys"
    [ "queue_ns"; "batch_wait_ns"; "artifact_ns"; "plan_ns"; "eval_ns";
      "write_ns" ]
    (List.map fst (breakdown s));
  (* merge adds accumulators *)
  let d = create () in
  add_ns d Eval 10;
  merge_phases d s;
  Alcotest.(check int) "merge adds eval" (10 + e) (phase_ns d Eval);
  (* ambient scope: cue reaches the installed scope, and is a no-op
     without one *)
  Alcotest.(check int) "cue without scope is transparent" 9
    (cue Plan (fun () -> 9));
  with_scope s (fun () -> cue Plan (fun () -> spin 1_000_000));
  Alcotest.(check bool) "cue credited the ambient scope" true
    (phase_ns s Plan >= 1_000_000);
  Alcotest.(check bool) "no ambient scope outside with_scope" true
    (current () = None)

(* ---------------- trace export round-trip ---------------- *)

let test_export_round_trip () =
  obs_off ();
  Foc.Obs.Trace.enable ();
  Foc.Obs.span ~name:"alpha" (fun () ->
      Foc.Obs.span ~name:"beta \"q\"" ignore);
  let n_events = List.length (Foc.Obs.Trace.events ()) in
  let path = Filename.temp_file "foc_trace" ".json" in
  Foc.Obs.Trace.export_chrome path;
  obs_off ();
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  match Foc.Obs.Json.parse s with
  | Error e -> Alcotest.failf "exported trace does not parse: %s" e
  | Ok (Foc.Obs.Json.List evs) ->
      Alcotest.(check int) "event count survives" n_events (List.length evs);
      let names =
        List.map
          (fun ev ->
            (match Foc.Obs.Json.member "ph" ev with
            | Some (Foc.Obs.Json.Str "X") -> ()
            | _ -> Alcotest.fail "ph must be \"X\"");
            List.iter
              (fun k ->
                match Foc.Obs.Json.member k ev with
                | Some (Foc.Obs.Json.Num f) when f >= 0. -> ()
                | _ -> Alcotest.failf "bad field %s" k)
              [ "ts"; "dur"; "pid"; "tid" ];
            match Foc.Obs.Json.member "name" ev with
            | Some (Foc.Obs.Json.Str s) -> s
            | _ -> Alcotest.fail "missing name")
          evs
      in
      Alcotest.(check bool) "escaped name survives round-trip" true
        (List.mem "beta \"q\"" names)
  | Ok _ -> Alcotest.fail "exported trace is not a JSON array"

let test_json_parser () =
  let open Foc.Obs.Json in
  (match parse "{\"a\": [1, 2.5, true, null, \"x\\n\"]}" with
  | Ok (Obj [ ("a", List [ Num 1.; Num 2.5; Bool true; Null; Str "x\n" ]) ])
    ->
      ()
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  List.iter
    (fun bad ->
      match parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted invalid JSON: %s" bad)
    [ ""; "{"; "[1,]"; "[1] trailing"; "\"unterminated"; "nul" ]

(* ---------------- engine metrics as a view ---------------- *)

let test_engine_stats_view () =
  obs_off ();
  let a =
    coloured 5 (Foc.Gen.random_bounded_degree (Random.State.make [| 5 |]) 60 3)
  in
  let eng = engine Foc.Engine.Cover 1 in
  ignore
    (Foc.Engine.eval_ground eng a
       (Foc.parse_term "#(x,y). (R(x) & E(x,y))"));
  let st = Foc.Engine.stats eng in
  Alcotest.(check bool) "basic terms counted" true (st.basic_terms > 0);
  Alcotest.(check bool) "covers counted" true (st.covers_built > 0);
  (* the registry view and the record view agree *)
  Alcotest.(check int)
    "registry backs the record" st.basic_terms
    Foc.Obs.Metrics.(
      Counter.value (counter (Foc.Engine.metrics eng) "engine.basic_terms"));
  let line = Foc.Engine.stats_line eng in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "stats_line mentions covers" true
    (contains line "engine.covers_built=")

let test_incremental_metrics () =
  obs_off ();
  let a =
    coloured 7 (Foc.Gen.random_tree (Random.State.make [| 7 |]) 50)
  in
  let cl =
    match
      Foc.Decompose.unary_count ~r:1 ~vars:[ "x"; "y" ]
        (Foc.parse_formula "E(x,y) & B(y)")
    with
    | Some cl -> cl
    | None -> Alcotest.fail "decomposition failed"
  in
  let inc = Foc.Incremental.create Foc.predicates a cl in
  let affected = Foc.Incremental.insert inc "E" [| 0; 49 |] in
  Alcotest.(check bool) "some anchors re-evaluated" true (affected > 0);
  let m = Foc.Incremental.metrics inc in
  let h = Foc.Obs.Metrics.histogram m "incr.update.affected" in
  Alcotest.(check int) "one update observed" 1
    (Foc.Obs.Metrics.Histogram.count h);
  Alcotest.(check int) "histogram sums the affected counts" affected
    (Foc.Obs.Metrics.Histogram.sum h);
  Alcotest.(check bool) "stats_line renders" true
    (String.length (Foc.Incremental.stats_line inc) > 0)

(* ---------------- obs on/off invariance ---------------- *)

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
    ~print:(fun (n, seed, body) ->
      Printf.sprintf "n=%d seed=%d %s" n seed body)
    QCheck.Gen.(triple (int_range 8 40) (int_range 0 10000) body_gen)

let prop_invariant backend name =
  QCheck.Test.make ~name ~count:20 arb_case (fun (n, seed, body) ->
      let rng = Random.State.make [| n; seed |] in
      let a = coloured seed (Foc.Gen.random_bounded_degree rng n 3) in
      let ground = Foc.parse_term (Printf.sprintf "#(x,y). %s" body) in
      let unary = Foc.parse_term (Printf.sprintf "#(y). %s" body) in
      let sentence =
        Foc.parse_formula (Printf.sprintf "#(x,y). %s >= 3" body)
      in
      let run jobs =
        let eng = engine backend jobs in
        let g = Foc.Engine.eval_ground eng a ground in
        let u = Foc.Engine.eval_unary eng a "x" unary in
        let c = Foc.Engine.check eng a sentence in
        (g, u, c)
      in
      let results jobs =
        obs_off ();
        let off = run jobs in
        Foc.Obs.Trace.enable ();
        (* an installed ambient request scope must also be invisible to
           the answers — this is the path [foc serve] runs on *)
        let on =
          Foc.Obs.Scope.with_scope
            (Foc.Obs.Scope.create ())
            (fun () -> run jobs)
        in
        obs_off ();
        off = on
      in
      results 1 && results 4)

let () =
  obs_off ();
  Alcotest.run "observability"
    [
      ( "primitives",
        [
          Alcotest.test_case "logfmt escaping" `Quick test_logfmt;
          Alcotest.test_case "histogram buckets" `Quick
            test_histogram_buckets;
          Alcotest.test_case "histogram observe" `Quick
            test_histogram_observe;
          Alcotest.test_case "histogram quantiles" `Quick
            test_histogram_quantiles;
          Alcotest.test_case "metrics registry" `Quick test_registry;
          Alcotest.test_case "registry shards per domain" `Quick
            test_registry_domains;
          Alcotest.test_case "prometheus exposition" `Quick test_prometheus;
          Alcotest.test_case "json parser" `Quick test_json_parser;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting + self time" `Quick test_span_nesting;
          Alcotest.test_case "bounded ring wraps" `Quick test_trace_ring_cap;
          Alcotest.test_case "request scope phases" `Quick test_scope_phases;
          Alcotest.test_case "parallel labels" `Quick
            test_span_parallel_labels;
          Alcotest.test_case "chrome export round-trip" `Quick
            test_export_round_trip;
        ] );
      ( "engine integration",
        [
          Alcotest.test_case "stats is a registry view" `Quick
            test_engine_stats_view;
          Alcotest.test_case "incremental counters" `Quick
            test_incremental_metrics;
        ] );
      ( "obs on = obs off",
        [
          QCheck_alcotest.to_alcotest
            (prop_invariant Foc.Engine.Direct "direct: obs on = off");
          QCheck_alcotest.to_alcotest
            (prop_invariant Foc.Engine.Cover "cover: obs on = off");
          QCheck_alcotest.to_alcotest
            (prop_invariant Foc.Engine.Hanf "hanf: obs on = off");
          QCheck_alcotest.to_alcotest
            (prop_invariant
               (Foc.Engine.Splitter { max_rounds = 3; small = 64 })
               "splitter: obs on = off");
        ] );
    ]
