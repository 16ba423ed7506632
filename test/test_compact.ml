(* Tests for the compact ball engine: the reusable BFS arena agrees with
   the allocating BFS under arbitrary interleavings, compact balls agree
   with ball tables as sets, engine counts are bit-identical for every
   ball-cache capacity and jobs setting, and the isomorphism pre-checks
   never change [Structure.isomorphic]. *)

let coloured seed g =
  let rng = Random.State.make [| seed |] in
  Foc.Db_gen.colored_digraph rng ~graph:g ~orient:`Both ~p_red:0.3
    ~p_blue:0.4 ~p_green:0.3

let sorted_ball_of_tbl tbl =
  let out = Hashtbl.fold (fun v _ acc -> v :: acc) tbl [] in
  Array.of_list (List.sort Int.compare out)

(* ---------------- Int_sort ---------------- *)

let int_sort_matches_stdlib =
  QCheck.Test.make ~name:"Int_sort.sort = Array.sort Int.compare" ~count:200
    QCheck.(array_of_size Gen.(int_range 0 200) (int_range (-50) 50))
    (fun arr ->
      let a = Array.copy arr and b = Array.copy arr in
      Foc_util.Int_sort.sort a;
      Array.sort Int.compare b;
      a = b)

(* ---------------- arena vs fresh BFS ---------------- *)

let arb_graph_case =
  QCheck.make
    ~print:(fun (n, seed, r) -> Printf.sprintf "n=%d seed=%d r=%d" n seed r)
    QCheck.Gen.(triple (int_range 1 60) (int_range 0 10000) (int_range 0 4))

let random_graph n seed =
  let rng = Random.State.make [| n; seed |] in
  if seed mod 2 = 0 then Foc.Gen.random_bounded_degree rng n 3
  else Foc.Gen.erdos_renyi rng n 0.15

let ball_sorted_matches_tbl =
  QCheck.Test.make ~name:"ball_sorted = ball_tbl keys as sets" ~count:200
    arb_graph_case (fun (n, seed, r) ->
      let g = random_graph n seed in
      let s = Foc.Bfs.searcher g in
      let rng = Random.State.make [| seed; 5 |] in
      let ok = ref true in
      for _ = 1 to 10 do
        let centres =
          List.init
            (1 + Random.State.int rng 2)
            (fun _ -> Random.State.int rng n)
        in
        let expected =
          sorted_ball_of_tbl (Foc.Bfs.ball_tbl g ~centres ~radius:r)
        in
        if Foc.Bfs.ball_sorted s ~centres ~radius:r <> expected then
          ok := false
      done;
      !ok)

let reused_searcher_matches_fresh =
  QCheck.Test.make
    ~name:"one reused searcher = fresh BFS per query (interleaved)"
    ~count:100 arb_graph_case (fun (n, seed, _) ->
      let g = random_graph n seed in
      let reused = Foc.Bfs.searcher g in
      let rng = Random.State.make [| seed; 9 |] in
      let ok = ref true in
      (* interleave radii and centres; the reused arena must behave as if
         it had been created fresh for each query *)
      for _ = 1 to 15 do
        let radius = Random.State.int rng 4 in
        let centres = [ Random.State.int rng n ] in
        let tbl = Foc.Bfs.ball_tbl g ~centres ~radius in
        let count = Foc.Bfs.run reused ~centres ~radius in
        if count <> Hashtbl.length tbl then ok := false;
        Hashtbl.iter
          (fun v d ->
            if not (Foc.Bfs.mem reused v) then ok := false;
            if Foc.Bfs.dist_of reused v <> d then ok := false)
          tbl;
        (* no false members: everything the arena reports must be in tbl *)
        for i = 0 to Foc.Bfs.visited_count reused - 1 do
          if not (Hashtbl.mem tbl (Foc.Bfs.visited reused i)) then ok := false
        done
      done;
      !ok)

(* ---------------- engine invariance in cache capacity ---------------- *)

let body_gen =
  let open QCheck.Gen in
  let atom = oneofl [ "E(x,y)"; "E(y,x)"; "B(y)"; "R(y)"; "G(y)"; "R(x)" ] in
  let literal = map2 (fun neg a -> if neg then "!" ^ a else a) bool atom in
  let connective = oneofl [ " & "; " | " ] in
  map3
    (fun l1 op l2 -> "(" ^ l1 ^ op ^ l2 ^ ")")
    literal connective literal

let arb_engine_case =
  QCheck.make
    ~print:(fun (n, seed, body) -> Printf.sprintf "n=%d seed=%d %s" n seed body)
    QCheck.Gen.(triple (int_range 8 40) (int_range 0 10000) body_gen)

let engine backend jobs ball_cache_mb =
  Foc.Engine.create
    ~config:{ Foc.Engine.default_config with backend; jobs; ball_cache_mb }
    ()

(* Counts, and the counters that do not depend on the cache or on
   scheduling (ball lookups = computed + hits, basic terms), must match the
   jobs=1 run: worker domains record into the engine's registry directly. *)
let prop_cache_invariant backend name =
  QCheck.Test.make ~name ~count:25 arb_engine_case (fun (n, seed, body) ->
      let rng = Random.State.make [| n; seed |] in
      let a = coloured seed (Foc.Gen.random_bounded_degree rng n 3) in
      let unary = Foc.parse_term (Printf.sprintf "#(y). %s" body) in
      let ground = Foc.parse_term (Printf.sprintf "#(x,y). %s" body) in
      let run jobs mb =
        let e = engine backend jobs mb in
        let u = Foc.Engine.eval_unary e a "x" unary in
        let g = Foc.Engine.eval_ground e a ground in
        let st = Foc.Engine.stats e in
        (u, g, st.balls_computed + st.ball_cache_hits, st.basic_terms)
      in
      let base = run 1 64 in
      List.for_all
        (fun (jobs, mb) -> run jobs mb = base)
        [ (1, 0); (4, 0); (4, 64) ])

(* the 0 MiB setting must actually evict (not silently keep everything) *)
let test_eviction_happens () =
  let rng = Random.State.make [| 7 |] in
  let a = coloured 7 (Foc.Gen.random_bounded_degree rng 200 3) in
  let eng = engine Foc.Engine.Direct 1 0 in
  ignore (Foc.Engine.eval_ground eng a (Foc.parse_term "#(x,y). dist(x,y) <= 3"));
  let st = Foc.Engine.stats eng in
  Alcotest.(check bool) "balls computed" true (st.balls_computed > 0);
  Alcotest.(check bool) "evictions observed" true
    (st.ball_cache_evictions > 0);
  Alcotest.(check bool) "residency stays tiny" true
    (st.ball_cache_peak_entries <= 2)

(* ---------------- isomorphism pre-checks ---------------- *)

let path n =
  Foc.Structure.of_graph
    (Foc.Graph.create n (List.init (n - 1) (fun i -> (i, i + 1))))

let star n =
  Foc.Structure.of_graph
    (Foc.Graph.create n (List.init (n - 1) (fun i -> (0, i + 1))))

let test_isomorphic_positive () =
  (* a path relabelled by reversal is isomorphic to itself *)
  let n = 7 in
  let rev =
    Foc.Structure.of_graph
      (Foc.Graph.create n (List.init (n - 1) (fun i -> (n - 1 - i, n - 2 - i))))
  in
  Alcotest.(check bool) "reversed path isomorphic" true
    (Foc.Structure.isomorphic (path n) rev)

let test_isomorphic_negative () =
  (* same order and edge count, different degree multiset: the pre-check
     must reject without changing the answer *)
  Alcotest.(check bool) "path vs star" false
    (Foc.Structure.isomorphic (path 6) (star 6));
  (* the guard must be fast even at orders where n! is astronomical *)
  let t0 = Unix.gettimeofday () in
  Alcotest.(check bool) "large path vs star" false
    (Foc.Structure.isomorphic (path 60) (star 60));
  Alcotest.(check bool) "pre-check rejects quickly" true
    (Unix.gettimeofday () -. t0 < 1.0)

let iso_invariant_under_relabelling =
  QCheck.Test.make ~name:"isomorphic accepts random relabellings" ~count:50
    (QCheck.make
       ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
       QCheck.Gen.(pair (int_range 2 7) (int_range 0 1000)))
    (fun (n, seed) ->
      let rng = Random.State.make [| n; seed |] in
      let g = Foc.Gen.erdos_renyi rng n 0.4 in
      let perm = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      let h =
        Foc.Graph.create n
          (List.map (fun (u, v) -> (perm.(u), perm.(v))) (Foc.Graph.edges g))
      in
      Foc.Structure.isomorphic (Foc.Structure.of_graph g)
        (Foc.Structure.of_graph h))

(* ---------------- ball cache vs a list-based model ---------------- *)

(* What a sweep reads off its cache for a sequence of centre lookups: hits,
   computed (inserted) values, evictions, peak entries and bytes. *)
type cache_run = {
  hits : int;
  computed : int;
  evictions : int;
  peak_entries : int;
  peak_bytes : int;
}

(* the reference: second chance over a list of (centre, referenced),
   oldest first *)
type model = { mutable q : (int * bool ref) list; mutable used : int }

let model_lookups m ~capacity ~size centres =
  let hits = ref 0 and computed = ref 0 and evictions = ref 0 in
  let peak_entries = ref 0 and peak_bytes = ref 0 in
  let rec evict () =
    match m.q with
    | (v, referenced) :: rest when m.used > capacity && rest <> [] ->
        if !referenced then begin
          referenced := false;
          m.q <- rest @ [ (v, referenced) ]
        end
        else begin
          m.q <- rest;
          m.used <- m.used - size v;
          incr evictions
        end;
        evict ()
    | _ -> ()
  in
  List.iter
    (fun v ->
      match List.assoc_opt v m.q with
      | Some referenced ->
          referenced := true;
          incr hits
      | None ->
          incr computed;
          m.q <- m.q @ [ (v, ref false) ];
          m.used <- m.used + size v;
          peak_entries := max !peak_entries (List.length m.q);
          peak_bytes := max !peak_bytes m.used;
          evict ())
    centres;
  {
    hits = !hits;
    computed = !computed;
    evictions = !evictions;
    peak_entries = !peak_entries;
    peak_bytes = !peak_bytes;
  }

(* the same lookups through [Ball_cache], as [Pattern_count] makes them;
   the value of a centre is its size *)
let table_lookups c ~size centres =
  let module C = Foc_local.Ball_cache in
  let hits = ref 0 and computed = ref 0 and evictions = ref 0 in
  let peak_entries = ref 0 and peak_bytes = ref 0 in
  List.iter
    (fun v ->
      if C.find c v <> -1 then incr hits
      else begin
        incr computed;
        C.add c v (size v);
        peak_entries := max !peak_entries (C.entries c);
        peak_bytes := max !peak_bytes (C.bytes c);
        evictions := !evictions + C.evict c
      end)
    centres;
  {
    hits = !hits;
    computed = !computed;
    evictions = !evictions;
    peak_entries = !peak_entries;
    peak_bytes = !peak_bytes;
  }

let ball_cache_matches_model =
  QCheck.Test.make ~name:"ball cache = list-based second chance" ~count:300
    QCheck.(
      triple (int_range 1 40) (int_range 0 10000)
        (oneofl [ 0; 1; 50; 200; 1_000_000 ]))
    (fun (n, seed, capacity) ->
      let module C = Foc_local.Ball_cache in
      let rng = Random.State.make [| n; seed |] in
      let weights = Array.init n (fun _ -> 1 + Random.State.int rng 60) in
      let size v = weights.(v) in
      (* centres drawn with repeats, a quarter of them one hot centre *)
      let centres () =
        List.init (Random.State.int rng 200) (fun _ ->
            if Random.State.int rng 4 = 0 then 0 else Random.State.int rng n)
      in
      let first = centres () and second = centres () in
      let keep = Array.init n (fun _ -> Random.State.bool rng) in
      let c = C.create ~order:n ~capacity ~dummy:(-1) ~size:Fun.id in
      let m = { q = []; used = 0 } in
      let lazy_table = C.footprint c = 0 in
      let run1 = model_lookups m ~capacity ~size first = table_lookups c ~size first in
      (* dropping residents keeps the others in order and state, so the
         lookups after it see the same cache on both sides *)
      let kept = List.filter (fun (v, _) -> keep.(v)) m.q in
      let dropped = List.length m.q - List.length kept in
      m.q <- kept;
      m.used <- List.fold_left (fun acc (v, _) -> acc + size v) 0 kept;
      let filtered = C.filter c (fun v -> keep.(v)) = dropped in
      let run2 =
        model_lookups m ~capacity ~size second = table_lookups c ~size second
      in
      lazy_table && run1 && filtered && run2
      && C.entries c = List.length m.q
      && C.bytes c = m.used)

let () =
  Alcotest.run "compact ball engine"
    [
      ( "int sort",
        [ QCheck_alcotest.to_alcotest int_sort_matches_stdlib ] );
      ( "bfs arena",
        [
          QCheck_alcotest.to_alcotest ball_sorted_matches_tbl;
          QCheck_alcotest.to_alcotest reused_searcher_matches_fresh;
        ] );
      ( "cache capacity invariance",
        [
          QCheck_alcotest.to_alcotest
            (prop_cache_invariant Foc.Engine.Direct
               "direct: counts identical for cache 0/64MB, jobs 1/4");
          QCheck_alcotest.to_alcotest
            (prop_cache_invariant Foc.Engine.Cover
               "cover: counts identical for cache 0/64MB, jobs 1/4");
          QCheck_alcotest.to_alcotest
            (prop_cache_invariant Foc.Engine.Hanf
               "hanf: counts identical for cache 0/64MB, jobs 1/4");
          Alcotest.test_case "0 MiB cache really evicts" `Quick
            test_eviction_happens;
          QCheck_alcotest.to_alcotest ball_cache_matches_model;
        ] );
      ( "isomorphism pre-checks",
        [
          Alcotest.test_case "accepts reversed path" `Quick
            test_isomorphic_positive;
          Alcotest.test_case "rejects path vs star" `Quick
            test_isomorphic_negative;
          QCheck_alcotest.to_alcotest iso_invariant_under_relabelling;
        ] );
    ]
