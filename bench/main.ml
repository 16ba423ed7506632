(* The benchmark harness: one experiment per theorem of the paper (see
   DESIGN.md §3 and EXPERIMENTS.md). Each experiment prints a table; the
   shapes (who wins, slopes, crossovers) are what reproduce the paper's
   claims — absolute numbers depend on this machine.

   Usage:
     dune exec bench/main.exe                 -- all experiments, default sizes
     dune exec bench/main.exe -- --quick      -- smaller sweeps
     dune exec bench/main.exe -- --smoke      -- tiny sweeps (CI gate)
     dune exec bench/main.exe -- --only E3,E11
                                              -- a subset of experiments
     dune exec bench/main.exe -- --micro      -- Bechamel micro-benchmarks
     dune exec bench/main.exe -- --json BENCH.json
                                              -- also write per-experiment
                                                 timings as JSON
     dune exec bench/main.exe -- --only E18 --json BENCH.json --merge
                                              -- update only the re-run
                                                 experiments, keeping the
                                                 committed records of the
                                                 others *)

let quick = ref false
let smoke = ref false
let only : string option ref = ref None
let micro = ref false
let json_file : string option ref = ref None
let merge = ref false

(* Wall-clock (monotonic), not [Sys.time]: CPU time sums over domains,
   which would make a perfect jobs=4 speedup look like no speedup at all.
   Shared with the CLI through [Foc.Obs.Clock]. *)
let time f = Foc.Obs.Clock.timed f
let time_only f = snd (time f)

(* [f] and [g] timed in [runs] alternating pairs, so both read the same
   machine state; each run starts from a collected heap, so none pays for
   garbage an earlier one left. The median wall time of each, with [g]'s
   last result. *)
let median_pairs runs f g =
  let timed h =
    Gc.full_major ();
    time h
  in
  let pairs =
    List.init runs (fun _ ->
        let _, tf = timed f in
        (tf, timed g))
  in
  let median ts = List.nth (List.sort compare ts) (runs / 2) in
  ( fst (snd (List.nth pairs (runs - 1))),
    median (List.map fst pairs),
    median (List.map (fun (_, (_, tg)) -> tg) pairs) )

(* ---- machine-readable timings (--json FILE) ---- *)

type jfield = S of string | I of int | F of float | B of bool

let records : (string * jfield) list list ref = ref []

let record experiment fields =
  if !json_file <> None then
    records := (("experiment", S experiment) :: fields) :: !records

(* --merge: start from the committed file and replace only the records of
   experiments re-run in this invocation (keyed by experiment id), so
   `--only E18 --json BENCH.json --merge` refreshes E18 without discarding
   every other experiment's numbers. *)
let merged_records ~ran path =
  if not !merge then []
  else
    let jfield_of_json (k, v) =
      match v with
      | Foc.Obs.Json.Str s -> Some (k, S s)
      | Foc.Obs.Json.Bool b -> Some (k, B b)
      | Foc.Obs.Json.Num f ->
          if Float.is_integer f && Float.abs f < 1e15 then
            Some (k, I (int_of_float f))
          else Some (k, F f)
      | _ -> None
    in
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error _ -> []
    | contents -> (
        match Foc.Obs.Json.parse contents with
        | Ok (Foc.Obs.Json.List objs) ->
            List.filter_map
              (function
                | Foc.Obs.Json.Obj fields ->
                    let keep =
                      match List.assoc_opt "experiment" fields with
                      | Some (Foc.Obs.Json.Str id) -> not (List.mem id ran)
                      | _ -> false
                    in
                    if keep then Some (List.filter_map jfield_of_json fields)
                    else None
                | _ -> None)
              objs
        | Ok _ | Error _ ->
            Printf.eprintf
              "warning: --merge: %s is not a JSON record list; rewriting \
               it\n"
              path;
            [])

let write_json ~ran path =
  let all = merged_records ~ran path @ List.rev !records in
  let buf = Buffer.create 4096 in
  let escape s =
    String.concat ""
      (List.map
         (function
           | '"' -> "\\\"" | '\\' -> "\\\\" | '\n' -> "\\n" | c -> String.make 1 c)
         (List.init (String.length s) (String.get s)))
  in
  let field (k, v) =
    Printf.sprintf "\"%s\": %s" (escape k)
      (match v with
      | S s -> Printf.sprintf "\"%s\"" (escape s)
      | I i -> string_of_int i
      | F f -> Printf.sprintf "%.6f" f
      | B b -> string_of_bool b)
  in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i fields ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf "  { ";
      Buffer.add_string buf (String.concat ", " (List.map field fields));
      Buffer.add_string buf " }")
    all;
  Buffer.add_string buf "\n]\n";
  match open_out path with
  | oc ->
      output_string oc (Buffer.contents buf);
      close_out oc;
      Printf.printf "\nwrote %d timing records to %s (%d new)\n"
        (List.length all) path
        (List.length !records)
  | exception Sys_error msg -> Printf.eprintf "error: --json: %s\n" msg
let preds = Foc.predicates
let parse = Foc.parse_formula
let parse_t = Foc.parse_term

let header title claim =
  Printf.printf "\n==== %s ====\n" title;
  Printf.printf "-- %s\n" claim

let should_run id =
  match !only with
  | None -> true
  | Some o ->
      String.split_on_char ',' o
      |> List.exists (fun s -> String.uppercase_ascii (String.trim s) = id)

let coloured_structure seed graph =
  let rng = Random.State.make [| seed |] in
  Foc.Db_gen.colored_digraph rng ~graph ~orient:`Both ~p_red:0.3 ~p_blue:0.4
    ~p_green:0.3

let direct_engine () = Foc.Engine.create ()

let cover_engine () =
  Foc.Engine.create
    ~config:{ Foc.Engine.default_config with backend = Foc.Engine.Cover }
    ()

let splitter_engine () =
  Foc.Engine.create
    ~config:
      {
        Foc.Engine.default_config with
        backend = Foc.Engine.Splitter { max_rounds = 3; small = 64 };
      }
    ()

let hanf_engine () =
  Foc.Engine.create
    ~config:{ Foc.Engine.default_config with backend = Foc.Engine.Hanf }
    ()

let jobs_engine backend jobs =
  Foc.Engine.create
    ~config:{ Foc.Engine.default_config with backend; jobs }
    ()

(* jobs values for the parallel sweeps: 1 (the exact sequential path), the
   machine's recommendation, and 4 (the acceptance point) — deduplicated. *)
let jobs_sweep () =
  List.sort_uniq compare [ 1; Foc.Par.recommended_jobs (); 4 ]

(* ================= E1: Theorem 4.1 — tree reduction ================= *)

let e1 () =
  header "E1  Theorem 4.1: FO(graphs) -> FOC({P=})(trees)"
    "claim: a polynomial fpt-reduction; structure blowup is polynomial and \
     the rewritten sentence stays proportional to the input sentence";
  let sentences =
    [
      "exists x y. E(x,y)";
      "exists x y z. E(x,y) & E(y,z) & E(z,x)";
      "forall x. exists y. E(x,y)";
    ]
  in
  let correct = ref 0 and total = ref 0 in
  for seed = 1 to 6 do
    let rng = Random.State.make [| seed |] in
    let g = Foc.Gen.erdos_renyi rng 4 0.5 in
    let t = Foc.Tree_encoding.encode_graph g in
    List.iter
      (fun s ->
        let phi = parse s in
        let phi_hat = Foc.Tree_encoding.encode_sentence phi in
        incr total;
        if
          Foc.Naive.sentence preds (Foc.Structure.of_graph g) phi
          = Foc.Relalg.holds preds t [] phi_hat
        then incr correct)
      sentences
  done;
  Printf.printf "correctness (naive-vs-reduction, 4-vertex graphs): %d/%d\n"
    !correct !total;
  Printf.printf "%8s %8s %10s %10s %8s %10s %10s\n" "n" "||G||" "|T_G|"
    "||T_G||" "||phi||" "||phi^||" "enc-time";
  let sizes = if !quick then [ 10; 50; 200 ] else [ 10; 50; 200; 1000 ] in
  let phi = parse "exists x y z. E(x,y) & E(y,z) & E(z,x)" in
  List.iter
    (fun n ->
      let rng = Random.State.make [| n |] in
      let g = Foc.Gen.random_bounded_degree rng n 3 in
      let (t, phi_hat), seconds =
        time (fun () ->
            ( Foc.Tree_encoding.encode_graph g,
              Foc.Tree_encoding.encode_sentence phi ))
      in
      Printf.printf "%8d %8d %10d %10d %8d %10d %9.3fs\n" n (Foc.Graph.size g)
        (Foc.Structure.order t) (Foc.Structure.size t)
        (Foc.Measure.size_formula phi)
        (Foc.Measure.size_formula phi_hat)
        seconds)
    sizes

(* ================= E2: Theorem 4.3 — string reduction ================= *)

let e2 () =
  header "E2  Theorem 4.3: FO(graphs) -> FOC({P=})(strings)"
    "claim: same reduction via strings with a linear order; the order \
     relation is quadratic in the string length";
  let correct = ref 0 and total = ref 0 in
  for seed = 1 to 4 do
    let rng = Random.State.make [| seed; 2 |] in
    let g = Foc.Gen.erdos_renyi rng 4 0.5 in
    let s = Foc.String_encoding.encode_graph g in
    List.iter
      (fun src ->
        let phi = parse src in
        let phi_hat = Foc.String_encoding.encode_sentence phi in
        incr total;
        if
          Foc.Naive.sentence preds (Foc.Structure.of_graph g) phi
          = Foc.Relalg.holds preds s [] phi_hat
        then incr correct)
      [ "exists x y. E(x,y)"; "forall x. exists y. E(x,y)" ]
  done;
  Printf.printf "correctness (naive-vs-reduction, 4-vertex graphs): %d/%d\n"
    !correct !total;
  Printf.printf "%8s %8s %10s %12s\n" "n" "||G||" "|S_G|" "||S_G||";
  let sizes = if !quick then [ 5; 10; 20 ] else [ 5; 10; 20; 30 ] in
  List.iter
    (fun n ->
      let rng = Random.State.make [| n; 3 |] in
      let g = Foc.Gen.random_bounded_degree rng n 3 in
      let str = Foc.String_encoding.string_of_graph g in
      let s = Foc.String_encoding.encode_graph g in
      Printf.printf "%8d %8d %10d %12d\n" n (Foc.Graph.size g)
        (String.length str) (Foc.Structure.size s))
    sizes;
  List.iter
    (fun n ->
      let rng = Random.State.make [| n; 3 |] in
      let g = Foc.Gen.random_bounded_degree rng n 3 in
      Printf.printf "%8d %8d %10d %12s\n" n (Foc.Graph.size g)
        (String.length (Foc.String_encoding.string_of_graph g))
        "(not built)")
    (if !quick then [ 100 ] else [ 100; 500; 2000 ])

(* ================= E3: Theorem 5.5 — main scaling ================= *)

let e3 () =
  header "E3  Theorem 5.5 / Corollary 5.6: FOC1 evaluation scaling"
    "claim: the localized engine is fixed-parameter almost linear on \
     nowhere dense classes, while the relational-algebra baseline degrades \
     on kernels with negation (quadratic tables); the naive evaluator only \
     runs at toy sizes";
  let classes =
    [ Foc.Classes.random_trees; Foc.Classes.grids; Foc.Classes.bounded_degree 3 ]
  in
  let sizes = if !quick then [ 500; 2000 ] else [ 500; 2000; 8000; 32000 ] in
  let q_a = "#(x,y). (R(x) & !E(x,y) & B(y))" in
  let q_b = "#(y). (E(x,y) & B(y))" in
  Printf.printf "%-16s %8s | %10s %10s %10s | %10s %10s\n" "class" "n"
    "QA-local" "QA-relalg" "QA-naive" "QB-local" "QB-relalg";
  List.iter
    (fun (cls : Foc.Classes.t) ->
      List.iter
        (fun n ->
          let a = coloured_structure 11 (cls.generate ~seed:11 ~n) in
          let ta = parse_t q_a in
          let t_local =
            time_only (fun () ->
                ignore (Foc.Engine.eval_ground (direct_engine ()) a ta))
          in
          let t_relalg =
            if n <= 2000 then
              Printf.sprintf "%9.3fs"
                (time_only (fun () ->
                     ignore (Foc.Relalg.term_value preds a [] ta)))
            else "    (skip)"
          in
          let t_naive =
            if n <= 200 then
              Printf.sprintf "%9.3fs"
                (time_only (fun () ->
                     ignore (Foc.Naive.ground_term preds a ta)))
            else "    (skip)"
          in
          let tb = parse_t q_b in
          let tb_local =
            time_only (fun () ->
                ignore (Foc.Engine.eval_unary (direct_engine ()) a "x" tb))
          in
          let tb_relalg =
            time_only (fun () ->
                let c = Foc.Relalg.term_counts preds a tb in
                for v = 0 to Foc.Structure.order a - 1 do
                  ignore (Foc.Counts.get c (Foc.Var.Map.singleton "x" v))
                done)
          in
          record "E3"
            [ ("class", S cls.name); ("n", I n); ("engine", S "direct");
              ("query", S "QA"); ("seconds", F t_local) ];
          record "E3"
            [ ("class", S cls.name); ("n", I n); ("engine", S "direct");
              ("query", S "QB"); ("seconds", F tb_local) ];
          record "E3"
            [ ("class", S cls.name); ("n", I n); ("engine", S "relalg");
              ("query", S "QB"); ("seconds", F tb_relalg) ];
          Printf.printf "%-16s %8d | %9.3fs %10s %10s | %9.3fs %9.3fs\n"
            cls.name n t_local t_relalg t_naive tb_local tb_relalg)
        sizes)
    classes;
  Printf.printf
    "(QA-local should grow ~linearly with n; QA-relalg ~quadratically)\n";
  (* -- jobs sweep: the same counts from every jobs setting, wall-clock -- *)
  let n = if !quick then 2000 else 32000 in
  let cls = Foc.Classes.bounded_degree 3 in
  let a = coloured_structure 11 (cls.generate ~seed:11 ~n) in
  let ta = parse_t q_a in
  let tb = parse_t q_b in
  Printf.printf
    "\n-- jobs sweep (direct back-end, %s, n=%d; counts must be identical)\n"
    cls.name n;
  Printf.printf "%6s | %10s %10s %8s\n" "jobs" "QA-ground" "QB-unary" "agree";
  let base_a = ref 0 and base_b = ref [||] in
  List.iter
    (fun jobs ->
      let eng = jobs_engine Foc.Engine.Direct jobs in
      let va, t_a = time (fun () -> Foc.Engine.eval_ground eng a ta) in
      let vb, t_b = time (fun () -> Foc.Engine.eval_unary eng a "x" tb) in
      if jobs = 1 then begin
        base_a := va;
        base_b := vb
      end;
      let agree = va = !base_a && vb = !base_b in
      record "E3"
        [ ("class", S cls.name); ("n", I n); ("engine", S "direct");
          ("query", S "QA"); ("jobs", I jobs); ("seconds", F t_a);
          ("agree", B agree) ];
      record "E3"
        [ ("class", S cls.name); ("n", I n); ("engine", S "direct");
          ("query", S "QB"); ("jobs", I jobs); ("seconds", F t_b);
          ("agree", B agree) ];
      Printf.printf "%6d | %9.3fs %9.3fs %8b\n" jobs t_a t_b agree)
    (jobs_sweep ())

(* ================= E4: Lemma 6.4 — decomposition ================= *)

let e4 () =
  header "E4  Lemma 6.4 / Theorem 6.10: cl-decomposition"
    "claim: counting terms decompose into polynomials of connected local \
     terms; the number of basic terms depends only on the query (k, r), \
     not on the data, and the decomposition agrees with the baseline";
  let rng = Random.State.make [| 21 |] in
  let a = coloured_structure 21 (Foc.Gen.random_bounded_degree rng 60 3) in
  let bodies =
    [
      ([ "u"; "v" ], "E(u,v)");
      ([ "u"; "v" ], "R(u) & B(v)");
      ([ "u"; "v" ], "R(u) & !E(u,v) & B(v)");
      ([ "u"; "v"; "w" ], "E(u,v) & B(w)");
      ([ "u"; "v"; "w" ], "R(u) & B(v) & G(w)");
    ]
  in
  Printf.printf "%-28s %3s %3s %10s %8s %8s %6s\n" "body" "k" "r" "patterns"
    "basics" "width" "ok";
  List.iter
    (fun (vars, src) ->
      let body = parse src in
      let r =
        match Foc.Locality.formula_radius body with
        | Foc.Locality.Local r -> r
        | Foc.Locality.Nonlocal _ -> -1
      in
      match Foc.Decompose.ground_count ~r ~vars body with
      | None -> Printf.printf "%-28s decomposition failed\n" src
      | Some cl ->
          let patterns =
            List.length (Foc.Pattern.enumerate (List.length vars))
          in
          let ctx = Foc.Pattern_count.make_ctx preds a ~r in
          let got = Foc.Clterm.(eval_ground (direct ctx) cl) in
          let expected = Foc.Relalg.count preds a vars body in
          Printf.printf "%-28s %3d %3d %10d %8d %8d %6b\n" src
            (List.length vars) r patterns
            (Foc.Clterm.basic_count cl)
            (Foc.Clterm.width cl)
            (got = expected))
    bodies

(* ================= E5: Theorem 8.1 — covers ================= *)

let e5 () =
  header "E5  Theorem 8.1: sparse neighbourhood covers"
    "claim: nowhere dense classes admit (r,2r)-covers with small degree; \
     on dense classes the greedy cover degenerates (one huge cluster)";
  let n = if !quick then 1000 else 10000 in
  Printf.printf "%-18s %8s %4s %9s %8s %8s %9s\n" "class" "n" "r" "clusters"
    "maxdeg" "radius" "time";
  List.iter
    (fun (cls : Foc.Classes.t) ->
      let size = if cls.nowhere_dense then n else min n 300 in
      let g = cls.generate ~seed:31 ~n:size in
      List.iter
        (fun r ->
          let cover, seconds = time (fun () -> Foc.Cover.make g ~r) in
          record "E5"
            [ ("class", S cls.name); ("n", I (Foc.Graph.order g)); ("r", I r);
              ("clusters", I (Foc.Cover.cluster_count cover));
              ("seconds", F seconds) ];
          Printf.printf "%-18s %8d %4d %9d %8d %8d %8.3fs\n" cls.name
            (Foc.Graph.order g) r
            (Foc.Cover.cluster_count cover)
            (Foc.Cover.max_degree cover)
            (Foc.Cover.max_cluster_radius cover g)
            seconds)
        [ 1; 2; 4 ])
    Foc.Classes.standard

(* ================= E6: splitter game ================= *)

let e6 () =
  header "E6  Section 8: the splitter game"
    "claim: Splitter wins in a bounded number of rounds exactly on nowhere \
     dense classes; on cliques Connector survives arbitrarily long";
  let n = if !quick then 500 else 2000 in
  Printf.printf "%-18s %8s %4s %10s\n" "class" "n" "r" "rounds";
  List.iter
    (fun (cls : Foc.Classes.t) ->
      let size = if cls.nowhere_dense then n else min n 120 in
      let g = cls.generate ~seed:41 ~n:size in
      List.iter
        (fun r ->
          let rng = Random.State.make [| 41; r |] in
          let rounds =
            Foc.Splitter.rounds_to_win g ~r ~max_rounds:16
              ~connector:(Foc.Splitter.connector_greedy ~r rng)
              ~splitter:(cls.splitter g)
          in
          Printf.printf "%-18s %8d %4d %10s\n" cls.name (Foc.Graph.order g) r
            (match rounds with Some k -> string_of_int k | None -> ">16"))
        [ 1; 2 ])
    Foc.Classes.standard
  ;
  (* -- the Splitter back-end's batched rounds on the sweep-cold term -- *)
  let term = parse_t "#(x,y). (R(x) & !E(x,y) & B(y))" in
  Printf.printf
    "\n-- Splitter back-end rounds (%s on random trees, max_rounds 3, small \
     64)\n"
    "#(x,y). (R(x) & !E(x,y) & B(y))";
  Printf.printf "%8s | %9s %8s %8s %8s %8s %11s %8s\n" "n" "seconds"
    "rounds" "kernels" "removals" "covers" "covers/rm+1" "agree";
  List.iter
    (fun n ->
      let a =
        coloured_structure 43 (Foc.Classes.random_trees.generate ~seed:43 ~n)
      in
      let eng = splitter_engine () in
      let v, t = time (fun () -> Foc.Engine.eval_ground eng a term) in
      let agree = v = Foc.Engine.eval_ground (direct_engine ()) a term in
      let st = Foc.Engine.stats eng in
      let counter name =
        Foc.Obs.Metrics.(Counter.value (counter (Foc.Engine.metrics eng) name))
      in
      let rounds = counter "splitter.rounds"
      and kernels = counter "splitter.kernels" in
      let per_removal = float st.covers_built /. float (1 + st.removals) in
      record "E6"
        [ ("n", I n); ("seconds", F t); ("rounds", I rounds);
          ("kernels", I kernels); ("removals", I st.removals);
          ("covers", I st.covers_built); ("agree", B agree) ];
      Printf.printf "%8d | %8.3fs %8d %8d %8d %8d %11.2f %8b\n" n t rounds
        kernels st.removals st.covers_built per_removal agree)
    (if !quick then [ 500; 2000 ] else [ 500; 2000; 8000 ])

(* ================= E7: the tractability frontier ================= *)

let e7 () =
  header "E7  The frontier: FOC on trees is hard, FOC1 is easy"
    "claim: on the trees T_G of Theorem 4.1, the two-variable cardinality \
     condition psi_E (full FOC) is costly to evaluate, while FOC1 queries \
     of similar size run near-linearly on the same structures";
  let sizes = if !quick then [ 6; 10 ] else [ 6; 10; 16; 24 ] in
  Printf.printf "%8s %10s | %12s %12s\n" "n(G)" "|T_G|" "FOC-psi_E"
    "FOC1-degree";
  List.iter
    (fun n ->
      let rng = Random.State.make [| n; 7 |] in
      let g = Foc.Gen.random_bounded_degree rng n 3 in
      let t = Foc.Tree_encoding.encode_graph g in
      let foc_sentence =
        Foc.Ast.exists [ "x"; "y" ]
          (Foc.Ast.big_and
             [
               Foc.Tree_encoding.psi_a "x";
               Foc.Tree_encoding.psi_a "y";
               Foc.Tree_encoding.psi_edge "x" "y";
             ])
      in
      let t_foc =
        time_only (fun () ->
            ignore (Foc.Relalg.holds preds t [] foc_sentence))
      in
      let foc1_term = parse_t "#(y). (E(x,y) & (#(z). E(y,z)) >= 1)" in
      let t_foc1 =
        time_only (fun () ->
            ignore (Foc.Engine.eval_unary (direct_engine ()) t "x" foc1_term))
      in
      Printf.printf "%8d %10d | %11.3fs %11.3fs\n" n (Foc.Structure.order t)
        t_foc t_foc1)
    sizes

(* ================= E8: back-end ablation ================= *)

let e8 () =
  header "E8  Section 8.2: engine back-end ablation"
    "claim: Direct (Remark 6.3), Cover (cluster sweep) and Splitter \
     (removal recursion) back-ends agree; Direct and Cover are the fast \
     paths, Splitter demonstrates the full machinery at a constant-factor \
     cost";
  let sizes = if !quick then [ 500 ] else [ 500; 2000; 8000 ] in
  let term = parse_t "#(y). (E(x,y) & B(y))" in
  Printf.printf "%-16s %8s | %10s %10s %10s %10s %8s %8s\n" "class" "n"
    "direct" "cover" "splitter" "hanf" "types" "agree";
  List.iter
    (fun (cls : Foc.Classes.t) ->
      List.iter
        (fun n ->
          let a = coloured_structure 51 (cls.generate ~seed:51 ~n) in
          let run eng = Foc.Engine.eval_unary eng a "x" term in
          let v1, t1 = time (fun () -> run (direct_engine ())) in
          let v2, t2 = time (fun () -> run (cover_engine ())) in
          let v3, t3 = time (fun () -> run (splitter_engine ())) in
          let v4, t4 = time (fun () -> run (hanf_engine ())) in
          let types = Foc.Hanf.type_count a ~r:2 in
          List.iter
            (fun (engine, t) ->
              record "E8"
                [ ("class", S cls.name); ("n", I n); ("engine", S engine);
                  ("seconds", F t) ])
            [ ("direct", t1); ("cover", t2); ("splitter", t3); ("hanf", t4) ];
          Printf.printf
            "%-16s %8d | %9.3fs %9.3fs %9.3fs %9.3fs %8d %8b\n" cls.name n
            t1 t2 t3 t4 types
            (v1 = v2 && v2 = v3 && v3 = v4))
        sizes)
    [ Foc.Classes.random_trees; Foc.Classes.grids ];
  (* -- jobs sweep over the four parallel back-ends -- *)
  let n = if !quick then 2000 else 16000 in
  let cls = Foc.Classes.bounded_degree 3 in
  let a = coloured_structure 51 (cls.generate ~seed:51 ~n) in
  Printf.printf
    "\n-- jobs sweep (%s, n=%d; values must be identical per back-end)\n"
    cls.name n;
  Printf.printf "%6s | %10s %10s %10s %10s %8s\n" "jobs" "direct" "cover"
    "splitter" "hanf" "agree";
  let baseline = ref [||] in
  List.iter
    (fun jobs ->
      let run backend =
        time (fun () ->
            Foc.Engine.eval_unary (jobs_engine backend jobs) a "x" term)
      in
      let v1, t1 = run Foc.Engine.Direct in
      let v2, t2 = run Foc.Engine.Cover in
      let v3, t3 =
        run (Foc.Engine.Splitter { max_rounds = 3; small = 64 })
      in
      let v4, t4 = run Foc.Engine.Hanf in
      if jobs = 1 then baseline := v1;
      let agree =
        v1 = !baseline && v2 = !baseline && v3 = !baseline && v4 = !baseline
      in
      List.iter
        (fun (engine, t) ->
          record "E8"
            [ ("class", S cls.name); ("n", I n); ("engine", S engine);
              ("jobs", I jobs); ("seconds", F t); ("agree", B agree) ])
        [ ("direct", t1); ("cover", t2); ("splitter", t3); ("hanf", t4) ];
      Printf.printf "%6d | %9.3fs %9.3fs %9.3fs %9.3fs %8b\n" jobs t1 t2 t3
        t4 agree)
    (jobs_sweep ())

(* ================= E9: removal lemma ================= *)

let e9 () =
  header "E9  Lemmas 7.8/7.9: the removal operator"
    "claim: A *_r d is linear-time to build, and rewritten formulas/terms \
     evaluate identically on it";
  let rng = Random.State.make [| 61 |] in
  let checks = ref 0 and good = ref 0 in
  for _ = 1 to 20 do
    let g = Foc.Gen.random_bounded_degree rng 14 3 in
    let a = coloured_structure (Random.State.int rng 1000) g in
    let d = Random.State.int rng (Foc.Structure.order a) in
    let b = Foc.Removal_op.apply a ~r:2 ~d in
    let formulas =
      [
        parse "E(x,y) | (R(x) & B(y))";
        parse "dist(x,y) <= 2";
        parse "exists z. E(x,z) & E(z,y)";
      ]
    in
    List.iter
      (fun phi ->
        for x = 0 to Foc.Structure.order a - 1 do
          for y = 0 to Foc.Structure.order a - 1 do
            let pinned =
              Foc.Var.Set.of_list
                (List.filter_map
                   (fun (v, e) -> if e = d then Some v else None)
                   [ ("x", x); ("y", y) ])
            in
            let phi' = Foc.Removal.formula ~r:2 ~pinned phi in
            let env =
              List.filter_map
                (fun (v, e) ->
                  if e = d then None
                  else Some (v, Foc.Removal_op.rename ~d e))
                [ ("x", x); ("y", y) ]
            in
            let lhs =
              Foc.Naive.formula preds a
                (Foc.Naive.env_of_list [ ("x", x); ("y", y) ])
                phi
            in
            let rhs =
              Foc.Naive.formula preds b (Foc.Naive.env_of_list env) phi'
            in
            incr checks;
            if lhs = rhs then incr good
          done
        done)
      formulas
  done;
  Printf.printf "formula equivalence checks (Lemma 7.8): %d/%d\n" !good
    !checks;
  let tchecks = ref 0 and tgood = ref 0 in
  for _ = 1 to 10 do
    let g = Foc.Gen.random_bounded_degree rng 12 3 in
    let a = coloured_structure (Random.State.int rng 1000) g in
    let d = Random.State.int rng (Foc.Structure.order a) in
    let b = Foc.Removal_op.apply a ~r:2 ~d in
    let vars = [ "x"; "y" ] in
    let body = parse "E(x,y) | (R(x) & B(y))" in
    let parts = Foc.Removal.ground_parts ~r:2 ~vars body in
    let lhs = Foc.Relalg.count preds a vars body in
    let rhs =
      List.fold_left
        (fun acc (vs, phi) -> acc + Foc.Relalg.count preds b vs phi)
        0 parts
    in
    incr tchecks;
    if lhs = rhs then incr tgood
  done;
  Printf.printf "ground-term decomposition checks (Lemma 7.9a): %d/%d\n"
    !tgood !tchecks;
  Printf.printf "%8s %12s\n" "n" "apply-time";
  List.iter
    (fun n ->
      let g =
        Foc.Gen.random_bounded_degree (Random.State.make [| n |]) n 3
      in
      let a = coloured_structure 1 g in
      let seconds =
        time_only (fun () -> ignore (Foc.Removal_op.apply a ~r:3 ~d:0))
      in
      Printf.printf "%8d %11.3fs\n" n seconds)
    (if !quick then [ 1000 ] else [ 1000; 10000; 40000 ])

(* ================= E10: SQL workloads ================= *)

let e10 () =
  header "E10  Example 5.3: SQL COUNT workloads"
    "claim: the standard COUNT/GROUP BY statements compile to FOC1 and run \
     on the engine; results match the baseline";
  let schema = Foc.Sql_schema.customer_order in
  let consts = [ ("Berlin", Foc.Db_gen.berlin_rel) ] in
  let sizes = if !quick then [ 200; 1000 ] else [ 200; 1000; 5000; 20000 ] in
  Printf.printf "%10s %8s | %12s %12s %8s\n" "customers" "orders" "S1-engine"
    "S1-relalg" "agree";
  List.iter
    (fun customers ->
      let orders = customers * 4 in
      let rng = Random.State.make [| customers |] in
      let d =
        Foc.Db_gen.customer_order rng ~customers ~orders ~countries:10
          ~cities:20
      in
      let q =
        Foc.Sql_compile.parse_to_query schema ~consts
          "SELECT Country, COUNT(Id) FROM Customer GROUP BY Country"
      in
      let r1, t1 =
        time (fun () ->
            Foc.Engine.run_query (direct_engine ()) d.Foc.Db_gen.db q)
      in
      let r2, t2 = time (fun () -> Foc.Relalg.query preds d.Foc.Db_gen.db q) in
      record "E10"
        [ ("customers", I customers); ("orders", I orders);
          ("engine", S "direct"); ("seconds", F t1); ("agree", B (r1 = r2)) ];
      record "E10"
        [ ("customers", I customers); ("orders", I orders);
          ("engine", S "relalg"); ("seconds", F t2); ("agree", B (r1 = r2)) ];
      Printf.printf "%10d %8d | %11.3fs %11.3fs %8b\n" customers orders t1 t2
        (r1 = r2))
    sizes;
  let rng = Random.State.make [| 3 |] in
  let d =
    Foc.Db_gen.customer_order rng ~customers:2000 ~orders:8000 ~countries:10
      ~cities:20
  in
  let q3 =
    Foc.Sql_compile.parse_to_query schema ~consts
      "SELECT C.FirstName, C.LastName, COUNT(O.Id) FROM Customer C, Order O \
       WHERE C.City = 'Berlin' AND O.CustomerId = C.Id GROUP BY C.FirstName, \
       C.LastName"
  in
  let r3, t3 = time (fun () -> Foc.Relalg.query preds d.Foc.Db_gen.db q3) in
  Printf.printf "statement 3 (2000 customers): %d Berlin rows in %.3fs\n"
    (List.length r3) t3

(* ================= E11: compact ball engine ================= *)

let e11 () =
  header "E11  Compact ball engine: size x radius sweep, bounded cache"
    "claim: compact balls (sorted arrays / bitsets) behind a \
     capacity-bounded cache keep the sweep near-linear while peak cached \
     memory stays below the cap; a one-entry cache (0 MiB) forces \
     evictions on hub-heavy graphs and still returns identical counts";
  let families =
    [
      ( "bounded-degree-3",
        fun n ->
          Foc.Gen.random_bounded_degree (Random.State.make [| 91; n |]) n 3 );
      ( "power-law-2",
        fun n -> Foc.Gen.power_law (Random.State.make [| 92; n |]) n 2 );
    ]
  in
  let sizes =
    if !smoke then [ 1000 ]
    else if !quick then [ 2000; 8000 ]
    else [ 2000; 8000; 32000 ]
  in
  let dists = if !smoke then [ 1; 2 ] else [ 1; 2; 3 ] in
  let run a src ball_cache_mb =
    let eng =
      Foc.Engine.create
        ~config:{ Foc.Engine.default_config with ball_cache_mb }
        ()
    in
    let v, seconds =
      time (fun () -> Foc.Engine.eval_ground eng a (parse_t src))
    in
    (v, seconds, Foc.Engine.stats eng)
  in
  let emit family n d cache_mb seconds (st : Foc.Engine.stats) agree =
    record "E11"
      [
        ("class", S family); ("n", I n); ("d", I d); ("cache_mb", I cache_mb);
        ("seconds", F seconds); ("balls", I st.balls_computed);
        ("hits", I st.ball_cache_hits);
        ("evictions", I st.ball_cache_evictions);
        ("peak_entries", I st.ball_cache_peak_entries);
        ("peak_bytes", I st.ball_cache_peak_bytes);
        ("bfs_visited", I st.bfs_visited); ("agree", B agree);
      ];
    Printf.printf
      "%-16s %7d %3d %6d | %8.3fs %8d %8d %8d %7d %9d %10d %6b\n" family n d
      cache_mb seconds st.balls_computed st.ball_cache_hits
      st.ball_cache_evictions st.ball_cache_peak_entries
      st.ball_cache_peak_bytes st.bfs_visited agree
  in
  Printf.printf "%-16s %7s %3s %6s | %9s %8s %8s %8s %7s %9s %10s %6s\n"
    "class" "n" "d" "cache" "seconds" "balls" "hits" "evict" "peak#"
    "peakB" "bfs" "agree";
  List.iter
    (fun (family, generate) ->
      List.iter
        (fun n ->
          (* hubs make d>=2 balls cover most of the graph, so the sweep
             goes quadratic there; cap the hub-heavy family to keep the
             full run in minutes *)
          if not (family = "power-law-2" && n > 2000) then begin
            let a = Foc.Structure.of_graph (generate n) in
            List.iter
              (fun d ->
                let src = Printf.sprintf "#(x,y). dist(x,y) <= %d" d in
                let v, seconds, st = run a src 64 in
                emit family n d 64 seconds st true;
                (* the eviction-heavy configuration: keep only the most
                   recent ball; counts must not change *)
                if family = "power-law-2" then begin
                  let v0, seconds0, st0 = run a src 0 in
                  emit family n d 0 seconds0 st0 (v0 = v)
                end)
              dists
          end)
        sizes)
    families

(* ================= E12: phase-time decomposition ================= *)

let e12 () =
  header "E12  Observability: per-phase time decomposition across back-ends"
    "claim: the span tracer attributes wall time to \
     stratify/locality/decompose/cover/sweep phases, the sweep dominates \
     on every family (as the almost-linear bound predicts), and tracing \
     itself stays within noise of the untraced run — counts are \
     bit-identical either way";
  let families =
    [
      ( "tree",
        fun n -> Foc.Gen.random_tree (Random.State.make [| 121; n |]) n );
      ( "bounded-degree-3",
        fun n ->
          Foc.Gen.random_bounded_degree (Random.State.make [| 122; n |]) n 3 );
    ]
  in
  let sizes =
    if !smoke then [ 500 ] else if !quick then [ 2000 ] else [ 2000; 8000 ]
  in
  let backends =
    [
      ("direct", direct_engine);
      ("cover", cover_engine);
      ("hanf", hanf_engine);
    ]
  in
  let term = parse_t "#(x,y). (R(x) & !E(x,y) & B(y))" in
  let phases = [ "stratify"; "locality"; "decompose"; "cover"; "sweep" ] in
  Printf.printf "%-16s %7s %-8s | %9s %9s | %9s %9s %9s %9s %9s %6s\n" "class"
    "n" "engine" "untraced" "traced" "stratify" "locality" "decomp" "cover"
    "sweep" "agree";
  List.iter
    (fun (family, generate) ->
      List.iter
        (fun n ->
          let a = coloured_structure 12 (generate n) in
          List.iter
            (fun (name, make_engine) ->
              let v_off, t_off =
                time (fun () -> Foc.Engine.eval_ground (make_engine ()) a term)
              in
              Foc.Obs.Trace.clear ();
              Foc.Obs.Trace.enable ();
              let v_on, t_on =
                time (fun () -> Foc.Engine.eval_ground (make_engine ()) a term)
              in
              Foc.Obs.Trace.disable ();
              let totals = Foc.Obs.Trace.phase_totals () in
              Foc.Obs.Trace.clear ();
              (* sweep phase time is its total (it encloses the per-chunk
                 worker spans); the others use self-time so the nested
                 evaluation under a stratify span is not double-counted *)
              let seconds p =
                match List.assoc_opt p totals with
                | None -> 0.
                | Some (t : Foc.Obs.Trace.totals) ->
                    let ns = if p = "sweep" then t.total_ns else t.self_ns in
                    float_of_int ns /. 1e9
              in
              let agree = v_on = v_off in
              record "E12"
                ([
                   ("class", S family); ("n", I n); ("engine", S name);
                   ("seconds", F t_off); ("seconds_traced", F t_on);
                   ("agree", B agree);
                 ]
                @ List.map (fun p -> ("phase_" ^ p, F (seconds p))) phases);
              Printf.printf
                "%-16s %7d %-8s | %8.3fs %8.3fs | %8.3fs %8.3fs %8.3fs \
                 %8.3fs %8.3fs %6b\n"
                family n name t_off t_on (seconds "stratify")
                (seconds "locality") (seconds "decompose") (seconds "cover")
                (seconds "sweep") agree)
            backends)
        sizes)
    families

(* ========== E13: columnar kernel + conjunction planner ========== *)

let e13 () =
  header "E13  Columnar table kernel + conjunction planner"
    "claim: the planned relational baseline (anti-joins for conjunctive \
     negation, division for forall, greedy join order, flat int-array \
     tables) returns answers bit-identical to Naive while avoiding every \
     full n^k materialisation on conjunctive-negation workloads; the \
     dense fallback path of the localized engine runs on it";
  let agree_all = ref true in
  let note_agree tag ok =
    if not ok then begin
      agree_all := false;
      Printf.printf "!! DISAGREEMENT: %s\n" tag
    end
  in
  let classes =
    [ Foc.Classes.random_trees; Foc.Classes.grids; Foc.Classes.bounded_degree 3 ]
  in
  let sizes =
    if !smoke then [ 300 ]
    else if !quick then [ 500; 2000 ]
    else [ 500; 2000; 8000 ]
  in
  (* Naive enumerates all n^2 assignments of each query: the oracle up to
     this size *)
  let naive_cap = 500 in
  let q_a = parse_t "#(x,y). (R(x) & !E(x,y) & B(y))" in
  let q_dom = parse "exists x. forall y. (E(x,y) | x = y)" in
  let q_cov = parse "forall x. exists y. (E(x,y) & B(y))" in
  Printf.printf "%-16s %8s | %10s %10s %10s | %6s\n" "class" "n" "QA-plan"
    "dom-plan" "cov-plan" "naive";
  List.iter
    (fun (cls : Foc.Classes.t) ->
      List.iter
        (fun n ->
          let a = coloured_structure 13 (cls.generate ~seed:13 ~n) in
          let va, t_plan =
            time (fun () -> Foc.Relalg.term_value preds a [] q_a)
          in
          let vdom, t_dom =
            time (fun () -> Foc.Relalg.holds preds a [] q_dom)
          in
          let vcov, t_cov =
            time (fun () -> Foc.Relalg.holds preds a [] q_cov)
          in
          let checked = n <= naive_cap in
          if checked then
            note_agree
              (Printf.sprintf "%s n=%d planned vs Naive" cls.name n)
              (va = Foc.Naive.ground_term preds a q_a
              && vdom = Foc.Naive.sentence preds a q_dom
              && vcov = Foc.Naive.sentence preds a q_cov);
          List.iter
            (fun (q, t) ->
              record "E13"
                [ ("class", S cls.name); ("n", I n); ("query", S q);
                  ("seconds_planned", F t); ("agree", B !agree_all) ])
            [ ("QA", t_plan); ("domination", t_dom); ("coverage", t_cov) ];
          Printf.printf "%-16s %8d | %9.3fs %9.3fs %9.3fs | %6s\n" cls.name n
            t_plan t_dom t_cov
            (if checked then string_of_bool !agree_all else "(skip)"))
        sizes)
    classes;
  (* -- planner observability: conjunctive negation must never take the
     full n^k complement escape hatch -- *)
  let n_obs = if !smoke then 300 else 2000 in
  let cls = Foc.Classes.bounded_degree 3 in
  let a = coloured_structure 13 (cls.generate ~seed:13 ~n:n_obs) in
  Foc.Eval_obs.reset ();
  ignore (Foc.Relalg.term_value preds a [] q_a);
  ignore (Foc.Relalg.holds preds a [] q_dom);
  let planned_complements = Foc.Eval_obs.complements () in
  let planned_peak = Foc.Eval_obs.peak_table_bytes () in
  note_agree "planned run took a full n^k complement"
    (planned_complements = 0);
  note_agree "planned run compiled no anti-join"
    (Foc.Eval_obs.antijoins () > 0);
  note_agree "planned forall took no division" (Foc.Eval_obs.divisions () > 0);
  record "E13"
    ([ ("class", S cls.name); ("n", I n_obs); ("query", S "obs") ]
    @ List.map
        (fun (k, v) -> ("planned_" ^ k, I v))
        [ ("complements", planned_complements);
          ("complements_avoided", Foc.Eval_obs.complements_avoided ());
          ("antijoins", Foc.Eval_obs.antijoins ());
          ("divisions", Foc.Eval_obs.divisions ());
          ("joins", Foc.Eval_obs.joins ());
          ("rows_built", Foc.Eval_obs.rows_built ());
          ("peak_table_bytes", planned_peak) ]);
  Printf.printf "\n-- Eval_obs (%s, n=%d): planned complements=%d peakB=%d\n"
    cls.name n_obs planned_complements planned_peak;
  (* -- dense fallback: a width-5 kernel exceeds max_width, so the
     localized engine falls back to the planned baseline. The path count
     is the number of 4-edge walks, 1ᵀA⁴1: four sparse matrix-vector
     products over E -- *)
  let q_path = parse_t "#(v,w,x,y,z). (E(v,w) & E(w,x) & E(x,y) & E(y,z))" in
  let walks4 a =
    let e = Foc.Structure.rel a "E" in
    let step v =
      let w = Array.make (Array.length v) 0 in
      for r = 0 to e.nrows - 1 do
        let u = Foc.Tuple.Set.cell e r 0 in
        w.(u) <- w.(u) + v.(Foc.Tuple.Set.cell e r 1)
      done;
      w
    in
    let v = ref (Array.make (Foc.Structure.order a) 1) in
    for _ = 1 to 4 do v := step !v done;
    Array.fold_left ( + ) 0 !v
  in
  let dense_sizes =
    if !smoke then [ 200 ] else if !quick then [ 200; 500 ] else [ 200; 500; 1000 ]
  in
  Printf.printf "\n-- dense fallback sweep (erdos-renyi, avg degree 4, \
                 width-5 path count through the engine)\n";
  Printf.printf "%8s | %10s %6s %6s\n" "n" "engine" "fell" "1'A^4 1";
  List.iter
    (fun n ->
      let g =
        Foc.Gen.erdos_renyi (Random.State.make [| 113; n |]) n
          (4.0 /. float_of_int (n - 1))
      in
      let a = coloured_structure 14 g in
      let eng = direct_engine () in
      let v_eng, t_eng =
        time (fun () -> Foc.Engine.eval_ground eng a q_path)
      in
      let fell = (Foc.Engine.stats eng).fallbacks > 0 in
      let ok = v_eng = walks4 a in
      note_agree (Printf.sprintf "dense fallback n=%d" n) (fell && ok);
      record "E13"
        [ ("class", S "erdos-renyi-4"); ("n", I n); ("query", S "path5");
          ("seconds_planned", F t_eng); ("fallback", B fell); ("agree", B ok) ];
      Printf.printf "%8d | %9.3fs %6b %6b\n" n t_eng fell ok)
    dense_sizes;
  if not !agree_all then begin
    Printf.printf "E13: FAILED agreement/planner assertions\n";
    exit 1
  end;
  Printf.printf
    "(the gate: zero full complements, anti-joins and divisions taken, \
     answers = Naive / 1'A^4 1)\n"

(* ================= E14: query sessions ================= *)

let e14 () =
  header "E14  Query sessions: cross-query artifact caching + batching"
    "claim: a warm session answers a repeated sentence >= 2x faster than \
     a fresh engine per query (the compiled-sentence cache skips the \
     stratification sweeps; covers and ball contexts amortise across \
     queries), and a 32-sentence batch returns byte-identical results to \
     per-query fresh engines at every jobs setting";
  let agree_all = ref true in
  let note_agree tag ok =
    if not ok then begin
      agree_all := false;
      Printf.printf "!! DISAGREEMENT: %s\n" tag
    end
  in
  let ctr s name =
    Foc.Obs.Metrics.Counter.value
      (Foc.Obs.Metrics.counter (Foc.Session.metrics s) name)
  in
  let classes = [ Foc.Classes.random_trees; Foc.Classes.bounded_degree 3 ] in
  let sizes =
    if !smoke then [ 300 ]
    else if !quick then [ 1000 ]
    else [ 1000; 4000 ]
  in
  let reps = if !smoke then 3 else 8 in
  (* --- repeated query: warm session vs fresh engine per call --- *)
  let q_rep = parse "exists x. prime(#(y). (E(x,y) | E(y,x)))" in
  let q_cov = parse "exists x. (#(y). (E(x,y) & B(y))) >= 2" in
  let cfg backend = { Foc.Engine.default_config with backend; jobs = 1 } in
  Printf.printf
    "\n-- repeated query, warm session vs fresh engine (x%d, jobs=1)\n" reps;
  Printf.printf "%-16s %8s %-8s | %10s %10s %8s | %6s %6s\n" "class" "n"
    "backend" "fresh" "warm" "speedup" "hits" "agree";
  List.iter
    (fun (cls : Foc.Classes.t) ->
      List.iter
        (fun n ->
          List.iter
            (fun (bname, backend, q, hit_counter) ->
              let a = coloured_structure 14 (cls.generate ~seed:14 ~n) in
              let fresh_results = ref [] in
              let t_fresh =
                time_only (fun () ->
                    for _ = 1 to reps do
                      let eng = Foc.Engine.create ~config:(cfg backend) () in
                      fresh_results := Foc.Engine.check eng a q :: !fresh_results
                    done)
              in
              let s = Foc.Session.create ~config:(cfg backend) a in
              ignore (Foc.Session.check s q) (* pay compilation once *);
              let warm_results = ref [] in
              let t_warm =
                time_only (fun () ->
                    for _ = 1 to reps do
                      warm_results := Foc.Session.check s q :: !warm_results
                    done)
              in
              let agree = !warm_results = !fresh_results in
              let hits = ctr s hit_counter in
              let speedup = t_fresh /. Float.max t_warm 1e-9 in
              note_agree
                (Printf.sprintf "E14 repeated %s %s n=%d" cls.name bname n)
                agree;
              note_agree
                (Printf.sprintf "E14 %s %s n=%d: %s stayed zero" cls.name
                   bname n hit_counter)
                (hits > 0);
              note_agree
                (Printf.sprintf "E14 %s %s n=%d: no compiled hits" cls.name
                   bname n)
                (ctr s "session.compiled_hits" > 0);
              record "E14"
                [ ("workload", S "repeated"); ("class", S cls.name);
                  ("n", I n); ("backend", S bname); ("reps", I reps);
                  ("seconds_fresh", F t_fresh); ("seconds_warm", F t_warm);
                  ("speedup", F speedup); ("hits", I hits);
                  ("compiled_hits", I (ctr s "session.compiled_hits"));
                  ("agree", B agree) ];
              Printf.printf
                "%-16s %8d %-8s | %9.4fs %9.4fs %7.1fx | %6d %6b\n" cls.name
                n bname t_fresh t_warm speedup hits agree)
            [
              ("direct", Foc.Engine.Direct, q_rep, "session.ctx_hits");
              ("cover", Foc.Engine.Cover, q_cov, "session.cover_hits");
            ])
        sizes)
    classes;
  (* --- 32-sentence batch vs per-query fresh engines --- *)
  let bodies =
    [
      "(E(x,y) & B(y))";
      "(E(y,x) & R(y))";
      "(E(x,y) | E(y,x))";
      "(E(x,y) & G(y))";
    ]
  in
  let batch =
    List.concat_map
      (fun b ->
        [
          Printf.sprintf "exists x. (#(y). %s) >= 1" b;
          Printf.sprintf "exists x. (#(y). %s) >= 2" b;
          Printf.sprintf "exists x. (#(y). %s) >= 3" b;
          Printf.sprintf "exists x. (#(y). %s) >= 4" b;
          Printf.sprintf "exists x. prime(#(y). %s)" b;
          Printf.sprintf "#(x). prime(#(y). %s) >= 1" b;
          Printf.sprintf "forall x. (#(y). %s) <= 3" b;
          Printf.sprintf "#(x,y). %s >= 10" b;
        ])
      bodies
    |> List.map parse
  in
  Printf.printf "\n-- 32-sentence batch, one session vs fresh engines\n";
  Printf.printf "%-16s %8s %5s | %10s %10s %8s | %6s\n" "class" "n" "jobs"
    "fresh" "session" "speedup" "agree";
  List.iter
    (fun (cls : Foc.Classes.t) ->
      List.iter
        (fun n ->
          let a = coloured_structure 14 (cls.generate ~seed:14 ~n) in
          let expected = ref [] in
          let t_fresh =
            time_only (fun () ->
                expected :=
                  List.map
                    (fun q ->
                      let eng =
                        Foc.Engine.create ~config:(cfg Foc.Engine.Direct) ()
                      in
                      Foc.Engine.check eng a q)
                    batch)
          in
          List.iter
            (fun jobs ->
              let s = Foc.Session.create ~config:(cfg Foc.Engine.Direct) a in
              let got = ref [] in
              let t_sess =
                time_only (fun () ->
                    got := Foc.Session.run_batch ~jobs s batch)
              in
              let agree = !got = !expected in
              let speedup = t_fresh /. Float.max t_sess 1e-9 in
              note_agree
                (Printf.sprintf "E14 batch %s n=%d jobs=%d" cls.name n jobs)
                agree;
              record "E14"
                [ ("workload", S "batch32"); ("class", S cls.name);
                  ("n", I n); ("jobs", I jobs);
                  ("seconds_fresh", F t_fresh); ("seconds_session", F t_sess);
                  ("speedup", F speedup); ("agree", B agree) ];
              Printf.printf "%-16s %8d %5d | %9.4fs %9.4fs %7.1fx | %6b\n"
                cls.name n jobs t_fresh t_sess speedup agree)
            [ 1; 4 ])
        sizes)
    classes;
  if not !agree_all then begin
    Printf.printf "E14: FAILED agreement assertions\n";
    exit 1
  end;
  Printf.printf
    "(warm/fresh is the headline: the compiled cache removes the per-query \
     stratification sweep)\n"

(* ================= E15: the query-server daemon ================= *)

(* A closed-loop load generator against a real [foc serve] daemon on a
   unix socket: N reader clients re-issue checks as fast as answers come
   back while one writer client applies inserts/deletes. Every response
   carries the structure version it was evaluated on and the single
   writer makes versions dense, so afterwards the write log is replayed
   into one structure per version and every recorded answer is checked
   against a fresh sequential engine — the bit-identical-under-load gate
   (exit 1 on any disagreement). *)
let e15 () =
  header "E15  foc serve: concurrent clients, mixed read/write"
    "claim: the daemon multiplexes concurrent clients onto one shared \
     session with every answer bit-identical to a fresh sequential engine \
     at the version it was served; batching consecutive checks keeps \
     per-request latency flat as readers are added";
  let module P = Foc.Server_protocol in
  let agree_all = ref true in
  let note_agree tag ok =
    if not ok then begin
      agree_all := false;
      Printf.printf "!! DISAGREEMENT: %s\n" tag
    end
  in
  let n = if !smoke then 150 else if !quick then 400 else 800 in
  let reads_per_client = if !smoke then 25 else if !quick then 60 else 120 in
  let writes_total = if !smoke then 8 else if !quick then 24 else 48 in
  let client_counts =
    if !smoke then [ 8 ] else if !quick then [ 2; 8 ] else [ 1; 2; 4; 8 ]
  in
  let queries =
    [|
      "exists x. #(y). E(x,y) >= 2";
      "exists x. prime(#(y). (E(x,y) | E(y,x)))";
      "#(x,y). (E(x,y) & B(y)) >= 3";
      "forall x. #(y). E(y,x) <= 3";
      "exists x. (#(y). (E(x,y) & R(y))) >= 1";
      "#(x). prime(#(y). E(x,y)) >= 2";
    |]
  in
  let parsed = Array.map parse queries in
  let rng = Random.State.make [| 15; n |] in
  let a = coloured_structure 15 (Foc.Gen.random_bounded_degree rng n 3) in
  let fresh_check b phi =
    Foc.Engine.check
      (Foc.Engine.create
         ~config:{ Foc.Engine.default_config with jobs = 1 }
         ())
      b phi
  in
  let writes =
    List.init writes_total (fun i ->
        let u = ((7 * i) + 1) mod n and v = ((11 * i) + 3) mod n in
        (i mod 3 <> 2, [| u; v |]))
  in
  let percentile sorted q =
    let m = Array.length sorted in
    if m = 0 then 0.
    else sorted.(int_of_float (q *. float_of_int (m - 1)))
  in
  Printf.printf "\n-- closed-loop load, %d reads/client + %d writes (n=%d)\n"
    reads_per_client writes_total n;
  Printf.printf "%8s | %10s %10s | %9s %9s %9s | %6s\n" "clients" "wall"
    "req/s" "p50 ms" "p95 ms" "p99 ms" "agree";
  List.iter
    (fun clients ->
      let path =
        Printf.sprintf "/tmp/foc-e15-%d-%d.sock" (Unix.getpid ()) clients
      in
      let cfg =
        { (Foc.Server.default_config (Foc.Server.Unix_sock path)) with
          jobs = 2 }
      in
      let srv = Foc.Server.start cfg a in
      let errors = ref [] in
      let fail_m = Mutex.create () in
      let failed msg =
        Mutex.lock fail_m;
        errors := msg :: !errors;
        Mutex.unlock fail_m
      in
      let write_log = ref [] in
      let writer () =
        let c = Foc.Server_client.connect (Foc.Server.address srv) in
        List.iter
          (fun (ins, tup) ->
            let req = if ins then P.Insert ("E", tup) else P.Delete ("E", tup) in
            match Foc.Server_client.rpc c req with
            | P.Done v -> write_log := (v, ins, tup) :: !write_log
            | r -> failed ("write failed: " ^ P.response_line r))
          writes;
        Foc.Server_client.close c
      in
      let reader_results =
        Array.init clients (fun _ -> ref ([] : (int * int * bool) list))
      in
      let latencies = Array.init clients (fun _ -> ref ([] : float list)) in
      let reader k () =
        let c = Foc.Server_client.connect (Foc.Server.address srv) in
        for i = 0 to reads_per_client - 1 do
          let qi = (k + (3 * i)) mod Array.length queries in
          let resp, dt =
            time (fun () -> Foc.Server_client.rpc c (P.Check queries.(qi)))
          in
          latencies.(k) := dt :: !(latencies.(k));
          match resp with
          | P.Bool (b, v) -> reader_results.(k) := (qi, v, b) :: !(reader_results.(k))
          | r -> failed ("read failed: " ^ P.response_line r)
        done;
        Foc.Server_client.close c
      in
      let wall =
        time_only (fun () ->
            let threads =
              Thread.create writer ()
              :: List.init clients (fun k -> Thread.create (reader k) ())
            in
            List.iter Thread.join threads)
      in
      Foc.Server.stop srv;
      List.iter (fun m -> note_agree (Printf.sprintf "E15 c=%d %s" clients m) false)
        !errors;
      (* replay the write log and verify every (query, version, answer) *)
      let log = List.sort compare !write_log in
      note_agree
        (Printf.sprintf "E15 c=%d: all %d writes applied" clients writes_total)
        (List.length log = writes_total);
      let structures = Array.make (List.length log + 1) a in
      List.iteri
        (fun i (v, ins, tup) ->
          note_agree
            (Printf.sprintf "E15 c=%d: dense versions (%d at %d)" clients v
               (i + 1))
            (v = i + 1);
          structures.(i + 1) <-
            (if ins then Foc.Structure.add_tuples structures.(i) "E" [ tup ]
             else Foc.Structure.remove_tuples structures.(i) "E" [ tup ]))
        log;
      let expected = Hashtbl.create 64 in
      let total_reads = ref 0 in
      Array.iter
        (fun out ->
          List.iter
            (fun (qi, v, got) ->
              incr total_reads;
              let want =
                match Hashtbl.find_opt expected (qi, v) with
                | Some w -> w
                | None ->
                    let w = fresh_check structures.(v) parsed.(qi) in
                    Hashtbl.add expected (qi, v) w;
                    w
              in
              if got <> want then
                note_agree
                  (Printf.sprintf "E15 c=%d: q%d at version %d" clients qi v)
                  false)
            !out)
        reader_results;
      note_agree
        (Printf.sprintf "E15 c=%d: every read answered" clients)
        (!total_reads = clients * reads_per_client);
      let lat =
        Array.of_list (List.concat_map (fun l -> !l) (Array.to_list latencies))
      in
      Array.sort compare lat;
      let reqs = !total_reads + List.length log in
      let rps = float_of_int reqs /. Float.max wall 1e-9 in
      let p50 = percentile lat 0.50 *. 1e3
      and p95 = percentile lat 0.95 *. 1e3
      and p99 = percentile lat 0.99 *. 1e3 in
      record "E15"
        [ ("class", S "bounded_degree_3"); ("n", I n);
          ("clients", I clients); ("reads_per_client", I reads_per_client);
          ("writes", I writes_total); ("seconds", F wall);
          ("requests_per_second", F rps); ("p50_ms", F p50);
          ("p95_ms", F p95); ("p99_ms", F p99); ("agree", B !agree_all) ];
      Printf.printf "%8d | %9.3fs %10.0f | %9.2f %9.2f %9.2f | %6b\n" clients
        wall rps p50 p95 p99 !agree_all)
    client_counts;
  if not !agree_all then begin
    Printf.printf "E15: FAILED agreement assertions\n";
    exit 1
  end;
  Printf.printf
    "(the gate: every answer re-checked offline against a fresh sequential \
     engine at its exact version)\n"

(* ========== E16: statistics-driven adaptive planning ========== *)

let e16 () =
  header "E16  Statistics-driven adaptive planning on skewed data"
    "claim: per-column equi-depth histograms catch the hub values that \
     break the uniform-domain independence model, flipping the greedy \
     join order away from a hub-squared blow-up (with a measured \
     wall-clock win); without statistics, the Eval_obs feedback loop \
     observes the blow-up and re-plans the second run; all runs \
     return the same count, bit-identical to Naive on a small instance, \
     and incrementally-maintained statistics stay equal to recollection \
     from scratch";
  let agree_all = ref true in
  let note_agree tag ok =
    if not ok then begin
      agree_all := false;
      Printf.printf "!! DISAGREEMENT: %s\n" tag
    end
  in
  (* Hub-skewed instance over domain [0, n): A(x,y) has m edges whose
     y-column is 80% the hub 0 (Zipf-ish tail on the rest), B(y,z) has k
     edges with the same skew on y and a distinct z per row, C(x,z) is a
     uniform random function on the same x-range as A, S(x) selects s
     sources. The conjunction

       S(x) & A(x,y) & C(x,z) & B(y,z)

     looks best joined S-A-B-C under the uniform 1/n model (B is the
     smaller relation), but A.y and B.y are correlated through the hub,
     so that order materialises ~0.64*s*k rows; the histogram-aware
     planner sees the hub product in eq_sel(A.y, B.y) and joins C first,
     keeping the prefix at ~s rows. *)
  let skew_structure ~seed n =
    let rng = Random.State.make [| 16; seed; n |] in
    let m = n / 2 and k = n / 4 in
    let s = max 8 (n / 200) in
    let tail = max 1 (min 999 (n - 1)) in
    let skew_y j =
      (* planted witnesses: the first 50 B rows keep y = 0 so the final
         count is comfortably nonzero *)
      if j < 50 || Random.State.float rng 1.0 < 0.8 then 0
      else 1 + Random.State.int rng tail
    in
    let a_edges = List.init m (fun i -> [| i + 1; skew_y (50 + i) |]) in
    let b_edges = List.init k (fun j -> [| skew_y j; j |]) in
    let c_edges =
      List.init m (fun i ->
          [| i + 1; (if i < 50 then i else Random.State.int rng n) |])
    in
    let sources = List.init s (fun i ->
        [| (if i < 50 then i + 1 else 1 + Random.State.int rng m) |])
    in
    let sg =
      Foc.Signature.of_list [ ("S", 1); ("A", 2); ("B", 2); ("C", 2) ]
    in
    Foc.Structure.create sg ~order:n
      [ ("S", sources); ("A", a_edges); ("B", b_edges); ("C", c_edges) ]
  in
  let phi =
    Foc.Ast.And
      ( Foc.Ast.And
          ( Foc.Ast.And
              (Foc.Ast.Rel ("S", [| "x" |]), Foc.Ast.Rel ("A", [| "x"; "y" |])),
            Foc.Ast.Rel ("C", [| "x"; "z" |]) ),
        Foc.Ast.Rel ("B", [| "y"; "z" |]) )
  in
  let fvars = [ "x"; "y"; "z" ] in
  let n = if !smoke then 4_000 else if !quick then 10_000 else 40_000 in
  let a = skew_structure ~seed:1 n in
  (* -- stats-off (uniform model) vs stats-on (histograms): the plan flip *)
  let orders () =
    List.map (fun (p : Foc.Eval_obs.plan_record) -> p.order)
      (Foc.Eval_obs.plans_since 0)
  in
  Foc.Eval_obs.reset ();
  let ctx_off = Foc.Relalg.make_ctx ~buckets:0 () in
  let v_off, t_off = time (fun () -> Foc.Relalg.count ~ctx:ctx_off preds a fvars phi) in
  let rows_off = Foc.Eval_obs.rows_built () in
  let act_off = Foc.Eval_obs.actual_rows () in
  let orders_off = orders () in
  Foc.Eval_obs.reset ();
  let ctx_on = Foc.Relalg.make_ctx () in
  let v_on, t_on = time (fun () -> Foc.Relalg.count ~ctx:ctx_on preds a fvars phi) in
  let rows_on = Foc.Eval_obs.rows_built () in
  let orders_on = orders () in
  let est_on = Foc.Eval_obs.est_rows () and act_on = Foc.Eval_obs.actual_rows () in
  let last l = List.nth l (List.length l - 1) in
  note_agree "stats-on disagrees with stats-off" (v_on = v_off);
  note_agree "no plan recorded" (orders_off <> [] && orders_on <> []);
  note_agree "histograms did not flip the join order"
    (orders_off = [] || orders_on = [] || last orders_off <> last orders_on);
  (* join output rows, not total rows built: base-table materialisation
     is identical on both sides and would drown the signal at small n *)
  note_agree "stats-on plan joined more rows than the uniform plan"
    (act_on * 10 < act_off);
  (* -- adaptive feedback: same uniform ctx, second run must re-plan -- *)
  Foc.Eval_obs.reset ();
  let ctx_ad = Foc.Relalg.make_ctx ~buckets:0 () in
  let v_ad1, t_ad1 = time (fun () -> Foc.Relalg.count ~ctx:ctx_ad preds a fvars phi) in
  let v_ad2, t_ad2 = time (fun () -> Foc.Relalg.count ~ctx:ctx_ad preds a fvars phi) in
  let replans = Foc.Eval_obs.replans () in
  let err = Foc.Eval_obs.err_max_x100 () in
  note_agree "adaptive runs disagree" (v_ad1 = v_off && v_ad2 = v_off);
  note_agree "feedback loop never re-planned" (replans > 0);
  note_agree "no estimation error was observed" (err > 800);
  (* -- ground truth: Naive on a small instance -- *)
  let small = skew_structure ~seed:2 60 in
  let v_small =
    Foc.Relalg.count ~ctx:(Foc.Relalg.make_ctx ()) preds small
      fvars phi
  in
  let v_naive =
    Foc.Naive.ground_term preds small (Foc.Ast.Count (fvars, phi))
  in
  note_agree "small instance vs Naive" (v_small = v_naive);
  (* -- incremental statistics = recollection from scratch -- *)
  let st = Foc.Stats.collect ~buckets:64 a in
  let rng = Random.State.make [| 16; 99 |] in
  let cur = ref a in
  for _ = 1 to 200 do
    let rel = if Random.State.bool rng then "A" else "B" in
    let tup = [| Random.State.int rng n; Random.State.int rng n |] in
    let ins = Random.State.bool rng in
    let changed =
      if ins then not (Foc.Structure.mem !cur rel tup)
      else Foc.Structure.mem !cur rel tup
    in
    cur :=
      (if ins then Foc.Structure.add_tuples !cur rel [ tup ]
       else Foc.Structure.remove_tuples !cur rel [ tup ]);
    if changed then
      if ins then Foc.Stats.insert st rel tup else Foc.Stats.delete st rel tup
  done;
  note_agree "incremental stats drifted from scratch recollection"
    (Foc.Stats.equal st (Foc.Stats.collect ~buckets:64 !cur));
  record "E16"
    [ ("class", S "hub-skew"); ("n", I n); ("query", S "SACB");
      ("count", I v_on); ("seconds_stats", F t_on);
      ("seconds_uniform", F t_off); ("speedup", F (t_off /. t_on));
      ("rows_built_uniform", I rows_off); ("rows_built_stats", I rows_on);
      ("join_rows_uniform", I act_off); ("join_rows_stats", I act_on);
      ("est_rows", I est_on); ("actual_rows", I act_on);
      ("seconds_adaptive_run1", F t_ad1); ("seconds_adaptive_run2", F t_ad2);
      ("replans", I replans); ("err_max_x100", I err);
      ("agree", B !agree_all) ];
  Printf.printf "%8s | %10s %10s %8s | %10s %10s | %7s %6s\n" "n" "uniform"
    "stats" "speedup" "adapt-r1" "adapt-r2" "replans" "agree";
  Printf.printf "%8d | %9.3fs %9.3fs %7.1fx | %9.3fs %9.3fs | %7d %6b\n" n
    t_off t_on (t_off /. t_on) t_ad1 t_ad2 replans !agree_all;
  Printf.printf
    "   rows built: uniform=%d stats=%d | planner err_max=%.1fx | count=%d\n"
    rows_off rows_on (float_of_int err /. 100.) v_on;
  if not !agree_all then begin
    Printf.printf "E16: FAILED agreement/planner assertions\n";
    exit 1
  end;
  Printf.printf
    "(the gate: histogram plan != uniform plan, >=10x fewer rows built, \
     adaptive re-plan fired, all counts bit-identical)\n"

(* ========== E17: request-scoped observability overhead ========== *)

(* The E15 load shape run twice against identical daemons: once plain,
   once with the full observability stack on — per-request timing
   breakdowns, a (deliberately always-firing) slow-query log to a
   rotating file, span tracing into bounded rings with a Chrome export on
   shutdown. Both runs are replay-verified against fresh sequential
   engines, the (query, version) → answer maps must be bit-identical
   across runs, every timing breakdown must sum to at most its own
   total, and the wall-clock ratio is recorded as the overhead. *)
let e17 () =
  header "E17  Request observability: overhead and bit-identity under load"
    "claim: per-request scopes, slow-query logging and bounded-ring \
     tracing never change an answer and cost little; every timing \
     breakdown is a decomposition of its request's wall time";
  let module P = Foc.Server_protocol in
  let agree_all = ref true in
  let note tag ok =
    if not ok then begin
      agree_all := false;
      Printf.printf "!! E17: %s\n" tag
    end
  in
  let n = if !smoke then 150 else if !quick then 300 else 600 in
  let reads_per_client = if !smoke then 20 else if !quick then 40 else 80 in
  let writes_total = if !smoke then 6 else if !quick then 12 else 24 in
  let clients = 4 in
  let queries =
    [|
      "exists x. #(y). E(x,y) >= 2";
      "exists x. prime(#(y). (E(x,y) | E(y,x)))";
      "#(x,y). (E(x,y) & B(y)) >= 3";
      "forall x. #(y). E(y,x) <= 3";
      "#(v,w,x,y). (E(v,w) & E(w,x) & E(x,y)) >= 1";
      "#(x). prime(#(y). E(x,y)) >= 2";
    |]
  in
  let parsed = Array.map parse queries in
  let rng = Random.State.make [| 17; n |] in
  let a = coloured_structure 17 (Foc.Gen.random_bounded_degree rng n 3) in
  let fresh_check b phi =
    Foc.Engine.check
      (Foc.Engine.create
         ~config:{ Foc.Engine.default_config with jobs = 1 }
         ())
      b phi
  in
  let writes =
    List.init writes_total (fun i ->
        let u = ((7 * i) + 1) mod n and v = ((11 * i) + 3) mod n in
        (i mod 3 <> 2, [| u; v |]))
  in
  let timing_ok = ref true in
  let timing_note tag ok =
    if not ok then begin
      timing_ok := false;
      agree_all := false;
      Printf.printf "!! E17 timing: %s\n" tag
    end
  in
  (* one full E15-style closed loop; [observed] turns the whole stack on *)
  let run_load label observed =
    let path =
      Printf.sprintf "/tmp/foc-e17-%d-%s.sock" (Unix.getpid ()) label
    in
    let slow_path =
      if observed then Some (Filename.temp_file "foc_e17_slow" ".log")
      else None
    in
    let trace_path =
      if observed then Some (Filename.temp_file "foc_e17_trace" ".json")
      else None
    in
    let cfg =
      {
        (Foc.Server.default_config (Foc.Server.Unix_sock path)) with
        jobs = 2;
        slow_ms = (if observed then 1e-6 else 0.);
        slow_log = slow_path;
        trace_file = trace_path;
        trace_cap = (if observed then Some 4096 else None);
      }
    in
    let srv = Foc.Server.start cfg a in
    let errors = ref [] in
    let fail_m = Mutex.create () in
    let failed msg =
      Mutex.lock fail_m;
      errors := msg :: !errors;
      Mutex.unlock fail_m
    in
    let write_log = ref [] in
    let writer () =
      let c = Foc.Server_client.connect (Foc.Server.address srv) in
      List.iter
        (fun (ins, tup) ->
          let req =
            if ins then P.Insert ("E", tup) else P.Delete ("E", tup)
          in
          match Foc.Server_client.rpc c req with
          | P.Done v -> write_log := (v, ins, tup) :: !write_log
          | r -> failed ("write failed: " ^ P.response_line r))
        writes;
      Foc.Server_client.close c
    in
    let reader_results =
      Array.init clients (fun _ -> ref ([] : (int * int * bool) list))
    in
    let reader k () =
      let c = Foc.Server_client.connect (Foc.Server.address srv) in
      for i = 0 to reads_per_client - 1 do
        let qi = (k + (3 * i)) mod Array.length queries in
        let (meta, resp), dt =
          time (fun () ->
              Foc.Server_client.rpc_full ~timing:observed c
                (P.Check queries.(qi)))
        in
        (match (observed, meta.P.rtiming) with
        | true, Some tm ->
            let phases =
              tm.P.queue_ns + tm.P.batch_wait_ns + tm.P.artifact_ns
              + tm.P.plan_ns + tm.P.eval_ns + tm.P.write_ns
            in
            if not (phases <= tm.P.total_ns) then
              failed
                (Printf.sprintf "phases %d exceed total %d" phases
                   tm.P.total_ns);
            (* the server's total is measured inside the client's wall
               time; allow generous scheduling slack *)
            if not (float_of_int tm.P.total_ns <= (dt *. 1e9) +. 1e7) then
              failed
                (Printf.sprintf "total %d ns exceeds client wall %.0f ns"
                   tm.P.total_ns (dt *. 1e9))
        | true, None -> failed "timing requested but absent"
        | false, Some _ -> failed "unsolicited timing breakdown"
        | false, None -> ());
        match resp with
        | P.Bool (b, v) ->
            reader_results.(k) := (qi, v, b) :: !(reader_results.(k))
        | r -> failed ("read failed: " ^ P.response_line r)
      done;
      Foc.Server_client.close c
    in
    let wall =
      time_only (fun () ->
          let threads =
            Thread.create writer ()
            :: List.init clients (fun k -> Thread.create (reader k) ())
          in
          List.iter Thread.join threads)
    in
    Foc.Server.stop srv;
    List.iter
      (fun m -> timing_note (Printf.sprintf "%s: %s" label m) false)
      !errors;
    (* the observability side-channels must actually have fired *)
    (match slow_path with
    | Some p ->
        let lines = In_channel.with_open_text p In_channel.input_lines in
        note
          (Printf.sprintf "%s: slow log captured slow queries" label)
          (List.exists
             (fun l ->
               String.length l >= 14 && String.sub l 0 14 = "msg=slow_query")
             lines);
        Sys.remove p
    | None -> ());
    (match trace_path with
    | Some p ->
        let contents =
          In_channel.with_open_bin p In_channel.input_all
        in
        note
          (Printf.sprintf "%s: trace export parses" label)
          (match Foc.Obs.Json.parse contents with
          | Ok (Foc.Obs.Json.List _) -> true
          | _ -> false);
        Sys.remove p
    | None -> ());
    (* replay the write log; verify every read against a fresh engine *)
    let log = List.sort compare !write_log in
    note
      (Printf.sprintf "%s: all %d writes applied" label writes_total)
      (List.length log = writes_total);
    let structures = Array.make (List.length log + 1) a in
    List.iteri
      (fun i (v, ins, tup) ->
        note
          (Printf.sprintf "%s: dense versions (%d at %d)" label v (i + 1))
          (v = i + 1);
        structures.(i + 1) <-
          (if ins then Foc.Structure.add_tuples structures.(i) "E" [ tup ]
           else Foc.Structure.remove_tuples structures.(i) "E" [ tup ]))
      log;
    let answers = Hashtbl.create 64 in
    let expected = Hashtbl.create 64 in
    let total_reads = ref 0 in
    Array.iter
      (fun out ->
        List.iter
          (fun (qi, v, got) ->
            incr total_reads;
            Hashtbl.replace answers (qi, v) got;
            let want =
              match Hashtbl.find_opt expected (qi, v) with
              | Some w -> w
              | None ->
                  let w = fresh_check structures.(v) parsed.(qi) in
                  Hashtbl.add expected (qi, v) w;
                  w
            in
            if got <> want then
              note (Printf.sprintf "%s: q%d at version %d" label qi v) false)
          !out)
      reader_results;
    note
      (Printf.sprintf "%s: every read answered" label)
      (!total_reads = clients * reads_per_client);
    (wall, answers, !total_reads + List.length log)
  in
  Printf.printf "\n-- %d readers x %d + %d writes (n=%d), plain vs observed\n"
    clients reads_per_client writes_total n;
  let wall_off, ans_off, reqs_off = run_load "off" false in
  let wall_on, ans_on, reqs_on = run_load "on" true in
  (* bit-identity across the two runs on every shared (query, version) *)
  let shared = ref 0 in
  Hashtbl.iter
    (fun key b_on ->
      match Hashtbl.find_opt ans_off key with
      | Some b_off ->
          incr shared;
          if b_on <> b_off then
            note
              (Printf.sprintf "answers diverge at q%d version %d" (fst key)
                 (snd key))
              false
      | None -> ())
    ans_on;
  note "runs share comparable (query, version) pairs" (!shared > 0);
  let rps_off = float_of_int reqs_off /. Float.max wall_off 1e-9 in
  let rps_on = float_of_int reqs_on /. Float.max wall_on 1e-9 in
  let overhead = wall_on /. Float.max wall_off 1e-9 in
  (* scheduling noise on a loaded CI box dwarfs the real cost; only a
     gross regression (2x) fails the gate *)
  note
    (Printf.sprintf "observability overhead %.2fx within bound" overhead)
    (overhead <= 2.0);
  record "E17"
    [ ("class", S "bounded_degree_3"); ("n", I n); ("clients", I clients);
      ("reads_per_client", I reads_per_client); ("writes", I writes_total);
      ("seconds_off", F wall_off); ("seconds_on", F wall_on);
      ("requests_per_second_off", F rps_off);
      ("requests_per_second_on", F rps_on); ("overhead_ratio", F overhead);
      ("shared_answers", I !shared); ("timing_sound", B !timing_ok);
      ("agree", B !agree_all) ];
  Printf.printf "%8s | %10s %10s | %10s %10s | %8s %6s\n" "" "wall off"
    "wall on" "req/s off" "req/s on" "overhead" "agree";
  Printf.printf "%8s | %9.3fs %9.3fs | %10.0f %10.0f | %7.2fx %6b\n" ""
    wall_off wall_on rps_off rps_on overhead !agree_all;
  if not !agree_all then begin
    Printf.printf "E17: FAILED observability assertions\n";
    exit 1
  end;
  Printf.printf
    "(the gate: both runs replay-verified, answers bit-identical across \
     runs, every breakdown sums within its total, slow log + trace export \
     fired)\n"

(* ============ E18: persistent store — snapshot cold start ============ *)

let e18 () =
  header "E18  Persistent store: snapshot cold start vs full rebuild"
    "claim: loading a prepared-structure snapshot (+WAL replay) is >=5x \
     faster than rebuilding covers, Hanf partitions and statistics from \
     the raw structure, and every post-load answer is bit-identical to a \
     fresh engine";
  let agree_all = ref true in
  let note tag ok =
    if not ok then begin
      agree_all := false;
      Printf.printf "!! E18: %s\n" tag
    end
  in
  let sizes =
    if !smoke then [ 500 ]
    else if !quick then [ 1000; 4000 ]
    else [ 1000; 4000; 16000 ]
  in
  let radii = [ 1; 2 ] in
  let queries =
    [|
      "exists x. #(y). E(x,y) >= 2";
      "exists x. prime(#(y). (E(x,y) | E(y,x)))";
      "#(x,y). (E(x,y) & B(y)) >= 3";
      "forall x. #(y). E(y,x) <= 3";
    |]
  in
  let parsed = Array.map parse queries in
  let config = { Foc.Engine.default_config with jobs = 1 } in
  let fresh_check b phi = Foc.Engine.check (Foc.Engine.create ~config ()) b phi in
  let writes_total = if !smoke then 6 else 12 in
  let last_speedup = ref infinity in
  Printf.printf "%8s | %10s %10s %8s | %10s %8s | %6s\n" "n" "rebuild"
    "load" "speedup" "load+wal" "replayed" "agree";
  List.iter
    (fun n ->
      let rng = Random.State.make [| 18; n |] in
      let a = coloured_structure 18 (Foc.Gen.random_bounded_degree rng n 3) in
      let dir = Filename.temp_file "foc_e18" ".store" in
      Sys.remove dir;
      (* the cold-rebuild baseline: a fresh session building every
         base-structure artifact the snapshot will carry *)
      let rebuild () =
        let s = Foc.Session.create ~config a in
        Foc.Session.prewarm ~radii s;
        s
      in
      ignore (Foc.Session.save (rebuild ()) ~dir ~version:0);
      let load () =
        match Foc.Session.load ~config ~dir () with
        | Ok l -> l
        | Error e ->
            note (Printf.sprintf "n=%d: load failed: %s" n e) false;
            exit 1
      in
      (* rebuild and load alternate over five pairs, so a slow stretch of
         the machine cannot land on one side only and decide the gate *)
      let loaded, rebuild_s, load_s = median_pairs 5 rebuild load in
      note
        (Printf.sprintf "n=%d: clean snapshot load" n)
        (loaded.Foc.Session.snapshot_version = 0
        && loaded.Foc.Session.wal_replayed = 0
        && not loaded.Foc.Session.wal_torn);
      (* every post-load answer replay-verified against a fresh engine *)
      Array.iteri
        (fun i phi ->
          if Foc.Session.check loaded.Foc.Session.session phi
             <> fresh_check a phi
          then note (Printf.sprintf "n=%d: q%d post-load" n i) false)
        parsed;
      (* append writes to the snapshot's WAL out-of-band (what a serving
         daemon does between checkpoints) and reload: replay goes through
         the live §9.2 invalidation path and must land on the updated
         structure *)
      let writes =
        List.init writes_total (fun i ->
            let u = ((7 * i) + 1) mod n and v = ((11 * i) + 3) mod n in
            (i mod 3 <> 2, [| u; v |]))
      in
      let w = Foc.Wal.append_to (Foc.Store.wal_path ~dir ~version:0) in
      List.iter
        (fun (ins, tup) -> Foc.Wal.append w ~insert:ins ~rel:"E" ~tuple:tup)
        writes;
      Foc.Wal.close w;
      let reloaded, wal_s = time load in
      note
        (Printf.sprintf "n=%d: WAL fully replayed" n)
        (reloaded.Foc.Session.wal_replayed = writes_total
        && reloaded.Foc.Session.version = writes_total
        && not reloaded.Foc.Session.wal_torn);
      let b =
        List.fold_left
          (fun acc (ins, tup) ->
            if ins then Foc.Structure.add_tuples acc "E" [ tup ]
            else Foc.Structure.remove_tuples acc "E" [ tup ])
          a writes
      in
      Array.iteri
        (fun i phi ->
          if Foc.Session.check reloaded.Foc.Session.session phi
             <> fresh_check b phi
          then note (Printf.sprintf "n=%d: q%d post-WAL-replay" n i) false)
        parsed;
      let speedup = rebuild_s /. Float.max load_s 1e-9 in
      last_speedup := speedup;
      record "E18"
        [ ("class", S "bounded_degree_3"); ("n", I n);
          ("radii", S (String.concat "," (List.map string_of_int radii)));
          ("rebuild_seconds", F rebuild_s); ("load_seconds", F load_s);
          ("speedup", F speedup); ("load_wal_seconds", F wal_s);
          ("wal_replayed", I writes_total); ("agree", B !agree_all) ];
      Printf.printf "%8d | %9.3fs %9.3fs %7.1fx | %9.3fs %8d | %6b\n" n
        rebuild_s load_s speedup wal_s writes_total !agree_all;
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
    sizes;
  note
    (Printf.sprintf "cold-start speedup %.1fx >= 5x at the largest size"
       !last_speedup)
    (!last_speedup >= 5.0);
  if not !agree_all then begin
    Printf.printf "E18: FAILED persistence assertions\n";
    exit 1
  end;
  Printf.printf
    "(the gate: every post-load and post-WAL-replay answer bit-identical \
     to a fresh engine; snapshot load >=5x faster than the rebuild at the \
     largest size)\n"

let e19 () =
  header "E19  Constant-delay enumeration: TTFR and inter-answer delay"
    "claim: a streaming cursor reaches its first answer >=5x faster than \
     materialising the full answer set on output-heavy queries, its p95 \
     inter-answer delay stays flat as the output grows, and draining the \
     cursor is bit-identical (content and order) to Relalg.query";
  let agree_all = ref true in
  let note tag ok =
    if not ok then begin
      agree_all := false;
      Printf.printf "!! E19: %s\n" tag
    end
  in
  let config = { Foc.Engine.default_config with jobs = 1 } in
  let percentile sorted p =
    let n = Array.length sorted in
    if n = 0 then 0.
    else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))
  in
  (* one measured case: materialise via Relalg (the reference and the
     TTFR baseline — with materialisation the first row is only available
     once the whole answer set is), then drain a fresh cursor recording
     time-to-first-row and every inter-answer gap *)
  let run_case ~tag ~cls ~n ~head ~body a =
    let q = Foc.Query.make ~head_vars:head ~head_terms:[] (parse body) in
    let reference, mat_s = time (fun () -> Foc.Relalg.query preds a q) in
    let eng = Foc.Engine.create ~config () in
    let t_open = Foc.Obs.Clock.now_ns () in
    let cur = Foc.Engine.enumerate eng a q in
    let delays = ref [] in
    let streamed = ref [] in
    let nrows = ref 0 in
    let ttfr = ref 0. in
    let rec drain t_prev =
      match cur.Foc.Enum.next () with
      | None -> ()
      | Some row ->
          let t = Foc.Obs.Clock.now_ns () in
          if !nrows = 0 then ttfr := float_of_int (t - t_open) /. 1e9
          else delays := float_of_int (t - t_prev) /. 1e9 :: !delays;
          incr nrows;
          streamed := row :: !streamed;
          drain t
    in
    let (), total_s = time (fun () -> drain t_open) in
    cur.Foc.Enum.close ();
    (* the agreement gate: bit-identical content AND order *)
    note
      (Printf.sprintf "%s n=%d: streamed <> materialised" tag n)
      (List.rev !streamed = reference);
    let delays = Array.of_list !delays in
    Array.sort compare delays;
    let p50 = percentile delays 0.50 and p95 = percentile delays 0.95 in
    let speedup = mat_s /. Float.max !ttfr 1e-9 in
    record "E19"
      [ ("workload", S tag); ("class", S cls); ("n", I n);
        ("rows", I !nrows); ("producer", S cur.Foc.Enum.producer);
        ("materialise_seconds", F mat_s); ("ttfr_seconds", F !ttfr);
        ("ttfr_speedup", F speedup); ("drain_seconds", F total_s);
        ("delay_p50_us", F (p50 *. 1e6)); ("delay_p95_us", F (p95 *. 1e6));
        ("agree", B !agree_all) ];
    Printf.printf
      "%-5s %8d | %8d rows %-6s | %9.4fs %9.6fs %7.1fx | %7.2fus %7.2fus\n"
      tag n !nrows cur.Foc.Enum.producer mat_s !ttfr speedup (p50 *. 1e6)
      (p95 *. 1e6);
    speedup
  in
  Printf.printf "%-5s %8s | %8s      %-6s | %10s %10s %7s | %8s %8s\n" "load"
    "n" "output" "prod" "mat" "ttfr" "speedup" "p50" "p95";
  (* path: E(x,y) & E(y,z) — output linear in n, preprocessing dominated
     by sorting the edge tables; delay must stay flat as n grows *)
  let path_sizes =
    if !smoke then [ 2000 ]
    else if !quick then [ 4000; 10000 ]
    else [ 10000; 20000; 40000 ]
  in
  List.iter
    (fun n ->
      let a = coloured_structure 19 (Foc.Gen.path n) in
      ignore
        (run_case ~tag:"path" ~cls:"path" ~n ~head:[ "x"; "y"; "z" ]
           ~body:"E(x,y) & E(y,z)" a))
    path_sizes;
  (* star: E(x,y) & E(x,z) on a hub with m leaves — ~m^2 answers from an
     m-edge structure, the output-heavy regime where streaming must win
     on time-to-first-row by roughly the output size *)
  let star_sizes =
    if !smoke then [ 200 ] else if !quick then [ 200; 400 ] else [ 200; 400; 600 ]
  in
  let last_speedup = ref infinity in
  List.iter
    (fun m ->
      let a = coloured_structure 19 (Foc.Gen.star m) in
      last_speedup :=
        run_case ~tag:"star" ~cls:"star" ~n:m ~head:[ "x"; "y"; "z" ]
          ~body:"E(x,y) & E(x,z)" a)
    star_sizes;
  note
    (Printf.sprintf "star TTFR speedup %.1fx >= 5x at the largest size"
       !last_speedup)
    (!last_speedup >= 5.0);
  if not !agree_all then begin
    Printf.printf "E19: FAILED enumeration assertions\n";
    exit 1
  end;
  Printf.printf
    "(the gate: every drained cursor bit-identical to Relalg.query, and \
     first-row latency >=5x below materialisation on the star workload at \
     the largest size)\n"

(* ================= Bechamel micro-benchmarks ================= *)

let micro_suite () =
  let open Bechamel in
  let rng = Random.State.make [| 77 |] in
  let tree = Foc.Gen.random_tree rng 5000 in
  let a = coloured_structure 77 tree in
  let term = parse_t "#(y). (E(x,y) & B(y))" in
  let cl =
    match
      Foc.Decompose.unary_count ~r:1 ~vars:[ "x"; "y" ] (parse "E(x,y) & B(y)")
    with
    | Some cl -> cl
    | None -> failwith "decomposition failed"
  in
  let tests =
    [
      Test.make ~name:"ball(r=2) on tree"
        (Staged.stage (fun () ->
             ignore (Foc.Bfs.ball_tbl tree ~centres:[ 2500 ] ~radius:2)));
      Test.make ~name:"cover(r=2) on 5k tree"
        (Staged.stage (fun () -> ignore (Foc.Cover.make tree ~r:2)));
      Test.make ~name:"decompose degree term (E4)"
        (Staged.stage (fun () ->
             ignore
               (Foc.Decompose.unary_count ~r:1 ~vars:[ "x"; "y" ]
                  (parse "E(x,y) & B(y)"))));
      Test.make ~name:"unary sweep direct 5k (E3)"
        (Staged.stage (fun () ->
             let ctx = Foc.Pattern_count.make_ctx preds a ~r:1 in
             ignore Foc.Clterm.(eval_unary (direct ctx) cl)));
      Test.make ~name:"relalg term_counts 5k"
        (Staged.stage (fun () -> ignore (Foc.Relalg.term_counts preds a term)));
    ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) () in
    let results = Benchmark.all cfg [ instance ] test in
    let ols =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
        instance results
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "%-34s %12.0f ns/op\n" name est
        | _ -> Printf.printf "%-34s (no estimate)\n" name)
      ols
  in
  Printf.printf "\n==== Bechamel micro-benchmarks ====\n";
  List.iter benchmark tests

(* ================= driver ================= *)

let () =
  Array.iteri
    (fun i arg ->
      match arg with
      | "--quick" -> quick := true
      | "--smoke" ->
          smoke := true;
          quick := true
      | "--micro" -> micro := true
      | "--only" when i + 1 < Array.length Sys.argv ->
          only := Some Sys.argv.(i + 1)
      | "--json" when i + 1 < Array.length Sys.argv ->
          json_file := Some Sys.argv.(i + 1)
      | "--merge" -> merge := true
      | _ -> ())
    Sys.argv;
  Printf.printf
    "foc benchmark harness -- Grohe & Schweikardt, PODS 2018 (see \
     EXPERIMENTS.md)\n";
  let experiments =
    [
      ("E1", e1);
      ("E2", e2);
      ("E3", e3);
      ("E4", e4);
      ("E5", e5);
      ("E6", e6);
      ("E7", e7);
      ("E8", e8);
      ("E9", e9);
      ("E10", e10);
      ("E11", e11);
      ("E12", e12);
      ("E13", e13);
      ("E14", e14);
      ("E15", e15);
      ("E16", e16);
      ("E17", e17);
      ("E18", e18);
      ("E19", e19);
    ]
  in
  if !micro then micro_suite ()
  else List.iter (fun (id, f) -> if should_run id then f ()) experiments;
  match !json_file with
  | None -> ()
  | Some path ->
      let ran =
        if !micro then []
        else List.filter (fun (id, _) -> should_run id) experiments |> List.map fst
      in
      write_json ~ran path
