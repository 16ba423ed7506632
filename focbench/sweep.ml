(* sweep-cold: a library user asking one cold question of a big sparse
   structure. Closed loop, one caller, no session: every evaluation runs
   on a fresh engine (jobs = 1), so covers, ball contexts and Hanf
   partitions are rebuilt per call. Each back-end runs at two sizes 4x
   apart, which gives its growth exponent. *)

open Util

type family = Tree | Bd3

let family_name = function Tree -> "tree" | Bd3 -> "bd3"

type backend_case = {
  bname : string;
  backend : Foc.Engine.backend;
  families : family list;
  small : int;
  large : int;
}

let cases =
  [
    { bname = "direct"; backend = Foc.Engine.Direct; families = [ Tree; Bd3 ];
      small = 8000; large = 32000 };
    { bname = "cover"; backend = Foc.Engine.Cover; families = [ Tree; Bd3 ];
      small = 500; large = 2000 };
    { bname = "splitter";
      backend = Foc.Engine.Splitter { max_rounds = 3; small = 64 };
      families = [ Tree ]; small = 500; large = 2000 };
    { bname = "hanf"; backend = Foc.Engine.Hanf; families = [ Bd3 ];
      small = 500; large = 2000 };
  ]

(* the cold questions: one ground counting term and one sentence with a
   nested numerical condition (stratification materialises it first) *)
let term_src = "#(x,y). (R(x) & !E(x,y) & B(y))"
let sentence_src = "exists x. (#(y). (E(x,y) & B(y))) >= 2"
let term = lazy (Foc.parse_term term_src)
let sentence = lazy (Foc.parse_formula sentence_src)

let generate ~seed family n =
  let rng = Random.State.make [| seed; n; (match family with Tree -> 1 | Bd3 -> 3) |] in
  let g =
    match family with
    | Tree -> Foc.Gen.random_tree rng n
    | Bd3 -> Foc.Gen.random_bounded_degree rng n 3
  in
  Foc.Db_gen.colored_digraph rng ~graph:g ~orient:`Both ~p_red:0.3 ~p_blue:0.4
    ~p_green:0.3

let instances =
  List.sort_uniq compare
    (List.concat_map
       (fun c -> List.concat_map (fun f -> [ (f, c.small); (f, c.large) ]) c.families)
       cases)

let build_one ~seed f n =
  let a = generate ~seed f n in
  Foc.Structure.prepare a;
  a

(* generate and prepare every structure of the sweep *)
let build_all ~seed = List.map (fun (f, n) -> ((f, n), build_one ~seed f n)) instances

let digest structures =
  let b = Buffer.create 4096 in
  List.iter
    (fun ((f, n), a) ->
      Printf.bprintf b "%s %d\n" (family_name f) n;
      List.iter
        (fun (r, _) ->
          Foc.Tuple.Set.iter
            (fun t -> Array.iter (fun v -> Printf.bprintf b "%d," v) t; Buffer.add_char b ';')
            (Foc.Structure.rel a r))
        (Foc.Signature.to_list (Foc.Structure.signature a)))
    structures;
  Digest.to_hex (Digest.string (Buffer.contents b))

let engine ?(jobs = 1) backend =
  Foc.Engine.create ~config:{ Foc.Engine.default_config with backend; jobs } ()

(* one cold evaluation: fresh engine, term then sentence; returns the
   answers, the wall time of each question and the engine *)
let cold ?jobs backend a =
  let e = engine ?jobs backend in
  let t0 = now () in
  let v = Foc.Engine.eval_ground e a (Lazy.force term) in
  let t1 = now () in
  let b = Foc.Engine.check e a (Lazy.force sentence) in
  ((v, b), (t1 -. t0, now () -. t1), e)

let both (t_term, t_sentence) = t_term +. t_sentence

type pass = {
  times : (string * family * int * (float * float)) list;
      (** back-end, family, n, seconds of the term and of the sentence *)
  wrong : int;
  evals : int;
  fallbacks : int;
  counters : Foc.Engine.stats list;
}

(* one pass over every (back-end, family, size), checked against Direct;
   [around] wraps each back-end's evaluations (the traced run reads phase
   spans per back-end through it) *)
let run_pass ?(around = fun _ f -> f ()) ~reference structures =
  let times = ref [] and wrong = ref 0 and evals = ref 0 and fallbacks = ref 0 in
  let counters = ref [] in
  List.iter
    (fun c ->
      around c.bname (fun () ->
          List.iter
            (fun f ->
              List.iter
                (fun n ->
                  let a = List.assoc (f, n) structures in
                  (* every evaluation starts from the same settled heap *)
                  Gc.full_major ();
                  let ans, dt, e =
                    Spans.time ("nd.engine." ^ c.bname) (fun () -> cold c.backend a)
                  in
                  incr evals;
                  if ans <> Hashtbl.find reference (f, n) then incr wrong;
                  fallbacks := !fallbacks + (Foc.Engine.stats e).fallbacks;
                  counters := Foc.Engine.stats e :: !counters;
                  times := (c.bname, f, n, dt) :: !times)
                [ c.small; c.large ])
            c.families))
    cases;
  { times = List.rev !times; wrong = !wrong; evals = !evals; fallbacks = !fallbacks;
    counters = !counters }

(* Direct's answers are the reference every back-end must reproduce *)
let reference_answers structures =
  let h = Hashtbl.create 16 in
  List.iter
    (fun (k, a) ->
      let ans, _, _ = cold Foc.Engine.Direct a in
      Hashtbl.replace h k ans)
    structures;
  h

(* wall seconds of back-end [b] at size [n], summed over its families *)
let backend_time pass b n =
  List.fold_left
    (fun acc (b', _, n', t) -> if b' = b && n' = n then acc +. both t else acc)
    0. pass.times

let setup_repeats = 9
let min_passes = 4

(* set-up timed [setup_repeats] times, one build alive at a time: each
   timed build is dropped before the next, and the last one is kept *)
let setup ~seed =
  let timed_build () =
    Gc.compact ();
    let t0 = now () in
    let s = build_all ~seed in
    (s, now () -. t0)
  in
  let times = List.init (setup_repeats - 1) (fun _ -> snd (timed_build ())) in
  let s, dt = timed_build () in
  (s, median (Array.of_list (dt :: times)))

(* One cold question (term or sentence) at a back-end's large size is one
   read: 12 per pass. Each read is its median over the passes, in ms;
   taking medians per question first keeps the mix fixed and damps a slow
   pass. *)
let large_ms passes =
  let large p =
    List.filter (fun (b, _, n, _) -> n = (List.find (fun c -> c.bname = b) cases).large) p.times
  in
  match List.map large passes with
  | [] -> []
  | first :: _ as per_pass ->
      let med i sel =
        interpolated_median
          (sorted_copy
             (Array.of_list (List.map (fun ts -> let _, _, _, t = List.nth ts i in sel t *. 1e3) per_pass)))
      in
      List.concat_map (fun sel -> List.mapi (fun i _ -> med i sel) first) [ fst; snd ]

let pass_wall p = List.fold_left (fun acc (_, _, _, t) -> acc +. both t) 0. p.times

let phases = [ "stratify"; "locality"; "decompose"; "cover"; "sweep" ]

(* per-layer probes on the large bd-3 structure, timed from outside:
   Gaifman graph, a radius-2 cover, Structure.induced over its
   kernel-bearing clusters, and the Hanf ball extraction and grouping *)
let layer_probes ~seed =
  let n_small = 1000 and n_large = 4000 and r = 2 in
  let timed f =
    let t0 = now () in
    let v = f () in
    (v, now () -. t0)
  in
  let induced_sum a c =
    let total = ref 0. in
    for i = 0 to Foc.Cover.cluster_count c - 1 do
      if Array.length (Foc.Cover.kernel c i) > 0 then begin
        let members = Array.to_list (Foc.Cover.cluster c i) in
        let _, dt = timed (fun () -> Foc.Structure.induced a members) in
        total := !total +. dt
      end
    done;
    !total
  in
  let probe n =
    let a = generate ~seed Bd3 n in
    let g, gaifman_s = timed (fun () -> Foc.Structure.gaifman a) in
    Foc.Structure.prepare a;
    let c, cover_s = timed (fun () -> Foc.Cover.make g ~r) in
    (a, c, gaifman_s, cover_s, induced_sum a c)
  in
  let _, _, _, _, induced_small = probe n_small in
  let a, c, gaifman_s, cover_s, induced_s = probe n_large in
  let weight = Foc.Cover.total_weight c in
  let (), extract_s =
    timed (fun () ->
        for v = 0 to Foc.Structure.order a - 1 do
          ignore (Foc.Ball_type.extract a ~centre:v ~r)
        done)
  in
  let classes, classes_s = timed (fun () -> Foc.Hanf.classes ~jobs:1 a ~r) in
  [ m "data.induced_s" "s" induced_s;
    m "data.induced_ns_per_member" "ns" (induced_s *. 1e9 /. float_of_int weight);
    m "data.induced_slope" "1"
      (slope ~n_small ~t_small:induced_small ~n_large ~t_large:induced_s);
    m "graph.gaifman_s" "s" gaifman_s;
    m "graph.cover_s" "s" cover_s;
    m "graph.cover_weight_per_n" "1" (float_of_int weight /. float_of_int n_large);
    m "graph.clusters" "count" (float_of_int (Foc.Cover.cluster_count c));
    m "bd.extract_s" "s" extract_s;
    m "bd.classes_s" "s" classes_s;
    m "bd.types" "count" (float_of_int (List.length classes)) ]

(* The traced run: one untraced pass (the per-back-end times, slopes and
   exact counters, and the baseline for the tracing overhead), one pass
   with the library's phase spans on, the layer probes, and Cover at its
   large size with every core against one. *)
let traced ~seed ~structures ~reference ~digest ~setup_s =
  let p0 = run_pass ~reference structures in
  let phase_totals = Hashtbl.create 32 in
  let around b f =
    Foc.Obs.Trace.clear ();
    Foc.Obs.Trace.enable ();
    Fun.protect f ~finally:Foc.Obs.Trace.disable;
    List.iter
      (fun (name, (t : Foc.Obs.Trace.totals)) ->
        (* sweep encloses its per-chunk worker spans: take its total; the
           others take self time so nested evaluation is not counted twice *)
        let ns = if name = "sweep" then t.total_ns else t.self_ns in
        Hashtbl.replace phase_totals (b, name) (float_of_int ns /. 1e9))
      (Foc.Obs.Trace.phase_totals ());
    Foc.Obs.Trace.clear ()
  in
  let p1 = run_pass ~around ~reference structures in
  let per_backend =
    List.concat_map
      (fun c ->
        let ts = backend_time p0 c.bname c.small and tl = backend_time p0 c.bname c.large in
        (m ("eval_s." ^ c.bname) "s" tl
         :: (if c.bname = "direct" then []
             else [ m ("slope." ^ c.bname) "1"
                      (slope ~n_small:c.small ~t_small:ts ~n_large:c.large ~t_large:tl) ]))
        @ List.map
            (fun ph ->
              m (Printf.sprintf "nd.phase_s.%s.%s" c.bname ph) "s"
                (Option.value ~default:0. (Hashtbl.find_opt phase_totals (c.bname, ph))))
            phases)
      cases
  in
  let counters =
    let sum f = float_of_int (List.fold_left (fun acc s -> acc + f s) 0 p0.counters) in
    let open Foc.Engine in
    [ m "local.balls_computed" "count" (sum (fun s -> s.balls_computed));
      m "local.bfs_visited" "count" (sum (fun s -> s.bfs_visited));
      m "local.ball_cache_hits" "count" (sum (fun s -> s.ball_cache_hits));
      m "nd.removals" "count" (sum (fun s -> s.removals));
      m "nd.fallbacks" "count" (sum (fun s -> s.fallbacks)) ]
  in
  (* the sizes the growth claim was first measured at, once per traced run
     (too slow for the timed window) *)
  let slopes_1k_4k =
    List.filter_map
      (fun c ->
        if c.bname = "direct" then None
        else
          let f = List.hd c.families in
          let t n = let _, dt, _ = cold c.backend (build_one ~seed f n) in both dt in
          let ts = t 1000 in
          let tl = t 4000 in
          Some (m ("slope_1k_4k." ^ c.bname) "1" (slope ~n_small:1000 ~t_small:ts ~n_large:4000 ~t_large:tl)))
      cases
  in
  let speedup =
    let a = List.assoc (Bd3, 2000) structures in
    let jobs = Foc.Par.recommended_jobs () in
    let _, t1, _ = cold ~jobs:1 Foc.Engine.Cover a in
    let _, tn, _ = cold ~jobs Foc.Engine.Cover a in
    both t1 /. both tn
  in
  let sorted = sorted_copy (Array.of_list (large_ms [ p0 ])) in
  let failed = p0.wrong + p1.wrong + p0.fallbacks + p1.fallbacks in
  let attempted = p0.evals + p1.evals in
  {
    attempted;
    failed;
    digest;
    metrics =
      per_backend @ slopes_1k_4k @ counters @ layer_probes ~seed
      @ [ m "par.cover_jobs_speedup" "x" speedup;
          m "obs.trace_overhead_frac" "1" ((pass_wall p1 /. pass_wall p0) -. 1.);
          m "read_samples" "count" (float_of_int (Array.length sorted));
          m "read_tail_pct" "%"
            (match tail sorted with Some (p, _) -> p *. 100. | None -> 100.);
          m "setup_s" "s" setup_s;
          m "error_rate" "1" (float_of_int failed /. float_of_int attempted) ];
  }

let run ~seed ~seconds ~traced:is_traced =
  let structures, setup_s = setup ~seed in
  let digest = digest structures in
  let reference = reference_answers structures in
  if is_traced then traced ~seed ~structures ~reference ~digest ~setup_s
  else begin
    reset_peak_rss ();
    let deadline = now () +. seconds in
    (* passes until the window closes, at least [min_passes] so the read
       count (12 per pass) stays in one band of the tail rule *)
    let rec loop acc =
      let acc = run_pass ~reference structures :: acc in
      if List.length acc >= min_passes && now () >= deadline then acc else loop acc
    in
    let passes = loop [] in
    let sorted = sorted_copy (Array.of_list (large_ms passes)) in
    let failed = List.fold_left (fun acc p -> acc + p.wrong + p.fallbacks) 0 passes in
    let attempted = List.fold_left (fun acc p -> acc + p.evals) 0 passes in
    let tail_ms =
      match tail sorted with Some (_, v) -> v | None -> sorted.(Array.length sorted - 1)
    in
    {
      attempted;
      failed;
      digest;
      metrics =
        [ m "setup_s" "s" setup_s;
          m "peak_rss_mb" "MiB" (peak_rss_mb None);
          m "read_p50_ms" "ms" (interpolated_median sorted);
          m "read_tail_ms" "ms" tail_ms ];
    }
  end
