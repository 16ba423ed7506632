open Foc_logic
open Foc_local
module Structure = Foc_data.Structure

type backend =
  | Direct
  | Cover
  | Splitter of { max_rounds : int; small : int }
  | Hanf

type config = {
  preds : Pred.collection;
  backend : backend;
  max_width : int;
  max_blocks : int;
  allow_fallback : bool;
  jobs : int;
  ball_cache_mb : int;
  trace_file : string option;
  stats_buckets : int;
  adaptive : bool;
}

let default_config =
  {
    preds = Pred.standard;
    backend = Direct;
    max_width = 4;
    max_blocks = 4096;
    allow_fallback = true;
    jobs = Foc_par.default_jobs ();
    ball_cache_mb = 64;
    trace_file = None;
    stats_buckets = 64;
    adaptive = true;
  }

type stats = {
  mutable materialised : int;
  mutable clterms_built : int;
  mutable basic_terms : int;
  mutable fallbacks : int;
  mutable covers_built : int;
  mutable removals : int;
  mutable balls_computed : int;
  mutable ball_cache_hits : int;
  mutable ball_cache_evictions : int;
  mutable ball_cache_peak_entries : int;
  mutable ball_cache_peak_bytes : int;
  mutable bfs_visited : int;
}

exception Outside_fragment of string

(* The engine's counters live in a {!Foc_obs.Metrics} registry (one per
   engine); the [stats] record above is kept as a read-only view built on
   demand, so existing callers keep working while new counters (and the
   sweep-duration histogram) are picked up by [Metrics.line]/[report]
   automatically. Handles are resolved once here — the increment path is a
   plain int store, same cost as the old mutable record fields. *)
type handles = {
  registry : Foc_obs.Metrics.t;
  materialised : Foc_obs.Metrics.Counter.t;
  clterms_built : Foc_obs.Metrics.Counter.t;
  basic_terms : Foc_obs.Metrics.Counter.t;
  fallbacks : Foc_obs.Metrics.Counter.t;
  covers_built : Foc_obs.Metrics.Counter.t;
  removals : Foc_obs.Metrics.Counter.t;
  balls_computed : Foc_obs.Metrics.Counter.t;
  ball_cache_hits : Foc_obs.Metrics.Counter.t;
  ball_cache_evictions : Foc_obs.Metrics.Counter.t;
  ball_cache_peak_entries : Foc_obs.Metrics.Gauge.t;
  ball_cache_peak_bytes : Foc_obs.Metrics.Gauge.t;
  bfs_visited : Foc_obs.Metrics.Counter.t;
  sweep_ns : Foc_obs.Metrics.Histogram.t;
}

let make_handles () =
  let r = Foc_obs.Metrics.create () in
  let c = Foc_obs.Metrics.counter r and g = Foc_obs.Metrics.gauge r in
  {
    registry = r;
    materialised = c "engine.materialised";
    clterms_built = c "engine.clterms_built";
    basic_terms = c "engine.basic_terms";
    fallbacks = c "engine.fallbacks";
    covers_built = c "engine.covers_built";
    removals = c "engine.removals";
    balls_computed = c "ball.computed";
    ball_cache_hits = c "ball.cache_hits";
    ball_cache_evictions = c "ball.cache_evictions";
    ball_cache_peak_entries = g "ball.cache_peak_entries";
    ball_cache_peak_bytes = g "ball.cache_peak_bytes";
    bfs_visited = c "bfs.visited";
    sweep_ns = Foc_obs.Metrics.histogram r "sweep.ns";
  }

(* Artifact injection points: a session layer (or the per-call memo
   installed by default, see [with_artifacts]) supplies expensive
   per-structure artifacts — neighbourhood covers, ball-cache contexts,
   Hanf class partitions — instead of the engine rebuilding them at every
   cl-term call site. All three artifacts are result-neutral: covers and
   class partitions are deterministic functions of the structure, and ball
   caches only trade memory for time. *)
type artifacts = {
  art_cover : Foc_data.Structure.t -> rc:int -> Foc_graph.Cover.t;
  art_ctx : (Foc_data.Structure.t -> r:int -> Pattern_count.ctx) option;
  art_hanf :
    (Foc_data.Structure.t -> tr:int -> (string * int list) list) option;
  art_stats : (Foc_data.Structure.t -> Foc_stats.Stats.t) option;
}

type t = {
  cfg : config;
  m : handles;
  mutable fresh : int;
  mutable art : artifacts option;
  mutable rctx : Foc_eval.Relalg.ctx option;
}

let create ?(config = default_config) () =
  (match config.trace_file with
  | Some _ -> Foc_obs.Trace.enable ()
  | None -> ());
  { cfg = config; m = make_handles (); fresh = 0; art = None; rctx = None }

let fork t =
  { t with cfg = { t.cfg with trace_file = None }; fresh = 0; art = None;
    rctx = None }

(* The planning context handed to every baseline fallback. Statistics
   resolve through the [art_stats] hook when a session installed one;
   otherwise a two-entry physical-identity memo amortises one
   [Stats.collect] per structure (the per-atom row-count guard inside
   [Relalg] falls back to scanning whenever a memoised entry went stale,
   so a mutated structure can cost plan quality, never correctness). *)
let relalg_ctx t =
  match t.rctx with
  | Some c -> c
  | None ->
      let memo = ref [] in
      let stats_for a =
        match t.art with
        | Some { art_stats = Some f; _ } -> f a
        | _ -> (
            match List.assq_opt a !memo with
            | Some s -> s
            | None ->
                let s = Foc_stats.Stats.collect ~buckets:t.cfg.stats_buckets a in
                (memo :=
                   (a, s) :: (match !memo with e :: _ -> [ e ] | [] -> []));
                s)
      in
      let c =
        Foc_eval.Relalg.make_ctx ~stats_for ~buckets:t.cfg.stats_buckets
          ~adaptive:t.cfg.adaptive ()
      in
      t.rctx <- Some c;
      c

let set_artifacts t art = t.art <- art

let stats t =
  let cv = Foc_obs.Metrics.Counter.value
  and gv = Foc_obs.Metrics.Gauge.value in
  {
    materialised = cv t.m.materialised;
    clterms_built = cv t.m.clterms_built;
    basic_terms = cv t.m.basic_terms;
    fallbacks = cv t.m.fallbacks;
    covers_built = cv t.m.covers_built;
    removals = cv t.m.removals;
    balls_computed = cv t.m.balls_computed;
    ball_cache_hits = cv t.m.ball_cache_hits;
    ball_cache_evictions = cv t.m.ball_cache_evictions;
    ball_cache_peak_entries = gv t.m.ball_cache_peak_entries;
    ball_cache_peak_bytes = gv t.m.ball_cache_peak_bytes;
    bfs_visited = cv t.m.bfs_visited;
  }

let metrics t = t.m.registry
let stats_line t = Foc_obs.Metrics.line t.m.registry
let config t = t.cfg

let fresh_rel t prefix =
  t.fresh <- t.fresh + 1;
  Printf.sprintf "$%s%d" prefix t.fresh

let fallback t what =
  if not t.cfg.allow_fallback then raise (Outside_fragment what);
  Foc_obs.Log.info (fun () -> "engine: fallback to baseline: " ^ what);
  Foc_obs.Metrics.Counter.inc t.m.fallbacks

let cache_bytes t = t.cfg.ball_cache_mb * 1024 * 1024

(* Basic-term sweep: span + duration histogram. The clock is read only when
   a sink wants it; otherwise this is just [f ()]. *)
let sweep t f =
  if Foc_obs.timing_enabled () then begin
    let t0 = Foc_obs.Clock.now_ns () in
    let v = Foc_obs.span ~name:"sweep" f in
    Foc_obs.Metrics.Histogram.observe t.m.sweep_ns
      (Foc_obs.Clock.now_ns () - t0);
    v
  end
  else f ()

let maybe_export t =
  match t.cfg.trace_file with
  | Some path when Foc_obs.Trace.enabled () ->
      Foc_obs.Trace.export_chrome path
  | _ -> ()

(* ---------------- cl-term evaluation back-ends ---------------- *)

(* the context radius only matters through the 2r+1 threshold of basic
   terms; all basics produced by one decomposition share it *)
let cl_radius cl =
  let rec go = function
    | Clterm.Const _ -> 0
    | Clterm.Ground b | Clterm.Unary b -> b.Clterm.radius
    | Clterm.Add (s, u) | Clterm.Mul (s, u) -> max (go s) (go u)
  in
  go cl

let count_cl t cl =
  Foc_obs.Metrics.Counter.inc t.m.clterms_built;
  Foc_obs.Metrics.Counter.add t.m.basic_terms (Clterm.basic_count cl)

(* raw builders: [engine.covers_built] counts *actual* constructions, so
   artifact-cache hit rates are visible as the gap between call sites
   reached and covers built *)
let make_cover t a ~rc =
  let cover =
    Foc_obs.span ~name:"cover" (fun () ->
        Foc_graph.Cover.make (Structure.gaifman a) ~r:rc)
  in
  Foc_obs.Metrics.Counter.inc t.m.covers_built;
  cover

let make_pattern_ctx t a ~r =
  Foc_obs.Metrics.with_current t.m.registry (fun () ->
      Pattern_count.make_ctx ~cache_bytes:(cache_bytes t) t.cfg.preds a ~r)

let cover_for t a ~rc =
  match t.art with
  | Some art -> art.art_cover a ~rc
  | None -> make_cover t a ~rc

let ctx_for t a ~r =
  match t.art with
  | Some { art_ctx = Some f; _ } -> f a ~r
  | _ -> make_pattern_ctx t a ~r

let hanf_classes_for t a =
  match t.art with
  | Some { art_hanf = Some f; _ } -> Some (fun ~r -> f a ~tr:r)
  | _ -> None

(* Per-call artifact memo, installed around every public entry point when
   no session supplied its own artifacts: covers are keyed by (Gaifman
   graph, radius) — by *physical* graph identity, so the stratification
   strata (which share the graph, see {!Foc_data.Structure.expand}) share
   covers too — and contexts by (structure, radius). This in particular
   deduplicates the cover the Direct and Cover paths used to rebuild at
   both cl-term call sites of a single evaluation. *)
let default_artifacts t =
  let covers = ref [] in
  let ctxs = ref [] in
  let tbl_for cell key =
    match List.assq_opt key !cell with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 4 in
        cell := (key, tbl) :: !cell;
        tbl
  in
  let memo tbl key build =
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None ->
        let v = build () in
        Hashtbl.add tbl key v;
        v
  in
  {
    art_cover =
      (fun a ~rc ->
        memo (tbl_for covers (Structure.gaifman a)) rc (fun () ->
            make_cover t a ~rc));
    art_ctx =
      Some
        (fun a ~r -> memo (tbl_for ctxs a) r (fun () -> make_pattern_ctx t a ~r));
    art_hanf = None;
    art_stats = None;
  }

(* Every public entry point also puts the engine's registry in scope, so
   the ball contexts and the splitter recursion below record into it
   directly — on worker domains too, since {!Foc_par} tasks inherit it. *)
let with_artifacts t f =
  Foc_obs.Metrics.with_current t.m.registry (fun () ->
      match t.art with
      | Some _ -> f () (* a session or an enclosing entry point provides them *)
      | None ->
          t.art <- Some (default_artifacts t);
          Fun.protect ~finally:(fun () -> t.art <- None) f)

let eval_cl_ground t a cl =
  count_cl t cl;
  let jobs = t.cfg.jobs in
  match t.cfg.backend with
  | Direct ->
      sweep t (fun () ->
          Clterm.eval_ground ~jobs (ctx_for t a ~r:(cl_radius cl)) cl)
  | Cover ->
      let cover = cover_for t a ~rc:(Cover_term.required_cover_radius cl) in
      sweep t (fun () ->
          Cover_term.eval_ground ~jobs ~cache_bytes:(cache_bytes t)
            t.cfg.preds a cover cl)
  | Splitter { max_rounds; small } ->
      (* the removal recursion mutates shared state; it stays sequential *)
      sweep t (fun () ->
          Splitter_backend.eval_ground t.cfg.preds a ~max_rounds ~small cl)
  | Hanf ->
      sweep t (fun () ->
          Hanf_backend.eval_ground ~jobs ~cache_bytes:(cache_bytes t)
            ?classes_for:(hanf_classes_for t a) t.cfg.preds a cl)

let eval_cl_unary t a cl =
  count_cl t cl;
  let jobs = t.cfg.jobs in
  match t.cfg.backend with
  | Direct ->
      sweep t (fun () ->
          Clterm.eval_unary ~jobs (ctx_for t a ~r:(cl_radius cl)) cl)
  | Cover ->
      let cover = cover_for t a ~rc:(Cover_term.required_cover_radius cl) in
      sweep t (fun () ->
          Cover_term.eval_unary ~jobs ~cache_bytes:(cache_bytes t)
            t.cfg.preds a cover cl)
  | Splitter { max_rounds; small } ->
      sweep t (fun () ->
          Splitter_backend.eval_unary t.cfg.preds a ~max_rounds ~small cl)
  | Hanf ->
      sweep t (fun () ->
          Hanf_backend.eval_unary ~jobs ~cache_bytes:(cache_bytes t)
            ?classes_for:(hanf_classes_for t a) t.cfg.preds a cl)

(* ---------------- stratification (Theorem 6.10) ---------------- *)

(* Replace every numerical condition P(t̄) with ≤ 1 free variable by a fresh
   unary/0-ary relation atom whose extension is computed recursively — the
   interpretations ι_i(R) of the decomposition sequence, evaluated innermost
   first. *)
let rec elim_preds t a (phi : Ast.formula) : Structure.t * Ast.formula =
  match phi with
  | Ast.True | Ast.False | Ast.Eq _ | Ast.Rel _ | Ast.Dist _ -> (a, phi)
  | Ast.Neg f ->
      let a, f = elim_preds t a f in
      (a, Ast.Neg f)
  | Ast.Or (f, g) ->
      let a, f = elim_preds t a f in
      let a, g = elim_preds t a g in
      (a, Ast.Or (f, g))
  | Ast.And (f, g) ->
      let a, f = elim_preds t a f in
      let a, g = elim_preds t a g in
      (a, Ast.And (f, g))
  | Ast.Exists (y, f) ->
      let a, f = elim_preds t a f in
      (a, Ast.Exists (y, f))
  | Ast.Forall (y, f) ->
      let a, f = elim_preds t a f in
      (a, Ast.Forall (y, f))
  | Ast.Pred (p, ts) -> begin
      let free =
        List.fold_left
          (fun acc u -> Var.Set.union acc (Ast.free_term u))
          Var.Set.empty ts
      in
      match Var.Set.elements free with
      | [] ->
          let values =
            Array.of_list (List.map (fun u -> eval_ground_term t a u) ts)
          in
          let truth = Pred.holds t.cfg.preds p values in
          let name = fresh_rel t "P" in
          Foc_obs.Metrics.Counter.inc t.m.materialised;
          let a' =
            Structure.expand a [ (name, 0, if truth then [ [||] ] else []) ]
          in
          (a', Ast.Rel (name, [||]))
      | [ x ] ->
          let vectors = List.map (fun u -> eval_unary_term t a x u) ts in
          let n = Structure.order a in
          let members = ref [] in
          for v = n - 1 downto 0 do
            let values =
              Array.of_list (List.map (fun vec -> vec.(v)) vectors)
            in
            if Pred.holds t.cfg.preds p values then members := [| v |] :: !members
          done;
          let name = fresh_rel t "P" in
          Foc_obs.Metrics.Counter.inc t.m.materialised;
          let a' = Structure.expand a [ (name, 1, !members) ] in
          (a', Ast.Rel (name, [| x |]))
      | _ ->
          raise
            (Outside_fragment
               "numerical predicate with two or more free variables (not \
                FOC1)")
    end

(* ---------------- counting terms ---------------- *)

and eval_ground_term t a (term : Ast.term) : int =
  match term with
  | Ast.Int i -> i
  | Ast.Add (s, u) -> eval_ground_term t a s + eval_ground_term t a u
  | Ast.Mul (s, u) -> eval_ground_term t a s * eval_ground_term t a u
  | Ast.Count (ys, theta) ->
      let a', theta' =
        Foc_obs.span ~name:"stratify" (fun () -> elim_preds t a theta)
      in
      eval_ground_count t a' ys theta'

(* certify locality and cl-decompose a Pred-free ground counting kernel;
   [None] means the baseline fallback (shared by direct evaluation and
   sentence compilation) *)
and localize_ground t ys theta =
  if List.length ys > t.cfg.max_width then None
  else
    match
      Foc_obs.span ~name:"locality" (fun () -> Locality.formula_radius theta)
    with
    | Locality.Local r ->
        Foc_obs.span ~name:"decompose" (fun () ->
            Decompose.ground_count ~max_blocks:t.cfg.max_blocks ~r ~vars:ys
              theta)
    | Locality.Nonlocal _ -> None

and run_ground_count t a ys theta = function
  | Some cl -> eval_cl_ground t a cl
  | None ->
      fallback t "ground counting kernel outside the guarded fragment";
      Foc_obs.span ~name:"fallback" (fun () ->
          Foc_eval.Relalg.count ~ctx:(relalg_ctx t) t.cfg.preds a ys theta)

and eval_ground_count t a ys theta =
  (* theta is Pred-free *)
  run_ground_count t a ys theta (localize_ground t ys theta)

and eval_unary_term t a x (term : Ast.term) : int array =
  let n = Structure.order a in
  match term with
  | Ast.Int i -> Array.make n i
  | Ast.Add (s, u) ->
      Array.map2 ( + ) (eval_unary_term t a x s) (eval_unary_term t a x u)
  | Ast.Mul (s, u) ->
      Array.map2 ( * ) (eval_unary_term t a x s) (eval_unary_term t a x u)
  | Ast.Count (ys, theta) ->
      let a', theta' =
        Foc_obs.span ~name:"stratify" (fun () -> elim_preds t a theta)
      in
      if not (Var.Set.mem x (Ast.free_formula theta')) then
        Array.make n (eval_ground_count t a' ys theta')
      else begin
        let localized =
          if 1 + List.length ys > t.cfg.max_width then None
          else
            match
              Foc_obs.span ~name:"locality" (fun () ->
                  Locality.formula_radius theta')
            with
            | Locality.Local r ->
                Foc_obs.span ~name:"decompose" (fun () ->
                    Decompose.unary_count ~max_blocks:t.cfg.max_blocks ~r
                      ~vars:(x :: ys) theta')
            | Locality.Nonlocal _ -> None
        in
        match localized with
        | Some cl -> eval_cl_unary t a' cl
        | None ->
            fallback t "unary counting kernel outside the guarded fragment";
            Foc_obs.span ~name:"fallback" (fun () ->
                let counts =
                  Foc_eval.Relalg.term_counts ~ctx:(relalg_ctx t) t.cfg.preds a'
                    (Ast.Count (ys, theta'))
                in
                Array.init n (fun v ->
                    Foc_eval.Counts.get counts (Var.Map.singleton x v)))
      end

(* ---------------- sentences ---------------- *)

let rec model_check t a (phi : Ast.formula) : bool =
  match phi with
  | Ast.True -> true
  | Ast.False -> false
  | Ast.Rel (r, [||]) -> Structure.mem a r [||]
  | Ast.Neg f -> not (model_check t a f)
  | Ast.And (f, g) -> model_check t a f && model_check t a g
  | Ast.Or (f, g) -> model_check t a f || model_check t a g
  | Ast.Forall (y, f) ->
      not (model_check t a (Ast.Exists (y, Ast.neg f)))
  | Ast.Exists _ ->
      let rec peel acc = function
        | Ast.Exists (y, f) -> peel (y :: acc) f
        | f -> (List.rev acc, f)
      in
      let ys, body = peel [] phi in
      (* ∃ȳ body ⟺ #ȳ.body ≥ 1, decided through the decomposition — the
         route the paper takes for basic local sentences (Theorem 6.8) *)
      eval_ground_count t a ys body >= 1
  | Ast.Eq _ | Ast.Rel _ | Ast.Dist _ ->
      invalid_arg "Engine.model_check: open formula"
  | Ast.Pred _ -> assert false (* eliminated by stratification *)

let check t a phi =
  if not (Var.Set.is_empty (Ast.free_formula phi)) then
    invalid_arg "Engine.check: not a sentence";
  with_artifacts t (fun () ->
      let a', phi' =
        Foc_obs.span ~name:"stratify" (fun () -> elim_preds t a phi)
      in
      let v = model_check t a' phi' in
      maybe_export t;
      v)

let eval_ground t a term =
  if not (Var.Set.is_empty (Ast.free_term term)) then
    invalid_arg "Engine.eval_ground: not a ground term";
  with_artifacts t (fun () ->
      let v = eval_ground_term t a term in
      maybe_export t;
      v)

let eval_unary t a x term =
  if not (Var.Set.subset (Ast.free_term term) (Var.Set.singleton x)) then
    invalid_arg "Engine.eval_unary: stray free variable";
  with_artifacts t (fun () ->
      let v = eval_unary_term t a x term in
      maybe_export t;
      v)

let holds_unary_inner t a x phi =
  let a', phi' =
    Foc_obs.span ~name:"stratify" (fun () -> elim_preds t a phi)
  in
  let localized =
    match
      Foc_obs.span ~name:"locality" (fun () -> Locality.formula_radius phi')
    with
    | Locality.Local r ->
        (* a unary cl-term with an empty counted tuple: the 0/1 indicator *)
        Foc_obs.span ~name:"decompose" (fun () ->
            Decompose.unary_count ~max_blocks:t.cfg.max_blocks ~r ~vars:[ x ]
              phi')
    | Locality.Nonlocal _ -> None
  in
  match localized with
  | Some cl -> Array.map (fun v -> v >= 1) (eval_cl_unary t a' cl)
  | None ->
      fallback t "unary formula outside the guarded fragment";
      Foc_obs.span ~name:"fallback" (fun () ->
          let n = Structure.order a' in
          let table = Foc_eval.Relalg.formula_table ~ctx:(relalg_ctx t) t.cfg.preds a' phi' in
          let out = Array.make n false in
          if Array.length (Foc_eval.Table.vars table) = 0 then begin
            let v = not (Foc_eval.Table.is_empty table) in
            Array.fill out 0 n v
          end
          else
            Foc_eval.Table.iter
              (Foc_eval.Table.align table [| x |])
              (fun row -> out.(row.(0)) <- true);
          out)

let holds_unary t a x phi =
  if not (Var.Set.subset (Ast.free_formula phi) (Var.Set.singleton x)) then
    invalid_arg "Engine.holds_unary: stray free variable";
  with_artifacts t (fun () ->
      let v = holds_unary_inner t a x phi in
      maybe_export t;
      v)

let check_tuple t a (q : Query.t) tuple =
  if Array.length tuple <> List.length q.head_vars then None
  else
    with_artifacts t (fun () ->
        let elim = Query.eliminate q in
        let bound = Query.bind_structure a elim tuple in
        let truth = check t bound elim.sentence in
        if not truth then Some (false, [||])
        else begin
          let values =
            Array.of_list
              (List.map (fun g -> eval_ground t bound g) elim.ground_terms)
          in
          Some (true, values)
        end)

(* Head-term evaluation for multi-variable heads, compiled once against the
   head column order: ground terms become constants, single-variable terms
   per-element vectors from the localized engine, and terms over several
   head variables a baseline counts reader. The returned closure maps a
   head-order row to the freshly-allocated values array — shared by
   [run_query] and [enumerate] so both produce identical values. *)
let head_values t a head (terms : Ast.term list) =
  let term_vector term =
    match Var.Set.elements (Ast.free_term term) with
    | [] -> `Const (eval_ground t a term)
    | [ x ] -> `Vec (x, eval_unary t a x term)
    | _ ->
        (* FOC1 allows head terms over several head variables (only
           predicate applications are restricted); evaluate them with
           the baseline counts, read via a row reader compiled once
           against the head column order *)
        `Counts
          (Foc_eval.Counts.row
             (Foc_eval.Relalg.term_counts ~ctx:(relalg_ctx t) t.cfg.preds a term)
             head)
  in
  let vectors = List.map term_vector terms in
  let index_of x =
    let rec go i = if Var.equal head.(i) x then i else go (i + 1) in
    go 0
  in
  fun row ->
    Array.of_list
      (List.map
         (function
           | `Const c -> c
           | `Vec (x, vec) -> vec.(row.(index_of x))
           | `Counts read -> read row)
         vectors)

let run_query_inner t a (q : Query.t) =
  let n = Structure.order a in
  match q.head_vars with
  | [] ->
      let truth = check t a q.body in
      if not truth then []
      else
        [ ([||], Array.of_list (List.map (eval_ground t a) q.head_terms)) ]
  | [ x ] ->
      let truths = holds_unary t a x q.body in
      let vectors = List.map (eval_unary t a x) q.head_terms in
      let rows = ref [] in
      for v = n - 1 downto 0 do
        if truths.(v) then
          rows :=
            ([| v |], Array.of_list (List.map (fun vec -> vec.(v)) vectors))
            :: !rows
      done;
      !rows
  | head_vars ->
      (* the paper's algorithm answers per-tuple queries (Theorem 5.5);
         enumerating all satisfying head tuples in general is its open
         problem (3) — candidates come from the baseline body table, term
         values from the localized per-variable vectors *)
      fallback t "query head with two or more variables";
      let table = Foc_eval.Relalg.formula_table ~ctx:(relalg_ctx t) t.cfg.preds a q.body in
      let head = Array.of_list head_vars in
      let missing =
        Array.to_list head
        |> List.filter (fun v ->
               not (Array.exists (Var.equal v) (Foc_eval.Table.vars table)))
        |> Array.of_list
      in
      let table = Foc_eval.Table.extend_full table n missing in
      let table = Foc_eval.Table.align table head in
      let values = head_values t a head q.head_terms in
      let out = ref [] in
      Foc_eval.Table.iter table (fun row ->
          out := (Array.copy row, values row) :: !out);
      (* Table.iter runs in ascending Tuple.compare order already *)
      List.rev !out

let run_query t a q =
  with_artifacts t (fun () ->
      let v = run_query_inner t a q in
      maybe_export t;
      v)

(* ---------------- answer enumeration ---------------- *)

(* A body is walkable when it is a conjunction of positive atoms
   (relations, equalities, distance atoms) — then each conjunct
   materialises to a small sorted table (linear-ish preprocessing) and
   [Enum.walk] enumerates the join lazily. [Query.make] already guarantees
   free(body) ⊆ head_vars, so the atoms are over head variables. *)
let conjunctive_atoms body =
  let rec go acc = function
    | Ast.True -> Some acc
    | Ast.And (f, g) -> ( match go acc f with Some acc -> go acc g | None -> None)
    | (Ast.Eq _ | Ast.Rel _ | Ast.Dist _) as atom -> Some (atom :: acc)
    | _ -> None
  in
  Option.map List.rev (go [] body)

let enumerate_inner t a ?limit ?after (q : Query.t) =
  let n = Structure.order a in
  match q.head_vars with
  | [] ->
      (* zero or one answer: the empty tuple *)
      Foc_eval.Enum.of_rows ?limit ?after ~producer:"ground"
        (run_query_inner t a q)
  | [ x ] ->
      (* the localized path: one linear preprocessing sweep (per-element
         truths and term vectors), then O(1) delay per answer — the
         Kazana–Segoufin shape for FOC1 heads *)
      let truths = holds_unary t a x q.body in
      let vectors = List.map (eval_unary t a x) q.head_terms in
      let start =
        match after with
        | None -> 0
        | Some key ->
            if Array.length key <> 1 then
              invalid_arg "Engine.enumerate: after arity";
            max 0 (key.(0) + 1)
      in
      let v = ref start in
      let gen () =
        while !v < n && not truths.(!v) do
          incr v
        done;
        if !v >= n then None
        else begin
          let u = !v in
          incr v;
          Some ([| u |], Array.of_list (List.map (fun vec -> vec.(u)) vectors))
        end
      in
      Foc_eval.Enum.make ?limit ~producer:"unary" ~next:gen
        ~close:(fun () -> ())
        ()
  | head_vars -> (
      let head = Array.of_list head_vars in
      let values = head_values t a head q.head_terms in
      match conjunctive_atoms q.body with
      | Some atoms ->
          (* per-conjunct tables (each a single atom: relation scan,
             identity table, or distance balls), then a backtracking
             leapfrog join with binary-search seeks — no output
             materialisation *)
          let tables =
            List.map
              (fun atom ->
                Foc_eval.Relalg.formula_table ~ctx:(relalg_ctx t) t.cfg.preds
                  a atom)
              atoms
          in
          Foc_eval.Enum.walk ?limit ?after ~values ~n ~head tables
      | None ->
          (* outside the walkable fragment: materialise the planned body
             table as [run_query] would and stream it *)
          fallback t "query head with two or more variables";
          let table =
            Foc_eval.Relalg.formula_table ~ctx:(relalg_ctx t) t.cfg.preds a
              q.body
          in
          let missing =
            Array.to_list head
            |> List.filter (fun v ->
                   not (Array.exists (Var.equal v) (Foc_eval.Table.vars table)))
            |> Array.of_list
          in
          let table = Foc_eval.Table.extend_full table n missing in
          let table = Foc_eval.Table.align table head in
          Foc_eval.Enum.of_table ?limit ?after ~values table)

let enumerate t a ?limit ?after q =
  with_artifacts t (fun () ->
      (* all preprocessing (artifact access included) happens before the
         cursor escapes; [next] only reads the prepared arrays/tables *)
      let c = enumerate_inner t a ?limit ?after q in
      maybe_export t;
      c)

(* ---------------- compiled sentences ---------------- *)

(* The per-sentence work of [check] split into a reusable prefix and a
   cheap suffix: compilation runs stratification (including all inner
   counting-term sweeps that materialise the fresh $P relations — the
   dominant amortizable cost), locality certification and
   cl-decomposition once, and stores the expanded structure plus a
   skeleton mirroring [model_check] exactly. Running the compiled form
   replays only the skeleton (short-circuiting ∧/∨/¬ like [model_check])
   with each quantifier block decided through its pre-decomposed cl-term
   — or the recorded baseline fallback. A compiled sentence is immutable
   and valid as long as the structure it was compiled against (and, for
   graph-radius artifacts, its Gaifman graph) is semantically unchanged;
   the session layer tracks that invalidation. *)
type cnode =
  | CBool of bool
  | CRel0 of string
  | CNeg of cnode
  | CAnd of cnode * cnode
  | COr of cnode * cnode
  | CCount of { ys : Var.t list; body : Ast.formula; cl : Clterm.t option }

type compiled = { expanded : Structure.t; root : cnode }

let compiled_structure c = c.expanded

let compile_sentence t a phi =
  if not (Var.Set.is_empty (Ast.free_formula phi)) then
    invalid_arg "Engine.compile_sentence: not a sentence";
  with_artifacts t (fun () ->
      let a', phi' =
        Foc_obs.span ~name:"stratify" (fun () -> elim_preds t a phi)
      in
      let rec comp phi =
        match phi with
        | Ast.True -> CBool true
        | Ast.False -> CBool false
        | Ast.Rel (r, [||]) -> CRel0 r
        | Ast.Neg f -> CNeg (comp f)
        | Ast.And (f, g) -> CAnd (comp f, comp g)
        | Ast.Or (f, g) -> COr (comp f, comp g)
        | Ast.Forall (y, f) -> CNeg (comp (Ast.Exists (y, Ast.neg f)))
        | Ast.Exists _ ->
            let rec peel acc = function
              | Ast.Exists (y, f) -> peel (y :: acc) f
              | f -> (List.rev acc, f)
            in
            let ys, body = peel [] phi in
            CCount { ys; body; cl = localize_ground t ys body }
        | Ast.Eq _ | Ast.Rel _ | Ast.Dist _ ->
            invalid_arg "Engine.compile_sentence: open formula"
        | Ast.Pred _ -> assert false (* eliminated by stratification *)
      in
      let v = { expanded = a'; root = comp phi' } in
      maybe_export t;
      v)

let run_sentence t comp =
  with_artifacts t (fun () ->
      let a = comp.expanded in
      let rec go = function
        | CBool b -> b
        | CRel0 r -> Structure.mem a r [||]
        | CNeg c -> not (go c)
        | CAnd (c, d) -> go c && go d
        | COr (c, d) -> go c || go d
        | CCount { ys; body; cl } -> run_ground_count t a ys body cl >= 1
      in
      let v = go comp.root in
      maybe_export t;
      v)
