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
   engine); the [stats] record above is a read-only view built on demand.
   The engine resolves the handles it increments itself once; what other
   layers record by name into the registry in scope — the artifact
   builders, the splitter recursion, ball contexts, Hanf refinement — is
   registered here so that it reads 0 rather than goes missing before
   its first record. *)
type handles = {
  registry : Foc_obs.Metrics.t;
  materialised : Foc_obs.Metrics.Counter.t;
  clterms_built : Foc_obs.Metrics.Counter.t;
  basic_terms : Foc_obs.Metrics.Counter.t;
  fallbacks : Foc_obs.Metrics.Counter.t;
  trace_dropped : Foc_obs.Metrics.Gauge.t;
}

let make_handles () =
  let r = Foc_obs.Metrics.create () in
  let c = Foc_obs.Metrics.counter r and g = Foc_obs.Metrics.gauge r in
  List.iter
    (fun name -> ignore (c name : Foc_obs.Metrics.Counter.t))
    [ "engine.covers_built"; "engine.hanf_partitions_built";
      "engine.removals"; "ball.computed"; "ball.cache_hits";
      "ball.cache_evictions"; "bfs.visited"; "hanf.elements";
      "hanf.canonicalised" ];
  List.iter
    (fun name -> ignore (g name : Foc_obs.Metrics.Gauge.t))
    [ "ball.cache_peak_entries"; "ball.cache_peak_bytes" ];
  {
    registry = r;
    materialised = c "engine.materialised";
    clterms_built = c "engine.clterms_built";
    basic_terms = c "engine.basic_terms";
    fallbacks = c "engine.fallbacks";
    trace_dropped = g "trace.dropped_events";
  }

(* ---------------- the compiled tree ---------------- *)

(* Every entry point compiles its expression into one tree (the
   syntactic half of the pipeline, no structure read) and runs it; {!Plan}
   prints the same tree. A kernel's route is decided at compile time, but
   it runs — and counts or raises a fallback — only once evaluation
   reaches it, so ∧/∨ still short-circuit. *)

type kernel = {
  ys : Var.t list;
  anchor : Var.t option;
  body : Ast.formula;
  route : (int * Clterm.t, string) result;
}

type term =
  | Const of int
  | Sum of term * term
  | Prod of term * term
  | Count of step list * kernel

and step = {
  name : string;
  var : Var.t option;
  pred : string;
  args : term list;
}

type shell =
  | Truth of bool
  | Rel0 of string
  | Not of shell
  | Both of shell * shell
  | Either of shell * shell
  | Exists of kernel

type body =
  | Sentence of (step list * shell)
  | Unary of (step list * kernel)
  | Wide
type query = { body : body; heads : term option list }

(* A compiled sentence is its shell over the structure its steps
   expanded: immutable, and valid as long as the structure it was compiled
   against (and, for graph-radius artifacts, its Gaifman graph) is
   semantically unchanged — the session layer tracks that invalidation. *)
type compiled = { expanded : Structure.t; root : shell }

(* [store] is where every artifact comes from: a session's or a worker's
   store the engine keeps, or — on a plain engine — the store [entry]
   opens for the duration of one call. *)
type t = {
  cfg : config;
  m : handles;
  mutable fresh : int;
  mutable store : compiled Artifact_store.t option;
  mutable rctx : Foc_eval.Relalg.ctx option;
}

let cache_bytes cfg = cfg.ball_cache_mb * 1024 * 1024

let new_store ?budget_mb cfg m =
  Artifact_store.create ?budget_mb ~registry:m.registry ~preds:cfg.preds
    ~jobs:cfg.jobs ~cache_bytes:(cache_bytes cfg) ()

let create ?(config = default_config) ?budget_mb () =
  (match config.trace_file with
  | Some _ -> Foc_obs.Trace.enable ()
  | None -> ());
  let m = make_handles () in
  let store =
    Option.map (fun mb -> new_store ~budget_mb:mb config m) budget_mb
  in
  { cfg = config; m; fresh = 0; store; rctx = None }

let fork t =
  {
    t with
    cfg = { t.cfg with trace_file = None };
    fresh = 0;
    store = Option.map Artifact_store.fork t.store;
    rctx = None;
  }

let store t = t.store

(* the store of the running call *)
let current t = Option.get t.store

(* The planning context handed to every baseline fallback, made on first
   use; it reads statistics from the store of the running call. *)
let relalg_ctx t =
  match t.rctx with
  | Some c -> c
  | None ->
      let stats_for a = Artifact_store.stats (current t) a in
      let c = Foc_eval.Relalg.make_ctx ~stats_for () in
      t.rctx <- Some c;
      c

let stats t =
  let cv name = Foc_obs.Metrics.(Counter.value (counter t.m.registry name))
  and gv name = Foc_obs.Metrics.(Gauge.value (gauge t.m.registry name)) in
  {
    materialised = cv "engine.materialised";
    clterms_built = cv "engine.clterms_built";
    basic_terms = cv "engine.basic_terms";
    fallbacks = cv "engine.fallbacks";
    covers_built = cv "engine.covers_built";
    removals = cv "engine.removals";
    balls_computed = cv "ball.computed";
    ball_cache_hits = cv "ball.cache_hits";
    ball_cache_evictions = cv "ball.cache_evictions";
    ball_cache_peak_entries = gv "ball.cache_peak_entries";
    ball_cache_peak_bytes = gv "ball.cache_peak_bytes";
    bfs_visited = cv "bfs.visited";
  }

let metrics t = t.m.registry
let stats_line t = Foc_obs.Metrics.line t.m.registry
let config t = t.cfg

let fresh_rel t =
  t.fresh <- t.fresh + 1;
  Printf.sprintf "$P%d" t.fresh

let fallback t what =
  if not t.cfg.allow_fallback then raise (Outside_fragment what);
  Foc_obs.Log.info (fun () -> "engine: fallback to baseline: " ^ what);
  Foc_obs.Metrics.Counter.inc t.m.fallbacks

(* ---------------- cl-term evaluation back-ends ---------------- *)

(* the context radius only matters through the 2r+1 threshold of basic
   terms; all basics produced by one decomposition share it *)
let cl_radius cl =
  List.fold_left (fun r b -> max r b.Clterm.radius) 0 (Clterm.basics cl)

let count_cl t cl =
  Foc_obs.Metrics.Counter.inc t.m.clterms_built;
  Foc_obs.Metrics.Counter.add t.m.basic_terms (Clterm.basic_count cl)

(* Every public entry point runs under [entry]. On a plain engine it opens
   the call's store, unbounded: the stratification strata share covers
   with their base, and each basic term of one radius finds the cover, the
   context or the Hanf partition the first one built. It also puts the
   engine's registry in scope, so the ball contexts and the splitter
   recursion below record into it directly — on worker domains too, since
   {!Foc_par} tasks inherit it — and exports the trace when a trace file
   is configured. *)
let entry t f =
  Foc_obs.Metrics.with_current t.m.registry (fun () ->
      let v =
        match t.store with
        | Some _ -> f () (* a kept store, or an enclosing entry point's *)
        | None ->
            t.store <- Some (new_store t.cfg t.m);
            Fun.protect ~finally:(fun () -> t.store <- None) f
      in
      if Foc_obs.Trace.enabled () then begin
        Foc_obs.Metrics.Gauge.set t.m.trace_dropped
          (Foc_obs.Trace.dropped_events ());
        Option.iter Foc_obs.Trace.export_chrome t.cfg.trace_file
      end;
      v)

(* The one back-end match: each back-end supplies its basic-term sweep and
   {!Clterm} evaluates the polynomial. Covers are built (or fetched) ahead
   of the sweep span, so the [cover] phase stays separate from [sweep]. A
   cl-term of width 0 has only sentence leaves, which {!Clterm} decides
   itself: no back-end artifact is built for it. *)
let eval_cl t a cl eval =
  count_cl t cl;
  let jobs = t.cfg.jobs and cache_bytes = cache_bytes t.cfg in
  let store = current t in
  let backend_sweep =
    match t.cfg.backend with
    | _ when Clterm.width cl = 0 ->
        fun () ->
          Clterm.sweep t.cfg.preds a (fun _ ->
              invalid_arg "Engine: no basic term of width >= 1")
    | Direct ->
        fun () ->
          Clterm.direct ~jobs (Artifact_store.ctx store a ~r:(cl_radius cl))
    | Cover ->
        let cover =
          Artifact_store.cover store a
            ~rc:(Cover_term.required_cover_radius cl)
        in
        fun () ->
          Cover_term.pattern_sweep ~jobs ~cache_bytes t.cfg.preds a cover cl
    | Splitter { max_rounds; small } ->
        fun () ->
          Splitter_backend.sweep ~jobs
            ~cover_for:(Artifact_store.cover store a)
            t.cfg.preds a ~max_rounds ~small cl
    | Hanf ->
        fun () ->
          Hanf_backend.sweep ~jobs ~cache_bytes
            ~classes_for:(Artifact_store.hanf store a) t.cfg.preds a
  in
  Foc_obs.span ~name:"sweep" (fun () -> eval (backend_sweep ()) cl)

let eval_cl_ground t a cl = eval_cl t a cl Clterm.eval_ground
let eval_cl_unary t a cl = eval_cl t a cl Clterm.eval_unary

(* ---------------- compiling the tree ---------------- *)

let kernel t ~anchor ys body =
  let route =
    Decompose.localize ~max_blocks:t.cfg.max_blocks ~max_width:t.cfg.max_width
      ~anchored:(Option.is_some anchor) ~vars:(Option.to_list anchor @ ys) body
  in
  { ys; anchor; body; route }

(* Theorem 6.10: a numerical condition P(t̄) with ≤ 1 free variable
   becomes a step that materialises a fresh unary/0-ary relation — the
   interpretations ι_i(R) of the decomposition sequence — and leaves its
   atom behind. [steps] collects them in run order (innermost first, then
   left to right): each runs over the structure its predecessors
   expanded. *)
let rec strat t steps (phi : Ast.formula) : Ast.formula =
  let go = strat t steps in
  match phi with
  | Ast.True | Ast.False | Ast.Eq _ | Ast.Rel _ | Ast.Dist _ -> phi
  | Ast.Neg f -> Ast.Neg (go f)
  | Ast.Or (f, g) ->
      let f = go f in
      Ast.Or (f, go g)
  | Ast.And (f, g) ->
      let f = go f in
      Ast.And (f, go g)
  | Ast.Exists (y, f) -> Ast.Exists (y, go f)
  | Ast.Forall (y, f) -> Ast.Forall (y, go f)
  | Ast.Pred (pred, ts) ->
      let var =
        match Var.Set.elements (Ast.free_formula phi) with
        | [] -> None
        | [ x ] -> Some x
        | _ ->
            raise
              (Outside_fragment
                 "numerical predicate with two or more free variables (not \
                  FOC1)")
      in
      let args = List.map (compile_term t var) ts in
      let name = fresh_rel t in
      steps := { name; var; pred; args } :: !steps;
      Ast.Rel (name, Array.of_list (Option.to_list var))

and stratify t phi =
  let steps = ref [] in
  let phi = strat t steps phi in
  (List.rev !steps, phi)

(* a counting kernel is anchored at [x] when [x] is free in it *)
and compile_term t x (term : Ast.term) : term =
  match term with
  | Ast.Int i -> Const i
  | Ast.Add (s, u) ->
      let s = compile_term t x s in
      Sum (s, compile_term t x u)
  | Ast.Mul (s, u) ->
      let s = compile_term t x s in
      Prod (s, compile_term t x u)
  | Ast.Count (ys, theta) ->
      let steps, body = stratify t theta in
      let anchor =
        match x with
        | Some x when Var.Set.mem x (Ast.free_term (Ast.Count (ys, body))) ->
            Some x
        | _ -> None
      in
      Count (steps, kernel t ~anchor ys body)

(* the sentence shell: ∃ȳ body ⟺ #ȳ.body ≥ 1, decided through the
   decomposition — the route the paper takes for basic local sentences
   (Theorem 6.8) *)
let rec shell t (phi : Ast.formula) =
  match phi with
  | Ast.True -> Truth true
  | Ast.False -> Truth false
  | Ast.Rel (r, [||]) -> Rel0 r
  | Ast.Neg f -> Not (shell t f)
  | Ast.And (f, g) ->
      let f = shell t f in
      Both (f, shell t g)
  | Ast.Or (f, g) ->
      let f = shell t f in
      Either (f, shell t g)
  | Ast.Forall (y, f) -> Not (shell t (Ast.Exists (y, Ast.neg f)))
  | Ast.Exists _ ->
      let rec peel acc = function
        | Ast.Exists (y, f) -> peel (y :: acc) f
        | f -> (List.rev acc, f)
      in
      let ys, body = peel [] phi in
      Exists (kernel t ~anchor:None ys body)
  | Ast.Eq _ | Ast.Rel _ | Ast.Dist _ -> invalid_arg "Engine: open formula"
  | Ast.Pred _ -> assert false (* stratified away *)

let compile_shell t phi =
  let steps, phi = stratify t phi in
  (steps, shell t phi)

(* a unary formula is the 0-counted indicator #().φ anchored at [x] *)
let compile_unary t x phi =
  let steps, phi = stratify t phi in
  (steps, kernel t ~anchor:(Some x) [] phi)

let compile_formula t x phi =
  match x with
  | None -> Sentence (compile_shell t phi)
  | Some x -> Unary (compile_unary t x phi)

(* A head term over at most one head variable is compiled as {!eval_unary}
   reads it; one over several is not a kernel but is evaluated per row
   ([None]). *)
let compile_query t (q : Query.t) =
  let head_term term =
    let free = Ast.free_term term in
    match List.filter (fun x -> Var.Set.mem x free) q.head_vars with
    | ([] | [ _ ]) as x -> Some (compile_term t (List.nth_opt x 0) term)
    | _ -> None
  in
  let body =
    match q.head_vars with
    | ([] | [ _ ]) as x -> compile_formula t (List.nth_opt x 0) q.body
    | _ -> Wide
  in
  { body; heads = List.map head_term q.head_terms }

(* ---------------- running the tree ---------------- *)

let run_ground t a k =
  match k.route with
  | Ok (_, cl) -> eval_cl_ground t a cl
  | Error _ ->
      fallback t "ground counting kernel outside the guarded fragment";
      Foc_obs.span ~name:"fallback" (fun () ->
          Foc_eval.Relalg.count ~ctx:(relalg_ctx t) t.cfg.preds a k.ys k.body)

let run_unary t a x k =
  match k.route with
  | Ok (_, cl) -> eval_cl_unary t a cl
  | Error _ ->
      fallback t "unary counting kernel outside the guarded fragment";
      Foc_obs.span ~name:"fallback" (fun () ->
          let counts =
            Foc_eval.Relalg.term_counts ~ctx:(relalg_ctx t) t.cfg.preds a
              (Ast.Count (k.ys, k.body))
          in
          Array.init (Structure.order a) (fun v ->
              Foc_eval.Counts.get counts (Var.Map.singleton x v)))

let rec stratified t a steps =
  Foc_obs.span ~name:"stratify" (fun () -> List.fold_left (materialise t) a steps)

and materialise t a { name; var; pred; args } =
  let holds values = Pred.holds t.cfg.preds pred values in
  let rel =
    match var with
    | None ->
        let values = Array.of_list (List.map (ground_value t a) args) in
        (name, 0, if holds values then [ [||] ] else [])
    | Some _ ->
        (* one values array, refilled per element: a predicate reads its
           arguments and keeps none *)
        let vectors = Array.of_list (List.map (unary_value t a) args) in
        let values = Array.make (Array.length vectors) 0 in
        let members = ref [] in
        for v = Structure.order a - 1 downto 0 do
          for i = 0 to Array.length vectors - 1 do
            values.(i) <- vectors.(i).(v)
          done;
          if holds values then members := [| v |] :: !members
        done;
        (name, 1, !members)
  in
  Foc_obs.Metrics.Counter.inc t.m.materialised;
  Structure.expand a [ rel ]

and ground_value t a = function
  | Const i -> i
  | Sum (s, u) -> ground_value t a s + ground_value t a u
  | Prod (s, u) -> ground_value t a s * ground_value t a u
  | Count (steps, k) -> run_ground t (stratified t a steps) k

and unary_value t a term =
  let n = Structure.order a in
  match term with
  | Const i -> Array.make n i
  | Sum (s, u) -> Array.map2 ( + ) (unary_value t a s) (unary_value t a u)
  | Prod (s, u) -> Array.map2 ( * ) (unary_value t a s) (unary_value t a u)
  | Count (steps, k) -> (
      let a' = stratified t a steps in
      match k.anchor with
      | None -> Array.make n (run_ground t a' k)
      | Some x -> run_unary t a' x k)

let rec run_shell t a = function
  | Truth b -> b
  | Rel0 r -> Structure.mem a r [||]
  | Not s -> not (run_shell t a s)
  | Both (s, u) -> run_shell t a s && run_shell t a u
  | Either (s, u) -> run_shell t a s || run_shell t a u
  | Exists k -> run_ground t a k >= 1

let run_holds t a x (steps, k) =
  Array.map (fun v -> v >= 1) (run_unary t (stratified t a steps) x k)

(* ---------------- entry points ---------------- *)

let compiled_structure c = c.expanded

let compile t a phi =
  let steps, root = compile_shell t phi in
  { expanded = stratified t a steps; root }

let run t c = run_shell t c.expanded c.root

let sentence what phi =
  if not (Var.Set.is_empty (Ast.free_formula phi)) then
    invalid_arg ("Engine." ^ what ^ ": not a sentence")

let compile_sentence t a phi =
  sentence "compile_sentence" phi;
  entry t (fun () -> compile t a phi)

let run_sentence t c = entry t (fun () -> run t c)

(* [run_sentence ∘ compile_sentence] under one call store *)
let check t a phi =
  sentence "check" phi;
  entry t (fun () -> run t (compile t a phi))

let eval_ground t a term =
  if not (Var.Set.is_empty (Ast.free_term term)) then
    invalid_arg "Engine.eval_ground: not a ground term";
  entry t (fun () -> ground_value t a (compile_term t None term))

let eval_unary t a x term =
  if not (Var.Set.subset (Ast.free_term term) (Var.Set.singleton x)) then
    invalid_arg "Engine.eval_unary: stray free variable";
  entry t (fun () -> unary_value t a (compile_term t (Some x) term))

let holds_unary t a x phi =
  if not (Var.Set.subset (Ast.free_formula phi) (Var.Set.singleton x)) then
    invalid_arg "Engine.holds_unary: stray free variable";
  entry t (fun () -> run_holds t a x (compile_unary t x phi))

let check_tuple t a (q : Query.t) tuple =
  if Array.length tuple <> List.length q.head_vars then None
  else
    entry t (fun () ->
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

(* The kernels of a head term over one head variable, made ready to
   evaluate per row: materialised and checked as [unary_value] would, with
   the same counted fallbacks, and each kernel without the variable
   evaluated here. The structure threads through the kernels, since the
   term left reads every relation they materialised. *)
let rec row_term t a = function
  | Const i -> (a, Ast.Int i)
  | Sum (s, u) -> row_both t a s u (fun s u -> Ast.Add (s, u))
  | Prod (s, u) -> row_both t a s u (fun s u -> Ast.Mul (s, u))
  | Count (steps, k) -> (
      let a = stratified t a steps in
      match k.anchor with
      | None -> (a, Ast.Int (run_ground t a k))
      | Some _ ->
          if Result.is_error k.route then
            fallback t "unary counting kernel outside the guarded fragment";
          (a, Ast.Count (k.ys, k.body)))

and row_both t a s u k =
  let a, s = row_term t a s in
  let a, u = row_term t a u in
  (a, k s u)

(* A term over several head variables is no kernel: its closed counting
   subterms are folded to constants by the compiled local evaluator, and
   the rest is evaluated per row. *)
let rec fold_closed t a (term : Ast.term) =
  match term with
  | Ast.Add (s, u) -> Ast.Add (fold_closed t a s, fold_closed t a u)
  | Ast.Mul (s, u) -> Ast.Mul (fold_closed t a s, fold_closed t a u)
  | Ast.Count _ when Var.Set.is_empty (Ast.free_term term) ->
      let p = Local_eval.compile_term t.cfg.preds a ~vars:[] term in
      Ast.Int
        (Local_eval.value p (Local_eval.scratch a)
           (Array.make (Local_eval.term_width p) 0))
  | Ast.Int _ | Ast.Count _ -> term

(* Head terms of a multi-variable head, evaluated per emitted row: each
   term is compiled once ({!Local_eval.compile_term}) over its free head
   variables and evaluated at a row's values for them, memoised per
   distinct argument tuple. A ground term is evaluated once by the
   engine. The returned closure maps a head-order row to a fresh values
   array — shared by every multi-variable producer. *)
let head_values t a head terms =
  let index_of x =
    let rec go i = if Var.equal head.(i) x then i else go (i + 1) in
    go 0
  in
  let reader (term, compiled) =
    let free = Ast.free_term term in
    match
      (List.filter (fun x -> Var.Set.mem x free) (Array.to_list head), compiled)
    with
    | [], Some c ->
        let v = ground_value t a c in
        fun _ -> v
    | vars, _ ->
        let a', term' =
          match compiled with
          | Some c -> row_term t a c
          | None -> (a, fold_closed t a term)
        in
        let p = Local_eval.compile_term t.cfg.preds a' ~vars term' in
        let s = Local_eval.scratch a' in
        let env = Array.make (Local_eval.term_width p) 0 in
        let at = Array.of_list (List.map index_of vars) in
        let memo = Hashtbl.create 64 in
        fun row ->
          let key = Array.map (fun i -> row.(i)) at in
          match Hashtbl.find_opt memo key with
          | Some v -> v
          | None ->
              Array.blit key 0 env 0 (Array.length key);
              let v = Local_eval.value p s env in
              Hashtbl.add memo key v;
              v
  in
  let readers = Array.of_list (List.map reader terms) in
  fun row -> Array.map (fun rd -> rd row) readers

(* ---------------- answer enumeration ---------------- *)

(* A body is walkable when it is a conjunction of atoms (relations,
   equalities, distance atoms) and negated atoms — then each conjunct
   materialises to a small sorted table (linear-ish preprocessing) and
   [Enum.walk] enumerates the join lazily, skipping the bindings a negated
   atom contains. [Query.make] already guarantees free(body) ⊆ head_vars,
   so the atoms are over head variables. Returns (positive, negated). *)
let conjunctive_atoms body =
  let rec go ((pos, neg) as acc) = function
    | Ast.True -> Some acc
    | Ast.And (f, g) -> Option.bind (go acc f) (fun acc -> go acc g)
    | (Ast.Eq _ | Ast.Rel _ | Ast.Dist _) as atom -> Some (atom :: pos, neg)
    | Ast.Neg ((Ast.Eq _ | Ast.Rel _ | Ast.Dist _) as atom) ->
        Some (pos, atom :: neg)
    | _ -> None
  in
  Option.map (fun (pos, neg) -> (List.rev pos, List.rev neg)) (go ([], []) body)

let enumerate_inner t a ?limit ?after (q : Query.t) =
  let n = Structure.order a in
  let c = compile_query t q in
  (* only a head of two or more variables leaves a head term uncompiled *)
  let heads () = List.map Option.get c.heads in
  match (c.body, q.head_vars) with
  | Sentence (steps, root), _ ->
      (* zero or one answer: the empty tuple *)
      let rows =
        if run t { expanded = stratified t a steps; root } then
          [ ([||], Array.of_list (List.map (ground_value t a) (heads ()))) ]
        else []
      in
      Foc_eval.Enum.of_rows ?limit ?after ~producer:"ground" rows
  | Unary u, [ x ] ->
      (* the localized path: one linear preprocessing sweep (per-element
         truths and term vectors), then O(1) delay per answer — the
         Kazana–Segoufin shape for FOC1 heads *)
      let truths = run_holds t a x u in
      let vectors = List.map (unary_value t a) (heads ()) in
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
  | _ -> (
      (* The one rule for heads of two or more variables, on every route:
         the paper's algorithm answers them per tuple (Theorem 5.5), and
         enumerating all answers is its open problem (3). Their answers
         come from the baseline's join kernel, so each open is one
         fallback, and strict mode refuses it. *)
      fallback t "query head with two or more variables";
      let head = Array.of_list q.head_vars in
      let values = head_values t a head (List.combine q.head_terms c.heads) in
      match conjunctive_atoms q.body with
      | Some (pos, neg) ->
          (* per-conjunct tables (each a single atom: relation scan,
             identity table, or distance balls), then the leapfrog kernel
             with galloping seeks — no output materialisation *)
          let table =
            Foc_eval.Relalg.formula_table ~ctx:(relalg_ctx t) t.cfg.preds a
          in
          Foc_eval.Enum.walk ?limit ?after ~values ~n ~head
            ~neg:(List.map table neg) (List.map table pos)
      | None ->
          (* the planned body: its prefix materialised, its last join
             streamed in head order *)
          Foc_eval.Enum.of_table ?limit ~values
            (Foc_eval.Relalg.head_search ~ctx:(relalg_ctx t) ?after t.cfg.preds
               a head q.body))

(* all preprocessing (artifact access included) happens before the cursor
   escapes; [next] only reads the prepared arrays/tables *)
let enumerate t a ?limit ?after q =
  entry t (fun () -> enumerate_inner t a ?limit ?after q)

(* a drained cursor: one producer selection for both entry points *)
let run_query t a q =
  entry t (fun () -> Foc_eval.Enum.to_list (enumerate_inner t a q))
