open Foc_logic
module Engine = Foc_nd.Engine
module Structure = Foc_data.Structure
module Pattern_count = Foc_local.Pattern_count
module Cover = Foc_graph.Cover
module Metrics = Foc_obs.Metrics
module Counter = Foc_obs.Metrics.Counter

let word = Sys.word_size / 8

(* ------------------------------------------------------------------ *)
(* Artifact keys and values. Structures and Gaifman graphs are identified
   by *physical* identity through small registries (an artifact is only
   valid for the exact object it was built from); compiled sentences by
   the canonical-AST intern id, so α-equivalent sentences share one
   entry. Covers key on the graph, not the structure: stratification
   strata share the base's Gaifman graph physically (materialised [$P]
   relations are at most unary), so base and strata share covers too. *)

type akey =
  | KCover of int * int  (* graph id, cover radius *)
  | KCtx of int * int  (* structure id, term radius *)
  | KHanf of int * int  (* structure id, type radius *)
  | KCompiled of int  (* Ast.Key id *)
  | KStats of int  (* structure id *)

type aval =
  | VCover of Cover.t
  | VCtx of Pattern_count.ctx
  | VHanf of (string * int list) list
  | VCompiled of centry
  | VStats of Foc_stats.Stats.t

and centry = {
  ckey : Ast.Key.t;
  comp : Engine.compiled;
  cbytes : int;  (* size estimate, fixed at compile time *)
}

let aval_bytes = function
  | VCover c ->
      (Cover.total_weight c + (4 * Cover.cluster_count c) + 16) * word
  | VCtx ctx ->
      Pattern_count.cache_resident_bytes ctx
      + (((3 * Pattern_count.order ctx) + 16) * word)
  | VHanf cls -> Foc_bd.Hanf.approx_bytes cls
  | VCompiled e -> e.cbytes
  | VStats s -> Foc_stats.Stats.approx_bytes s

type t = {
  eng : Engine.t;
  mutable structure : Structure.t;
  mutable version : int;  (* updates applied; open cursors pin a version *)
  cache : (akey, aval) Budget_cache.t;
  keys : Ast.Key.table;
  mutable struct_ids : (Structure.t * int) list;
  mutable graph_ids : (Foc_graph.Graph.t * int) list;
  mutable next_id : int;
  compiled_hits : Counter.t;
  compiled_misses : Counter.t;
  cover_hits : Counter.t;
  cover_misses : Counter.t;
  ctx_hits : Counter.t;
  ctx_misses : Counter.t;
  hanf_hits : Counter.t;
  hanf_misses : Counter.t;
  stats_hits : Counter.t;
  stats_misses : Counter.t;
  invalidated : Counter.t;
  balls_dropped : Counter.t;
}

type result = bool

let engine t = t.eng
let structure t = t.structure
let version t = t.version
let metrics t = Engine.metrics t.eng
let stats_line t = Engine.stats_line t.eng
let cached_artifacts t = Budget_cache.length t.cache
let cache_bytes t = Budget_cache.bytes_used t.cache

(* ------------------------------------------------------------------ *)
(* identity registries *)

let struct_id t a =
  match List.assq_opt a t.struct_ids with
  | Some i -> i
  | None ->
      let i = t.next_id in
      t.next_id <- i + 1;
      t.struct_ids <- (a, i) :: t.struct_ids;
      i

let graph_id t g =
  match List.assq_opt g t.graph_ids with
  | Some i -> i
  | None ->
      let i = t.next_id in
      t.next_id <- i + 1;
      t.graph_ids <- (g, i) :: t.graph_ids;
      i

(* Registry entries are only needed while a cache key references their id
   (a pruned object that resurfaces just mints a fresh id — no stale cache
   key can match it). Pruning after invalidation keeps the registries
   O(cache entries) across long update sequences. *)
let prune_registries t =
  let live_sids = Hashtbl.create 16 and live_gids = Hashtbl.create 16 in
  Budget_cache.fold t.cache ~init:() ~f:(fun k _ () ->
      match k with
      | KCover (g, _) -> Hashtbl.replace live_gids g ()
      | KCtx (s, _) | KHanf (s, _) | KStats s ->
          Hashtbl.replace live_sids s ()
      | KCompiled _ -> ());
  t.struct_ids <-
    List.filter
      (fun (a, i) -> a == t.structure || Hashtbl.mem live_sids i)
      t.struct_ids;
  t.graph_ids <-
    List.filter (fun (_, i) -> Hashtbl.mem live_gids i) t.graph_ids

(* ------------------------------------------------------------------ *)
(* artifact getters — the engine's injection hooks *)

let cover_for t a ~rc =
  let key = KCover (graph_id t (Structure.gaifman a), rc) in
  match Budget_cache.find t.cache key with
  | Some (VCover c) ->
      Counter.inc t.cover_hits;
      c
  | _ ->
      Counter.inc t.cover_misses;
      let c =
        Foc_obs.Scope.cue Foc_obs.Scope.Artifact (fun () ->
            Engine.make_cover t.eng a ~rc)
      in
      Budget_cache.insert t.cache key (VCover c);
      c

let ctx_for t a ~r =
  let key = KCtx (struct_id t a, r) in
  match Budget_cache.find t.cache key with
  | Some (VCtx ctx) ->
      Counter.inc t.ctx_hits;
      ctx
  | _ ->
      Counter.inc t.ctx_misses;
      let ctx =
        Foc_obs.Scope.cue Foc_obs.Scope.Artifact (fun () ->
            Engine.make_pattern_ctx t.eng a ~r)
      in
      Budget_cache.insert t.cache key (VCtx ctx);
      ctx

let hanf_for t a ~tr =
  let key = KHanf (struct_id t a, tr) in
  match Budget_cache.find t.cache key with
  | Some (VHanf cls) ->
      Counter.inc t.hanf_hits;
      cls
  | _ ->
      Counter.inc t.hanf_misses;
      let cls =
        Foc_obs.Scope.cue Foc_obs.Scope.Artifact (fun () ->
            Engine.make_hanf_classes t.eng a ~tr)
      in
      Budget_cache.insert t.cache key (VHanf cls);
      cls

let stats_for t a =
  let key = KStats (struct_id t a) in
  match Budget_cache.find t.cache key with
  | Some (VStats s) ->
      Counter.inc t.stats_hits;
      s
  | _ ->
      Counter.inc t.stats_misses;
      let s =
        Foc_obs.Scope.cue Foc_obs.Scope.Artifact (fun () ->
            Foc_stats.Stats.collect a)
      in
      Budget_cache.insert t.cache key (VStats s);
      s

let install_hooks t =
  Engine.set_artifacts t.eng
    (Some
       {
         Engine.art_cover = (fun a ~rc -> cover_for t a ~rc);
         art_ctx = (fun a ~r -> ctx_for t a ~r);
         art_hanf = (fun a ~tr -> hanf_for t a ~tr);
         art_stats = Some (fun a -> stats_for t a);
       })

let create ?(budget_mb = 256) ?config a =
  let eng = Engine.create ?config () in
  let m = Engine.metrics eng in
  let counter name = Metrics.counter m name in
  let evictions = counter "session.evictions" in
  let cache =
    Budget_cache.create
      ~on_evict:(fun _ _ -> Counter.inc evictions)
      ~capacity:(budget_mb * 1024 * 1024)
      ~size:aval_bytes ()
  in
  let t =
    {
      eng;
      structure = a;
      version = 0;
      cache;
      keys = Ast.Key.create_table ();
      struct_ids = [];
      graph_ids = [];
      next_id = 0;
      compiled_hits = counter "session.compiled_hits";
      compiled_misses = counter "session.compiled_misses";
      cover_hits = counter "session.cover_hits";
      cover_misses = counter "session.cover_misses";
      ctx_hits = counter "session.ctx_hits";
      ctx_misses = counter "session.ctx_misses";
      hanf_hits = counter "session.hanf_hits";
      hanf_misses = counter "session.hanf_misses";
      stats_hits = counter "session.stats_hits";
      stats_misses = counter "session.stats_misses";
      invalidated = counter "session.invalidated";
      balls_dropped = counter "session.balls_dropped";
    }
  in
  install_hooks t;
  t

(* ------------------------------------------------------------------ *)
(* compiled sentences *)

let compiled_for t phi =
  let k = Ast.Key.intern t.keys phi in
  let key = KCompiled (Ast.Key.id k) in
  match Budget_cache.find t.cache key with
  | Some (VCompiled e) ->
      Counter.inc t.compiled_hits;
      e
  | _ ->
      Counter.inc t.compiled_misses;
      (* compile the canonical representative: which α-variant arrived
         first then never matters *)
      let comp =
        Foc_obs.Scope.cue Foc_obs.Scope.Artifact (fun () ->
            Engine.compile_sentence t.eng t.structure (Ast.Key.form k))
      in
      let delta =
        Structure.size (Engine.compiled_structure comp)
        - Structure.size t.structure
      in
      let e = { ckey = k; comp; cbytes = (max delta 0 * 4 * word) + 1024 } in
      Budget_cache.insert t.cache key (VCompiled e);
      e

let check t phi = Engine.run_sentence t.eng (compiled_for t phi).comp

(* ------------------------------------------------------------------ *)
(* answer enumeration *)

exception Expired

(* A cursor is pinned to the structure version it was opened on: all
   preprocessing runs at open (through the session's artifact hooks), and
   [next] first checks that no update has been applied since — a bumped
   version raises [Expired] rather than silently mixing snapshots. The
   old structure snapshot itself stays readable (structures are
   functional), but serving stale answers after an acknowledged write
   would be wrong for clients, so staleness is an error the caller can
   turn into a restart. *)
let enumerate t ?limit ?after q =
  Foc_obs.span ~name:"session.enumerate" (fun () ->
      let v0 = t.version in
      let c = Engine.enumerate t.eng t.structure ?limit ?after q in
      let next () =
        if t.version <> v0 then raise Expired else c.Foc_eval.Enum.next ()
      in
      { c with Foc_eval.Enum.next })

(* ------------------------------------------------------------------ *)
(* batched evaluation *)

type worker = {
  weng : Engine.t;
  mutable w_ctxs : (Structure.t * (int, Pattern_count.ctx) Hashtbl.t) list;
}

(* Frozen read-only views for worker domains: covers and Hanf partitions
   are immutable once built, so workers share them directly; ball
   contexts are mutable (cache table, BFS scratch) and stay per-worker.
   Workers never insert into the session cache. Their engines are forks
   of the session engine, so they record into its registry, and they
   count cache hits on the session's own counters; both shard per
   domain, so nothing is merged after the join. *)
let make_worker t gids sids covers hanfs () =
  let weng = Engine.fork t.eng in
  let w = { weng; w_ctxs = [] } in
  Engine.set_artifacts weng
    (Some
       {
         Engine.art_cover =
           (fun a ~rc ->
             let frozen =
               match List.assq_opt (Structure.gaifman a) gids with
               | Some g -> List.assoc_opt (g, rc) covers
               | None -> None
             in
             match frozen with
             | Some c ->
                 Counter.inc t.cover_hits;
                 c
             | None -> Engine.make_cover weng a ~rc);
         art_ctx =
           (fun a ~r ->
             let tbl =
               match List.assq_opt a w.w_ctxs with
               | Some tbl -> tbl
               | None ->
                   let tbl = Hashtbl.create 4 in
                   w.w_ctxs <- (a, tbl) :: w.w_ctxs;
                   tbl
             in
             match Hashtbl.find_opt tbl r with
             | Some ctx ->
                 Counter.inc t.ctx_hits;
                 ctx
             | None ->
                 let ctx = Engine.make_pattern_ctx weng a ~r in
                 Hashtbl.add tbl r ctx;
                 ctx);
         art_hanf =
           (fun a ~tr ->
             let frozen =
               match List.assq_opt a sids with
               | Some s -> List.assoc_opt (s, tr) hanfs
               | None -> None
             in
             match frozen with
             | Some cls ->
                 Counter.inc t.hanf_hits;
                 cls
             | None -> Engine.make_hanf_classes weng a ~tr);
         (* statistics are mutable (count tables, summaries rebuilt on
            demand) — never shared across domains; each worker engine
            collects its own through its per-engine memo *)
         art_stats = None;
       });
  w

let run_batch ?jobs t phis =
  Foc_obs.span ~name:"session.batch" (fun () ->
      let n_jobs =
        match jobs with
        | Some j -> j
        | None -> (Engine.config t.eng).Engine.jobs
      in
      (* phase 1: sequential compilation — repeats and α-variants hit the
         compiled cache, and the inner stratification sweeps warm the
         shared cover/context caches *)
      let entries = List.map (fun phi -> compiled_for t phi) phis in
      let arr = Array.of_list entries in
      let n = Array.length arr in
      if n_jobs <= 1 || n <= 1 then
        List.map (fun e -> Engine.run_sentence t.eng e.comp) entries
      else begin
        (* phase 2: parallel across queries. Force every lazily-memoised
           index sequentially first — workers then only read. *)
        Structure.prepare t.structure;
        Array.iter
          (fun e -> Structure.prepare (Engine.compiled_structure e.comp))
          arr;
        let covers, hanfs =
          Budget_cache.fold t.cache ~init:([], []) ~f:(fun k v (cov, hf) ->
              match (k, v) with
              | KCover (g, rc), VCover c -> (((g, rc), c) :: cov, hf)
              | KHanf (s, tr), VHanf cls -> (cov, ((s, tr), cls) :: hf)
              | _ -> (cov, hf))
        in
        let gids = t.graph_ids and sids = t.struct_ids in
        let results =
          Foc_par.tabulate_ctx ~jobs:n_jobs ~label:"session.batch"
            ~make_ctx:(make_worker t gids sids covers hanfs) n
            (fun w i -> Engine.run_sentence w.weng arr.(i).comp)
        in
        Array.to_list results
      end)

(* ------------------------------------------------------------------ *)
(* updates and invalidation *)

let mentions phi name =
  Ast.exists_subformula
    (function Ast.Rel (r, _) -> String.equal r name | _ -> false)
    phi

let update t name tup ~insert:ins =
  Foc_obs.span ~name:"session.update" (fun () ->
      let before = t.structure in
      let arity =
        Foc_data.Signature.arity (Structure.signature before) name
      in
      if Array.length tup <> arity then
        invalid_arg
          (Printf.sprintf "Session: %s expects arity %d, got %d" name arity
             (Array.length tup));
      (* Force the Gaifman memo before a unary update so the updated
         structure physically shares it ([Structure.add_tuples] preserves
         the memo for arity <= 1) — every cover then stays valid. *)
      if arity <= 1 then ignore (Structure.gaifman before);
      (* set-semantic delta: [Stats.insert]/[delete] must only see tuples
         that actually change the relation *)
      let membership_changed =
        if ins then not (Structure.mem before name tup)
        else Structure.mem before name tup
      in
      let after =
        if ins then Structure.add_tuples before name [ tup ]
        else Structure.remove_tuples before name [ tup ]
      in
      t.structure <- after;
      t.version <- t.version + 1;
      let bid = struct_id t before in
      let aid = struct_id t after in
      let graph_changed = arity >= 2 in
      (* 1. compiled sentences: an edge update invalidates everything
         (covers, distances and Hanf types all depend on the graph); a
         unary update only invalidates sentences that mention the touched
         relation — a survivor's expanded structure keeps a stale copy of
         it, but the sentence never reads it, so its answers still agree
         with the updated structure. *)
      let dead_compiled, dead_structs =
        Budget_cache.fold t.cache ~init:([], []) ~f:(fun k v acc ->
            match (k, v) with
            | KCompiled _, VCompiled e
              when graph_changed || mentions (Ast.Key.form e.ckey) name ->
                let dc, ds = acc in
                let exp = Engine.compiled_structure e.comp in
                (k :: dc, (if exp == before then ds else exp :: ds))
            | _ -> acc)
      in
      let dead_sids =
        List.filter_map (fun s -> List.assq_opt s t.struct_ids) dead_structs
      in
      let kill k =
        Budget_cache.remove t.cache k;
        Counter.inc t.invalidated
      in
      List.iter kill dead_compiled;
      (* 2. affected-centre predicate for ball contexts: a cached ball is
         a BFS sphere of radius 2r+1, so it changes exactly when a touched
         element lies within 2r+1 of its centre in the old or new graph
         (the invalidation ball of Incremental) *)
      let affected =
        if not graph_changed then fun ~r:_ _ -> false
        else begin
          let memo = Hashtbl.create 4 in
          fun ~r v ->
            let set =
              match Hashtbl.find_opt memo r with
              | Some s -> s
              | None ->
                  let s =
                    Foc_nd.Incremental.touched ~before ~after tup
                      ~radius:((2 * r) + 1)
                  in
                  Hashtbl.add memo r s;
                  s
            in
            Hashtbl.mem set v
        end
      in
      (* 3. sweep the remaining artifacts *)
      let removals = ref [] and rebinds = ref [] and stats_rebind = ref None in
      Budget_cache.fold t.cache ~init:() ~f:(fun k v () ->
          match (k, v) with
          | KCover _, _ -> if graph_changed then removals := k :: !removals
          | KHanf (sid, _), _ ->
              (* Hanf types read relations, so the base partition dies on
                 every update; partitions of surviving expanded structures
                 stay consistent with their compiled sentences *)
              if graph_changed || sid = bid || List.mem sid dead_sids then
                removals := k :: !removals
          | KCtx (sid, r), VCtx ctx ->
              if sid = bid then rebinds := (k, r, ctx) :: !rebinds
              else if List.mem sid dead_sids then removals := k :: !removals
          | KStats sid, VStats s ->
              (* the base structure's statistics follow the update
                 incrementally; statistics of stratification-expanded
                 structures are dropped — they may share the touched
                 relation, and recollecting on next fallback is cheap *)
              if sid = bid then stats_rebind := Some s
              else removals := k :: !removals
          | _ -> ());
      (match !stats_rebind with
      | Some s ->
          Budget_cache.remove t.cache (KStats bid);
          if membership_changed then
            if ins then Foc_stats.Stats.insert s name tup
            else Foc_stats.Stats.delete s name tup;
          Budget_cache.insert t.cache (KStats aid) (VStats s)
      | None -> ());
      List.iter kill !removals;
      List.iter
        (fun (k, r, ctx) ->
          Budget_cache.remove t.cache k;
          let ctx', dropped =
            Pattern_count.rebind_ctx ctx after ~drop:(affected ~r)
          in
          Counter.add t.balls_dropped dropped;
          Budget_cache.insert t.cache (KCtx (aid, r)) (VCtx ctx'))
        !rebinds;
      prune_registries t;
      Budget_cache.trim t.cache)

let insert t name tup = update t name tup ~insert:true
let delete t name tup = update t name tup ~insert:false

(* ------------------------------------------------------------------ *)
(* persistence (Foc_store): snapshot the base structure and its cache
   state, restore it, replay the WAL through the invalidation logic
   above. Ball contexts and compiled sentences are deliberately not
   persisted — contexts are mutable BFS caches that rebuild lazily, and
   compiled sentences hold closures; both re-warm on first use. *)

module Store = Foc_store.Store
module Wal = Foc_store.Wal

(* build the expensive base-structure artifacts eagerly — what a cold
   server would otherwise pay lazily on the first queries, and what
   [save] then persists *)
let prewarm ?(radii = [ 1 ]) t =
  ignore (Structure.gaifman t.structure);
  ignore (stats_for t t.structure);
  List.iter
    (fun r ->
      if r >= 0 then begin
        ignore (cover_for t t.structure ~rc:r);
        ignore (hanf_for t t.structure ~tr:r)
      end)
    radii

let save t ~dir ~version =
  let a = t.structure in
  let g = Structure.gaifman a in
  let gid = graph_id t g and sid = struct_id t a in
  let covers, hanfs, stats =
    Budget_cache.fold t.cache ~init:([], [], None)
      ~f:(fun k v ((cov, hf, st) as acc) ->
        match (k, v) with
        | KCover (gi, rc), VCover c when gi = gid -> ((rc, c) :: cov, hf, st)
        | KHanf (si, tr), VHanf cls when si = sid ->
            (cov, (tr, cls) :: hf, st)
        | KStats si, VStats s when si = sid -> (cov, hf, Some s)
        | _ -> acc)
  in
  Store.save ~dir
    { Store.version; structure = a; graph = Some g; covers; hanfs; stats }

type loaded = {
  session : t;
  version : int;  (** snapshot version + WAL records replayed *)
  snapshot_version : int;
  wal_replayed : int;
  wal_torn : bool;  (** a torn WAL tail was discarded during replay *)
}

let load ?budget_mb ?config ~dir () =
  match Store.load ~dir with
  | Error e -> Error e
  | Ok snap -> (
      match
        (* install the persisted Gaifman CSR before anything can trigger
           a rebuild — this is the cold-start fast path *)
        (match snap.Store.graph with
        | Some g -> Structure.set_gaifman snap.Store.structure g
        | None -> ());
        let t = create ?budget_mb ?config snap.Store.structure in
        let gid = graph_id t (Structure.gaifman t.structure) in
        List.iter
          (fun (rc, c) ->
            if rc >= 0 then
              Budget_cache.insert t.cache (KCover (gid, rc)) (VCover c))
          snap.Store.covers;
        let sid = struct_id t t.structure in
        List.iter
          (fun (tr, cls) ->
            if tr >= 0 then
              Budget_cache.insert t.cache (KHanf (sid, tr)) (VHanf cls))
          snap.Store.hanfs;
        (match snap.Store.stats with
        (* a snapshot written under a different histogram resolution
           would poison the planner's summaries; drop it and recollect *)
        | Some s
          when Foc_stats.Stats.buckets s = Foc_stats.Stats.default_buckets ->
            Budget_cache.insert t.cache (KStats sid) (VStats s)
        | _ -> ());
        Budget_cache.trim t.cache;
        let records, torn =
          Wal.replay (Store.wal_path ~dir ~version:snap.Store.version)
        in
        (* replay through the §9.2 invalidation radii: each record takes
           the same insert/delete path a live write would *)
        List.iter
          (fun { Wal.insert = ins; rel; tuple } ->
            update t rel tuple ~insert:ins)
          records;
        {
          session = t;
          version = snap.Store.version + List.length records;
          snapshot_version = snap.Store.version;
          wal_replayed = List.length records;
          wal_torn = torn;
        }
      with
      | l -> Ok l
      | exception Invalid_argument e ->
          (* a WAL record (or artifact) inconsistent with the snapshot's
             signature — treat the whole store as unusable *)
          Error e
      | exception Not_found -> Error "snapshot/WAL references unknown relation")
