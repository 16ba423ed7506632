open Foc_logic
module Engine = Foc_nd.Engine
module Structure = Foc_data.Structure
module Pattern_count = Foc_local.Pattern_count
module Metrics = Foc_obs.Metrics
module Counter = Foc_obs.Metrics.Counter
module Artifacts = Foc_nd.Artifact_store

let word = Sys.word_size / 8

(* The session's artifacts and compiled sentences live in the one store
   its engine keeps ({!Foc_nd.Artifact_store}, session scope); what the
   session adds is its policy: versions, update invalidation and the
   snapshot seeding. *)
type t = {
  eng : Engine.t;
  store : Engine.compiled Artifacts.t;
  mutable structure : Structure.t;
  mutable version : int;  (* updates applied; open cursors pin a version *)
  invalidated : Counter.t;
  balls_dropped : Counter.t;
}

type result = bool

let engine t = t.eng
let structure t = t.structure
let version t = t.version
let metrics t = Engine.metrics t.eng
let stats_line t = Engine.stats_line t.eng
let cached_artifacts t = Artifacts.length t.store
let cache_bytes t = Artifacts.bytes t.store

let create ?(budget_mb = 256) ?config a =
  let eng = Engine.create ?config ~budget_mb () in
  let counter = Metrics.counter (Engine.metrics eng) in
  {
    eng;
    store = Option.get (Engine.store eng);
    structure = a;
    version = 0;
    invalidated = counter "session.invalidated";
    balls_dropped = counter "session.balls_dropped";
  }

(* ------------------------------------------------------------------ *)
(* compiled sentences *)

(* a miss compiles the canonical representative: which α-variant arrived
   first then never matters *)
let compiled_for t phi =
  Artifacts.compiled t.store phi ~build:(fun canon ->
      let comp = Engine.compile_sentence t.eng t.structure canon in
      let delta =
        Structure.size (Engine.compiled_structure comp)
        - Structure.size t.structure
      in
      (comp, (max delta 0 * 4 * word) + 1024))

let check t phi = Engine.run_sentence t.eng (compiled_for t phi)

(* ------------------------------------------------------------------ *)
(* answer enumeration *)

exception Expired

(* A cursor is pinned to the structure version it was opened on: all
   preprocessing runs at open (through the session store), and
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

let run_batch ?jobs t phis =
  Foc_obs.span ~name:"session.batch" (fun () ->
      let n_jobs =
        match jobs with
        | Some j -> j
        | None -> (Engine.config t.eng).Engine.jobs
      in
      (* phase 1: sequential compilation — repeats and α-variants hit the
         compiled cache, and the inner stratification sweeps warm the
         session store *)
      let comps = Array.of_list (List.map (compiled_for t) phis) in
      let n = Array.length comps in
      if n_jobs <= 1 || n <= 1 then
        Array.to_list (Array.map (Engine.run_sentence t.eng) comps)
      else begin
        (* phase 2: parallel across queries. Force every lazily-memoised
           index sequentially first — workers then only read. Each worker
           is a fork of the session engine: it records into the session's
           registry and counters, reads the session's covers and Hanf
           partitions through its seeded store and memoises its own
           misses, which the session store adopts after the join. *)
        Structure.prepare t.structure;
        Array.iter
          (fun c -> Structure.prepare (Engine.compiled_structure c))
          comps;
        let workers = Array.init n_jobs (fun _ -> Engine.fork t.eng) in
        let next = Atomic.make 0 in
        let results =
          Foc_par.tabulate_ctx ~jobs:n_jobs ~label:"session.batch"
            ~make_ctx:(fun () -> workers.(Atomic.fetch_and_add next 1))
            n
            (fun w i -> Engine.run_sentence w comps.(i))
        in
        Array.iter
          (fun w ->
            Option.iter (Artifacts.adopt ~into:t.store) (Engine.store w))
          workers;
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
      let bid = Artifacts.structure_id t.store before in
      let aid = Artifacts.structure_id t.store after in
      let graph_changed = arity >= 2 in
      (* One fold over the store's keys decides every entry:
         - a compiled sentence dies on an edge update (covers, distances
           and Hanf types all depend on the graph), and on a unary update
           when it mentions the touched relation: a survivor's expanded
           structure keeps a stale copy of it, but the sentence never
           reads it, so its answers still agree with the updated
           structure;
         - covers die with the graph;
         - the base's Hanf partitions die on every update (types read
           relations); a stratum's partitions and contexts die with the
           compiled sentence that expanded it, so they wait for the fold
           to end;
         - the base's contexts are rebound, its statistics maintained;
           other statistics die (they may share the touched relation,
           and recollecting them on the next fallback is cheap). *)
      let dead = ref [] and strata = ref [] and dead_strata = ref [] in
      let rebinds = ref [] and base_stats = ref None in
      Artifacts.fold t.store ~init:() ~f:(fun k v () ->
          match (k, v) with
          | Artifacts.KCompiled _, Artifacts.VCompiled c ->
              if graph_changed || mentions (Ast.Key.form c.key) name then begin
                dead := k :: !dead;
                let exp = Engine.compiled_structure c.comp in
                if exp != before then dead_strata := exp :: !dead_strata
              end
          | KCover _, _ -> if graph_changed then dead := k :: !dead
          | KHanf (sid, _), _ when graph_changed || sid = bid ->
              dead := k :: !dead
          | KCtx (sid, r), VCtx ctx when sid = bid ->
              rebinds := (k, r, ctx) :: !rebinds
          | (KHanf (sid, _) | KCtx (sid, _)), _ ->
              strata := (sid, k) :: !strata
          | KStats sid, VStats s when sid = bid -> base_stats := Some (k, s)
          | KStats _, _ -> dead := k :: !dead
          | _ -> ());
      let dead_sids =
        List.map (Artifacts.structure_id t.store) !dead_strata
      in
      List.iter
        (fun (sid, k) -> if List.mem sid dead_sids then dead := k :: !dead)
        !strata;
      List.iter
        (fun k ->
          Artifacts.remove t.store k;
          Counter.inc t.invalidated)
        !dead;
      (match !base_stats with
      | Some (k, s) ->
          Artifacts.remove t.store k;
          if membership_changed then
            if ins then Foc_stats.Stats.insert s name tup
            else Foc_stats.Stats.delete s name tup;
          Artifacts.insert t.store (KStats aid) (VStats s)
      | None -> ());
      (* A cached ball is a BFS sphere of radius 2r+1, so it changes
         exactly when a touched element lies within 2r+1 of its centre in
         the old or new graph (the invalidation ball of Incremental). The
         base has one context per radius. *)
      List.iter
        (fun (k, r, ctx) ->
          let touched =
            lazy
              (Foc_nd.Incremental.touched ~before ~after tup
                 ~radius:((2 * r) + 1))
          in
          let drop v = graph_changed && Hashtbl.mem (Lazy.force touched) v in
          Artifacts.remove t.store k;
          let ctx', dropped = Pattern_count.rebind_ctx ctx after ~drop in
          Counter.add t.balls_dropped dropped;
          Artifacts.insert t.store (KCtx (aid, r)) (VCtx ctx'))
        !rebinds;
      Artifacts.prune t.store)

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
  let a = t.structure in
  ignore (Structure.gaifman a);
  ignore (Artifacts.stats t.store a);
  List.iter
    (fun r ->
      if r >= 0 then begin
        ignore (Artifacts.cover t.store a ~rc:r);
        ignore (Artifacts.hanf t.store a ~r)
      end)
    radii

let save t ~dir ~version =
  let a = t.structure in
  let g = Structure.gaifman a in
  let gid = Artifacts.graph_id t.store g in
  let sid = Artifacts.structure_id t.store a in
  let covers, hanfs, stats =
    Artifacts.fold t.store ~init:([], [], None)
      ~f:(fun k v ((cov, hf, st) as acc) ->
        match (k, v) with
        | Artifacts.KCover (gi, rc), Artifacts.VCover c when gi = gid ->
            ((rc, c) :: cov, hf, st)
        | KHanf (si, tr), VHanf cls when si = sid -> (cov, (tr, cls) :: hf, st)
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
        let gid = Artifacts.graph_id t.store (Structure.gaifman t.structure) in
        let sid = Artifacts.structure_id t.store t.structure in
        let seed k v = Artifacts.insert t.store k v in
        List.iter
          (fun (rc, c) -> if rc >= 0 then seed (KCover (gid, rc)) (VCover c))
          snap.Store.covers;
        List.iter
          (fun (tr, cls) -> if tr >= 0 then seed (KHanf (sid, tr)) (VHanf cls))
          snap.Store.hanfs;
        (match snap.Store.stats with
        (* a snapshot written under a different histogram resolution
           would poison the planner's summaries; drop it and recollect *)
        | Some s
          when Foc_stats.Stats.buckets s = Foc_stats.Stats.default_buckets ->
            seed (KStats sid) (VStats s)
        | _ -> ());
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
