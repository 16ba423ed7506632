open Foc_logic
module Structure = Foc_data.Structure
module Metrics = Foc_obs.Metrics
module Counter = Foc_obs.Metrics.Counter

type key =
  | KCover of int * int
  | KCtx of int * int
  | KHanf of int * int
  | KStats of int
  | KCompiled of int

type 'c value =
  | VCover of Foc_graph.Cover.t
  | VCtx of Foc_local.Pattern_count.ctx
  | VHanf of (string * int list) list
  | VStats of Foc_stats.Stats.t
  | VCompiled of { key : Ast.Key.t; comp : 'c; bytes : int }

let word = Sys.word_size / 8

let value_bytes = function
  | VCover c ->
      (Foc_graph.Cover.total_weight c + (4 * Foc_graph.Cover.cluster_count c)
      + 16)
      * word
  | VCtx ctx ->
      Foc_local.Pattern_count.cache_resident_bytes ctx
      + (((3 * Foc_local.Pattern_count.order ctx) + 16) * word)
  | VHanf cls -> Foc_bd.Hanf.approx_bytes cls
  | VStats s -> Foc_stats.Stats.approx_bytes s
  | VCompiled c -> c.bytes

(* per kind, in the order of [kind] *)
let kinds = [| "cover"; "ctx"; "hanf"; "stats"; "compiled" |]

let kind = function
  | KCover _ -> 0
  | KCtx _ -> 1
  | KHanf _ -> 2
  | KStats _ -> 3
  | KCompiled _ -> 4

type counters = { hits : Counter.t array; misses : Counter.t array }

type 'c t = {
  registry : Metrics.t;
  preds : Pred.collection;
  jobs : int;
  cache_bytes : int option;  (* per ball context *)
  cache : (key, 'c value) Budget_cache.t;
  counters : counters option;  (* a kept store's session.* counters *)
  keys : Ast.Key.table Lazy.t;
  mutable structs : (Structure.t * int) list;
  mutable graphs : (Foc_graph.Graph.t * int) list;
  mutable next_id : int;
}

let create ?budget_mb ?cache_bytes ~registry ~preds ~jobs () =
  let counters, capacity, on_evict =
    match budget_mb with
    | None -> (None, None, fun _ _ -> ())
    | Some mb ->
        let c name = Metrics.counter registry ("session." ^ name) in
        let evictions = c "evictions" in
        ( Some
            {
              hits = Array.map (fun k -> c (k ^ "_hits")) kinds;
              misses = Array.map (fun k -> c (k ^ "_misses")) kinds;
            },
          Some (mb * 1024 * 1024),
          fun _ _ -> Counter.inc evictions )
  in
  {
    registry;
    preds;
    jobs;
    cache_bytes;
    cache = Budget_cache.create ~on_evict ?capacity ~size:value_bytes ();
    counters;
    keys = lazy (Ast.Key.create_table ());
    structs = [];
    graphs = [];
    next_id = 0;
  }

(* ---------------- the identity registry ---------------- *)

let intern t ids set x =
  match List.assq_opt x ids with
  | Some i -> i
  | None ->
      let i = t.next_id in
      t.next_id <- i + 1;
      set ((x, i) :: ids);
      i

let structure_id t a = intern t t.structs (fun l -> t.structs <- l) a
let graph_id t g = intern t t.graphs (fun l -> t.graphs <- l) g

(* Structure and graph ids come from one counter, so one set of live ids
   covers both registries. *)
let prune t =
  let live = Hashtbl.create 16 in
  Budget_cache.fold t.cache ~init:() ~f:(fun k _ () ->
      match k with
      | KCover (i, _) | KCtx (i, _) | KHanf (i, _) | KStats i ->
          Hashtbl.replace live i ()
      | KCompiled _ -> ());
  let keep (_, i) = Hashtbl.mem live i in
  t.structs <- List.filter keep t.structs;
  t.graphs <- List.filter keep t.graphs

(* ---------------- lookups and builders ---------------- *)

let count t key ~hit =
  match t.counters with
  | Some c -> Counter.inc (if hit then c.hits else c.misses).(kind key)
  | None -> ()

let memo t key build =
  match Budget_cache.find t.cache key with
  | Some v ->
      count t key ~hit:true;
      v
  | None ->
      count t key ~hit:false;
      let v =
        Foc_obs.Scope.cue Foc_obs.Scope.Artifact (fun () ->
            Metrics.with_current t.registry build)
      in
      Budget_cache.insert t.cache key v;
      v

let built name = Counter.inc (Metrics.counter (Metrics.current ()) name)

let build_cover a ~rc =
  let cover =
    Foc_obs.span ~name:"cover" (fun () ->
        Foc_graph.Cover.make (Structure.gaifman a) ~r:rc)
  in
  built "engine.covers_built";
  cover

let cover t a ~rc =
  match
    memo t
      (KCover (graph_id t (Structure.gaifman a), rc))
      (fun () -> VCover (build_cover a ~rc))
  with
  | VCover c -> c
  | _ -> assert false

let ctx t a ~r =
  match
    memo t
      (KCtx (structure_id t a, r))
      (fun () ->
        VCtx
          (Foc_local.Pattern_count.make_ctx ?cache_bytes:t.cache_bytes t.preds
             a ~r))
  with
  | VCtx c -> c
  | _ -> assert false

let hanf t a ~r =
  match
    memo t
      (KHanf (structure_id t a, r))
      (fun () ->
        let cls = Foc_bd.Hanf.classes ~jobs:t.jobs a ~r in
        built "engine.hanf_partitions_built";
        VHanf cls)
  with
  | VHanf cls -> cls
  | _ -> assert false

let stats t a =
  match
    memo t
      (KStats (structure_id t a))
      (fun () -> VStats (Foc_stats.Stats.collect a))
  with
  | VStats s -> s
  | _ -> assert false

let compiled t phi ~build =
  let key = Ast.Key.intern (Lazy.force t.keys) phi in
  match
    memo t
      (KCompiled (Ast.Key.id key))
      (fun () ->
        let comp, bytes = build (Ast.Key.form key) in
        VCompiled { key; comp; bytes })
  with
  | VCompiled c -> c.comp
  | _ -> assert false

(* ---------------- workers ---------------- *)

let fork t =
  let w =
    {
      t with
      cache = Budget_cache.create ~size:value_bytes ();
      keys = lazy (Ast.Key.create_table ());
    }
  in
  Budget_cache.fold t.cache ~init:() ~f:(fun k v () ->
      match v with
      | VCover _ | VHanf _ -> Budget_cache.insert w.cache k v
      | VCtx _ | VStats _ | VCompiled _ -> ());
  w

(* A ball context stays with its worker: it records into the shards of
   the domain that built it. *)
let adopt ~into w =
  let obj ids i = fst (List.find (fun (_, j) -> j = i) ids) in
  let sid i = structure_id into (obj w.structs i) in
  Budget_cache.fold w.cache ~init:() ~f:(fun k v () ->
      let k =
        match k with
        | KCover (i, rc) -> Some (KCover (graph_id into (obj w.graphs i), rc))
        | KHanf (i, r) -> Some (KHanf (sid i, r))
        | KStats i -> Some (KStats (sid i))
        | KCtx _ | KCompiled _ -> None
      in
      match k with
      | Some k when not (Budget_cache.mem into.cache k) ->
          Budget_cache.insert into.cache k v
      | _ -> ())

(* ---------------- raw access for a session's policy ---------------- *)

let insert t k v = Budget_cache.insert t.cache k v
let remove t k = Budget_cache.remove t.cache k
let fold t ~init ~f = Budget_cache.fold t.cache ~init ~f
let length t = Budget_cache.length t.cache
let bytes t = Budget_cache.bytes_used t.cache
