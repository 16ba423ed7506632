open Foc_logic

(* ------------------------------------------------------------------ *)
(* Compact balls. A (2r+1)-ball is stored either as a sorted int array
   (binary-search membership, 1 word per element) or — when it covers a
   large fraction of the universe — as a bitset (n/64 words regardless of
   cardinality). Balls are immutable once built, so cache eviction can
   never invalidate a ball a sweep is still iterating. *)

type ball =
  | Sorted of int array
  | Bits of { bits : Foc_util.Bitset.t; card : int }

let ball_card = function Sorted a -> Array.length a | Bits b -> b.card

let ball_mem b v =
  match b with
  | Bits b -> v >= 0 && v < Foc_util.Bitset.capacity b.bits && Foc_util.Bitset.mem b.bits v
  | Sorted a ->
      let lo = ref 0 and hi = ref (Array.length a) in
      let found = ref false in
      while (not !found) && !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        let x = Array.unsafe_get a mid in
        if x = v then found := true
        else if x < v then lo := mid + 1
        else hi := mid
      done;
      !found

let ball_iter f = function
  | Sorted a -> Array.iter f a
  | Bits b -> Foc_util.Bitset.iter f b.bits

(* approximate heap footprint in bytes, for the cache budget *)
let ball_bytes = function
  | Sorted a -> (Array.length a + 2) * (Sys.word_size / 8)
  | Bits b -> (Foc_util.Bitset.capacity b.bits / 8) + 3 * (Sys.word_size / 8)

(* ------------------------------------------------------------------ *)
(* Capacity-bounded ball cache with second-chance ("LRU-ish") eviction:
   entries queue up in insertion order; a hit sets a reference bit; the
   evictor pops the oldest entry, re-queueing it once if the bit is set.
   The most recently inserted ball is never evicted, so a capacity of 0
   degenerates to a one-entry cache (the eviction-heavy path the tests
   pin down) instead of thrashing to nothing. *)

type entry = { ball : ball; bytes : int; mutable referenced : bool }

type cache = {
  tbl : (int, entry) Hashtbl.t;
  fifo : int Queue.t;
  capacity : int;  (* bytes *)
  mutable bytes_used : int;
}

(* The calling domain's shards of the ball counters in a registry,
   resolved once per context (when it is made or cloned) so the sweep
   records with plain int stores. *)
module Counter = Foc_obs.Metrics.Counter
module Gauge = Foc_obs.Metrics.Gauge

type meters = {
  computed : Counter.local;  (* balls computed (BFS runs) *)
  hits : Counter.local;
  evictions : Counter.local;
  bfs_visited : Counter.local;
  peak_entries : Gauge.local;
  peak_bytes : Gauge.local;
}

let meters reg =
  let c name = Counter.local (Foc_obs.Metrics.counter reg name)
  and g name = Gauge.local (Foc_obs.Metrics.gauge reg name) in
  {
    computed = c "ball.computed";
    hits = c "ball.cache_hits";
    evictions = c "ball.cache_evictions";
    bfs_visited = c "bfs.visited";
    peak_entries = g "ball.cache_peak_entries";
    peak_bytes = g "ball.cache_peak_bytes";
  }

let default_cache_bytes = 64 * 1024 * 1024

type ctx = {
  preds : Pred.collection;
  structure : Foc_data.Structure.t;
  r : int;
  threshold : int;  (* 2r+1 *)
  cache : cache;
  mutable searcher : Foc_graph.Bfs.searcher option;  (* lazy: forces gaifman *)
  seen : int array;  (* epoch-stamped candidate-dedup scratch *)
  mutable seen_epoch : int;
  reg : Foc_obs.Metrics.t;  (* the registry in scope at [make_ctx] *)
  m : meters;
}

let make_ctx ?(cache_bytes = default_cache_bytes) preds structure ~r =
  if r < 0 then invalid_arg "Pattern_count.make_ctx: negative radius";
  let reg = Foc_obs.Metrics.current () in
  {
    preds;
    structure;
    r;
    threshold = (2 * r) + 1;
    cache =
      {
        tbl = Hashtbl.create 1024;
        fifo = Queue.create ();
        capacity = max cache_bytes 0;
        bytes_used = 0;
      };
    searcher = None;
    seen = Array.make (max (Foc_data.Structure.order structure) 1) 0;
    seen_epoch = 0;
    reg;
    m = meters reg;
  }

let order ctx = Foc_data.Structure.order ctx.structure
(* A fresh ball cache and BFS arena over the same structure — one per worker
   domain, so parallel sweeps never share mutable state. The clone records
   into the same registry through its own domain's shards. *)
let clone_ctx ctx =
  {
    ctx with
    cache =
      {
        tbl = Hashtbl.create 1024;
        fifo = Queue.create ();
        capacity = ctx.cache.capacity;
        bytes_used = 0;
      };
    searcher = None;
    seen = Array.make (Array.length ctx.seen) 0;
    seen_epoch = 0;
    m = meters ctx.reg;
  }

let cache_resident_bytes ctx = ctx.cache.bytes_used

(* Re-point a context at an updated structure of the same order, keeping
   every cached ball whose centre the caller does not [drop]. Sound
   whenever the kept balls are unchanged in the new structure's Gaifman
   graph: ball contents depend only on the graph, so for unary updates
   (graph preserved) nothing need be dropped, and for edge updates only
   centres within the 2r+1 threshold of the touched elements are affected
   (exactly the invalidation radius of {!Foc_nd.Incremental}). The BFS
   searcher is rebuilt lazily against the new graph. Returns the rebound
   context and the number of balls dropped. The old context must not be
   used afterwards. *)
let rebind_ctx ctx structure ~drop =
  if Foc_data.Structure.order structure <> order ctx then
    invalid_arg "Pattern_count.rebind_ctx: order changed";
  let c = ctx.cache in
  let tbl = Hashtbl.create (max 16 (Hashtbl.length c.tbl)) in
  let fifo = Queue.create () in
  let bytes = ref 0 in
  let dropped = ref 0 in
  Queue.iter
    (fun key ->
      match Hashtbl.find_opt c.tbl key with
      | Some e when not (Hashtbl.mem tbl key) ->
          if drop key then incr dropped
          else begin
            Hashtbl.replace tbl key e;
            Queue.add key fifo;
            bytes := !bytes + e.bytes
          end
      | _ -> ())
    c.fifo;
  ( {
      ctx with
      structure;
      cache = { tbl; fifo; capacity = c.capacity; bytes_used = !bytes };
      searcher = None;
    },
    !dropped )

let searcher ctx =
  match ctx.searcher with
  | Some s -> s
  | None ->
      let s =
        Foc_graph.Bfs.searcher (Foc_data.Structure.gaifman ctx.structure)
      in
      ctx.searcher <- Some s;
      s

let cache_evict ctx =
  let c = ctx.cache in
  let continue = ref true in
  while !continue && c.bytes_used > c.capacity && Hashtbl.length c.tbl > 1 do
    match Queue.take_opt c.fifo with
    | None -> continue := false
    | Some key -> (
        match Hashtbl.find_opt c.tbl key with
        | None -> ()
        | Some e when e.referenced && not (Queue.is_empty c.fifo) ->
            (* second chance: clear the bit, requeue *)
            e.referenced <- false;
            Queue.add key c.fifo
        | Some e ->
            Hashtbl.remove c.tbl key;
            c.bytes_used <- c.bytes_used - e.bytes;
            Counter.bump ctx.m.evictions 1)
  done

let ball_of ctx v =
  match Hashtbl.find_opt ctx.cache.tbl v with
  | Some e ->
      e.referenced <- true;
      Counter.bump ctx.m.hits 1;
      e.ball
  | None ->
      let s = searcher ctx in
      let count =
        Foc_graph.Bfs.run s ~centres:[ v ] ~radius:ctx.threshold
      in
      let n = order ctx in
      let b =
        if count * 64 >= n && n > 0 then begin
          let bits = Foc_util.Bitset.create n in
          for i = 0 to count - 1 do
            Foc_util.Bitset.add bits (Foc_graph.Bfs.visited s i)
          done;
          Bits { bits; card = count }
        end
        else begin
          let a = Array.init count (Foc_graph.Bfs.visited s) in
          Foc_util.Int_sort.sort a;
          Sorted a
        end
      in
      Counter.bump ctx.m.computed 1;
      Counter.bump ctx.m.bfs_visited count;
      let bytes = ball_bytes b in
      Hashtbl.replace ctx.cache.tbl v { ball = b; bytes; referenced = false };
      Queue.add v ctx.cache.fifo;
      ctx.cache.bytes_used <- ctx.cache.bytes_used + bytes;
      Gauge.raise_to ctx.m.peak_entries (Hashtbl.length ctx.cache.tbl);
      Gauge.raise_to ctx.m.peak_bytes ctx.cache.bytes_used;
      cache_evict ctx;
      b

let close ctx u v = u = v || ball_mem (ball_of ctx u) v

(* Epoch-stamped dedup of an indexed candidate list: O(length), no sorting,
   no polymorphic compare. Collected eagerly (before any recursion) because
   the scratch array is shared across placement levels. *)
let dedup_candidates ctx l =
  ctx.seen_epoch <- ctx.seen_epoch + 1;
  let e = ctx.seen_epoch in
  List.filter
    (fun v ->
      if ctx.seen.(v) = e then false
      else begin
        ctx.seen.(v) <- e;
        true
      end)
    l

(* BFS enumeration order over the pattern's positions starting at 0: each
   later position comes with a previously-placed pattern-neighbour whose
   (2r+1)-ball supplies its candidates. *)
let bfs_order pattern =
  let k = Foc_graph.Pattern.k pattern in
  let order = ref [ (0, -1) ] in
  let seen = Array.make k false in
  seen.(0) <- true;
  let queue = Queue.create () in
  Queue.add 0 queue;
  while not (Queue.is_empty queue) do
    let i = Queue.take queue in
    for j = 0 to k - 1 do
      if (not seen.(j)) && Foc_graph.Pattern.mem_edge pattern i j then begin
        seen.(j) <- true;
        order := (j, i) :: !order;
        Queue.add j queue
      end
    done
  done;
  if Array.exists not seen then
    invalid_arg "Pattern_count: pattern not connected";
  List.rev !order

(* Pairwise closeness entailed by the body (guard-edge closure): when the
   body itself forces dist(v_i, v_j) ≤ 2r+1, the δ-pattern edge-check is
   free — no ball is ever computed. On low-diameter structures (hub-heavy
   databases) this is the difference between linear and quadratic sweeps.
   The plan also carries the BFS placement order of the pattern positions,
   computed once per sweep rather than once per anchor. *)
type plan = {
  impossible : bool;
      (* the body entails closeness across a pattern non-edge: count is 0 *)
  implied_close : bool array array;
      (* (i,j) true: skip the ball check for this pattern edge *)
  order : (int * int) list;  (* bfs_order of the pattern, minus the root *)
}

let make_plan ctx ~pattern ~vars ~body =
  let k = Foc_graph.Pattern.k pattern in
  let bounds = Locality.pairwise_bounds body vars in
  let implied_close = Array.make_matrix k k false in
  let impossible = ref false in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      match bounds.(i).(j) with
      | Some d when d <= ctx.threshold ->
          if Foc_graph.Pattern.mem_edge pattern i j then begin
            implied_close.(i).(j) <- true;
            implied_close.(j).(i) <- true
          end
          else impossible := true
      | _ -> ()
    done
  done;
  let order =
    match bfs_order pattern with
    | (0, -1) :: rest -> rest
    | _ -> assert false
  in
  { impossible = !impossible; implied_close; order }

let count_at ?plan ctx ~pattern ~vars ~body anchor =
  let k = Foc_graph.Pattern.k pattern in
  let plan =
    match plan with Some p -> p | None -> make_plan ctx ~pattern ~vars ~body
  in
  let vars = Array.of_list vars in
  if Array.length vars <> k then
    invalid_arg "Pattern_count: variable/pattern arity mismatch";
  let placed = Array.make k (-1) in
  let count = ref 0 in
  let realises_exactly () =
    let ok = ref true in
    for i = 0 to k - 1 do
      for j = i + 1 to k - 1 do
        if !ok && not plan.implied_close.(i).(j) then begin
          let is_close = close ctx placed.(i) placed.(j) in
          if is_close <> Foc_graph.Pattern.mem_edge pattern i j then ok := false
        end
      done
    done;
    !ok
  in
  let current_env () =
    (* environment of the already-placed positions *)
    let env = ref Var.Map.empty in
    Array.iteri
      (fun i x -> if placed.(i) >= 0 then env := Var.Map.add x placed.(i) !env)
      vars;
    !env
  in
  let rec place = function
    | [] ->
        if realises_exactly () then begin
          let env =
            Array.to_seq (Array.mapi (fun i x -> (x, placed.(i))) vars)
            |> Var.Map.of_seq
          in
          if Local_eval.holds ctx.preds ctx.structure env body then incr count
        end
    | (j, parent) :: rest ->
        assert (parent >= 0);
        (* candidates: indexed body atoms when available; the parent's
           (2r+1)-ball (required by δ) otherwise. When the body already
           entails closeness to the parent, indexed candidates need no ball
           filtering — and no ball is ever computed. *)
        let indexed =
          Local_eval.candidate_values ctx.structure (current_env ()) body
            vars.(j)
        in
        let implied = plan.implied_close.(parent).(j) in
        (match indexed with
        | Some l when implied ->
            List.iter
              (fun v ->
                placed.(j) <- v;
                place rest)
              (dedup_candidates ctx l)
        | Some l
          when List.length l < ball_card (ball_of ctx placed.(parent)) ->
            let parent_ball = ball_of ctx placed.(parent) in
            List.iter
              (fun v ->
                if ball_mem parent_ball v then begin
                  placed.(j) <- v;
                  place rest
                end)
              (dedup_candidates ctx l)
        | _ ->
            ball_iter
              (fun v ->
                placed.(j) <- v;
                place rest)
              (ball_of ctx placed.(parent)));
        placed.(j) <- -1
  in
  if plan.impossible then 0
  else begin
    placed.(0) <- anchor;
    place plan.order;
    !count
  end

let at ?plan ctx ~pattern ~vars ~body ~anchor =
  if Foc_graph.Pattern.k pattern = 0 then
    invalid_arg "Pattern_count.at: empty pattern has no anchor";
  count_at ?plan ctx ~pattern ~vars ~body anchor

let per_anchor ?(jobs = 1) ctx ~pattern ~vars ~body =
  let k = Foc_graph.Pattern.k pattern in
  if k = 0 then
    invalid_arg "Pattern_count.per_anchor: empty pattern has no anchor";
  let n = Foc_data.Structure.order ctx.structure in
  let plan = make_plan ctx ~pattern ~vars ~body in
  if jobs <= 1 then
    Array.init n (fun a -> count_at ~plan ctx ~pattern ~vars ~body a)
  else begin
    (* the anchors are independent; the plan is immutable and shared, the
       ball caches are per-domain clones *)
    Foc_data.Structure.prepare ctx.structure;
    Foc_par.tabulate_ctx ~jobs ~label:"sweep.anchors"
      ~make_ctx:(fun () -> clone_ctx ctx)
      n
      (fun c a -> count_at ~plan c ~pattern ~vars ~body a)
  end

let ground ?(jobs = 1) ctx ~pattern ~vars ~body =
  let k = Foc_graph.Pattern.k pattern in
  if k = 0 then begin
    if Local_eval.holds ctx.preds ctx.structure Var.Map.empty body then 1
    else 0
  end
  else begin
    let n = Foc_data.Structure.order ctx.structure in
    let plan = make_plan ctx ~pattern ~vars ~body in
    if jobs <= 1 then begin
      let total = ref 0 in
      for a = 0 to n - 1 do
        total := !total + count_at ~plan ctx ~pattern ~vars ~body a
      done;
      !total
    end
    else begin
      Foc_data.Structure.prepare ctx.structure;
      Foc_par.map_reduce_ctx ~jobs ~label:"sweep.anchors"
        ~make_ctx:(fun () -> clone_ctx ctx)
        ~n
        ~map:(fun c a -> count_at ~plan c ~pattern ~vars ~body a)
        ~reduce:( + ) 0
    end
  end
