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

(* approximate heap footprint in bytes, for the cache budget *)
let ball_bytes = function
  | Sorted a -> (Array.length a + 2) * (Sys.word_size / 8)
  | Bits b -> (Foc_util.Bitset.capacity b.bits / 8) + 3 * (Sys.word_size / 8)

(* ------------------------------------------------------------------ *)
(* The balls a context has computed, in a dense second-chance table
   ({!Ball_cache}): indexed by centre, allocated on the first ball. The
   most recently computed ball is never evicted, so a capacity of 0
   degenerates to a one-entry cache (the eviction-heavy path the tests pin
   down) instead of thrashing to nothing. *)

(* the empty ball: the cache's "not resident" and the sweep's "no filter" *)
let no_ball = Sorted [||]

let new_cache structure capacity =
  Ball_cache.create ~order:(Foc_data.Structure.order structure) ~capacity
    ~dummy:no_ball ~size:ball_bytes

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
  cache_bytes : int;
  cache : ball Ball_cache.t;
  scratch : Local_eval.scratch;  (* BFS arena and the compiled bodies' space *)
  mutable env : int array;  (* the placement slots, grown to the widest plan *)
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
    cache_bytes;
    cache = new_cache structure cache_bytes;
    scratch = Local_eval.scratch structure;
    env = [||];
    reg;
    m = meters reg;
  }

let order ctx = Foc_data.Structure.order ctx.structure
let structure ctx = ctx.structure
let preds ctx = ctx.preds

(* A fresh ball cache and BFS arena over the same structure — one per worker
   domain, so parallel sweeps never share mutable state. The clone records
   into the same registry through its own domain's shards. *)
let clone_ctx ctx =
  {
    ctx with
    cache = new_cache ctx.structure ctx.cache_bytes;
    scratch = Local_eval.scratch ctx.structure;
    env = [||];
    m = meters ctx.reg;
  }

let cache_resident_bytes ctx =
  Ball_cache.bytes ctx.cache + Ball_cache.footprint ctx.cache

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
  let dropped = Ball_cache.filter ctx.cache (fun v -> not (drop v)) in
  ({ ctx with structure; scratch = Local_eval.scratch structure }, dropped)

let ball_of ctx v =
  let cached = Ball_cache.find ctx.cache v in
  if cached != no_ball then begin
    Counter.bump ctx.m.hits 1;
    cached
  end
  else begin
    let s = Local_eval.searcher ctx.scratch in
    let count = Foc_graph.Bfs.run s ~centres:[ v ] ~radius:ctx.threshold in
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
    Ball_cache.add ctx.cache v b;
    Gauge.raise_to ctx.m.peak_entries (Ball_cache.entries ctx.cache);
    Gauge.raise_to ctx.m.peak_bytes (Ball_cache.bytes ctx.cache);
    Counter.bump ctx.m.evictions (Ball_cache.evict ctx.cache);
    b
  end

let close ctx u v = u = v || ball_mem (ball_of ctx u) v

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
  Array.of_list (List.rev !order)

(* One placement level of the sweep: the pattern position it places, the
   placed neighbour whose ball bounds its candidates, an indexed source
   from the body's atoms, the earlier positions whose δ-relation (close iff
   a pattern edge) it must check, and the body's conjuncts that become
   decidable here. *)
type level = {
  pos : int;
  parent : int;  (* -1 at the anchor *)
  implied : bool;  (* the body entails closeness to the parent *)
  seek : Local_eval.seek option;
  far : int array;  (* earlier positions to check, bar the parent *)
  edge : bool array;  (* per [far]: must it be close? *)
  check : Local_eval.test;
}

(* The per-sweep plan: the levels in the pattern's BFS order, with the body
   compiled once. Pairwise closeness entailed by the body (guard-edge
   closure) makes a δ edge-check free — no ball is ever computed for it; on
   low-diameter structures (hub-heavy databases) this is the difference
   between linear and quadratic sweeps. *)
type plan = {
  impossible : bool;
      (* the body entails closeness across a pattern non-edge: count is 0 *)
  width : int;  (* environment slots *)
  levels : level array;
}

let make_plan ctx ~pattern ~vars ~body =
  Foc_obs.span ~name:"plan" (fun () ->
      let k = Foc_graph.Pattern.k pattern in
      if k = 0 then invalid_arg "Pattern_count: empty pattern has no anchor";
      if List.length vars <> k then
        invalid_arg "Pattern_count: variable/pattern arity mismatch";
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
      let order = bfs_order pattern in
      let st =
        Local_eval.stage ctx.preds ctx.structure ~vars ~order:(Array.map fst order)
          body
      in
      let levels =
        Array.mapi
          (fun l (pos, parent) ->
            let far =
              List.filter
                (fun i -> i <> parent && not implied_close.(i).(pos))
                (List.init l (fun l' -> fst order.(l')))
            in
            {
              pos;
              parent;
              implied = parent >= 0 && implied_close.(parent).(pos);
              seek = Local_eval.seek st l;
              far = Array.of_list far;
              edge =
                Array.of_list
                  (List.map (fun i -> Foc_graph.Pattern.mem_edge pattern i pos) far);
              check = Local_eval.check st l;
            })
          order
      in
      { impossible = !impossible; width = Local_eval.stage_width st; levels })

(* the placed value at [lv.pos] against the earlier positions' balls *)
let realises ctx env lv =
  let v = env.(lv.pos) in
  let ok = ref true and i = ref 0 in
  while !ok && !i < Array.length lv.far do
    ok := close ctx env.(lv.far.(!i)) v = lv.edge.(!i);
    incr i
  done;
  !ok

(* The sweep below one anchor: a top-level recursion over the plan's
   levels, so an anchor allocates no closure. [below ctx plan l] counts the
   extensions of the positions placed before level [l]; its candidates are
   the indexed body atoms' when available, the parent's (2r+1)-ball
   (required by δ) otherwise. When the body already entails closeness to
   the parent, indexed candidates need no ball filtering, and no ball is
   ever computed. *)
let rec below ctx plan l =
  let levels = plan.levels in
  if l = Array.length levels then 1
  else
    let lv = levels.(l) in
    match lv.seek with
    | Some sk when lv.implied -> seeked ctx plan l sk no_ball
    | Some sk ->
        let b = ball_of ctx ctx.env.(lv.parent) in
        if Local_eval.seek_estimate sk ctx.env < ball_card b then
          seeked ctx plan l sk b
        else in_ball ctx plan l b
    | None -> in_ball ctx plan l (ball_of ctx ctx.env.(lv.parent))

(* [v] placed at level [l]: the extensions below it, 0 when it fails *)
and place ctx plan l v =
  let lv = plan.levels.(l) and env = ctx.env in
  env.(lv.pos) <- v;
  if lv.check ctx.scratch env && realises ctx env lv then
    below ctx plan (l + 1)
  else 0

(* the seek's candidates, read by index from the scratch's buffer stack;
   only those in [filter] unless it is [no_ball] *)
and seeked ctx plan l sk filter =
  let s = ctx.scratch in
  let n = Local_eval.fill sk s ctx.env in
  let buf = Local_eval.buffer s in
  let total = ref 0 in
  for i = 0 to n - 1 do
    let v = Array.unsafe_get buf i in
    if filter == no_ball || ball_mem filter v then
      total := !total + place ctx plan l v
  done;
  Local_eval.release s;
  !total

and in_ball ctx plan l = function
  | Sorted a ->
      let total = ref 0 in
      for i = 0 to Array.length a - 1 do
        total := !total + place ctx plan l (Array.unsafe_get a i)
      done;
      !total
  | Bits b ->
      let cap = Foc_util.Bitset.capacity b.bits in
      let total = ref 0 and v = ref (Foc_util.Bitset.next b.bits 0) in
      while !v < cap do
        total := !total + place ctx plan l !v;
        v := Foc_util.Bitset.next b.bits (!v + 1)
      done;
      !total

let at ctx plan anchor =
  if plan.impossible then 0
  else begin
    if Array.length ctx.env < plan.width then ctx.env <- Array.make plan.width 0;
    place ctx plan 0 anchor
  end

let per_anchor ?(jobs = 1) ctx ~pattern ~vars ~body =
  let plan = make_plan ctx ~pattern ~vars ~body in
  let n = Foc_data.Structure.order ctx.structure in
  if jobs <= 1 then Array.init n (at ctx plan)
  else begin
    (* the anchors are independent; the plan is shared (its index memos
       are idempotent on the prepared structure), the ball caches and
       evaluator scratch are per-domain clones *)
    Foc_data.Structure.prepare ctx.structure;
    Foc_par.tabulate_ctx ~jobs ~label:"sweep.anchors"
      ~make_ctx:(fun () -> clone_ctx ctx)
      n
      (fun c a -> at c plan a)
  end
