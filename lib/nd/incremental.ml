open Foc_logic
open Foc_local
module Structure = Foc_data.Structure

(* The cached per-anchor vector of one basic leaf of width >= 1 (for a
   ground leaf, the per-anchor contributions whose sum is its value). *)
type leaf = { basic : Clterm.basic; mutable per_anchor : int array }

type t = {
  preds : Pred.collection;
  mutable a : Structure.t;
  term : Clterm.t;
  leaves : leaf list;
  sentences : int;  (* width-0 ground leaves, re-decided on every update *)
  mutable values : int array;
  (* observability: sentence re-checks and ball counters show the
     incremental engine's costs that the affected-anchor count does not *)
  m : Foc_obs.Metrics.t;
  rechecks : Foc_obs.Metrics.Counter.t;
  affected_h : Foc_obs.Metrics.Histogram.t;
}

let leaf_radius (l : leaf) =
  let k = Foc_graph.Pattern.k l.basic.Clterm.pattern in
  max 1 (k * ((2 * l.basic.Clterm.radius) + 1))

(* One Pattern_count context per distinct radius, shared by every leaf of
   that radius within a single create/apply pass — the ball caches then
   amortise across leaves instead of being rebuilt per leaf. The contexts
   come from a call store, so they record into the instance's registry. *)
let ctx_by_radius t a =
  let store = Artifact_store.create ~registry:t.m ~preds:t.preds ~jobs:1 () in
  fun r -> Artifact_store.ctx store a ~r

(* The cached leaf vectors are the sweep: the polynomial is re-evaluated
   over them (sentence leaves are decided on the current structure). *)
let evaluate t =
  Foc_obs.Metrics.Counter.add t.rechecks t.sentences;
  let per_anchor b =
    (List.find (fun l -> l.basic == b) t.leaves).per_anchor
  in
  t.values <- Clterm.eval_unary (Clterm.sweep t.preds t.a per_anchor) t.term

let create preds a term =
  let width0, leaves =
    List.partition
      (fun b -> Foc_graph.Pattern.k b.Clterm.pattern = 0)
      (Clterm.basics term)
  in
  let m = Foc_obs.Metrics.create () in
  let t =
    {
      preds;
      a;
      term;
      leaves = List.map (fun basic -> { basic; per_anchor = [||] }) leaves;
      sentences = List.length width0;
      values = [||];
      m;
      rechecks = Foc_obs.Metrics.counter m "incr.sentence_rechecks";
      affected_h = Foc_obs.Metrics.histogram m "incr.update.affected";
    }
  in
  Foc_obs.span ~name:"incr.create" (fun () ->
      let ctx_for = ctx_by_radius t a in
      List.iter
        (fun l ->
          let b = l.basic in
          l.per_anchor <-
            Pattern_count.per_anchor (ctx_for b.Clterm.radius)
              ~pattern:b.Clterm.pattern ~vars:b.Clterm.vars ~body:b.Clterm.body)
        t.leaves;
      evaluate t);
  t

let values t = t.values
let structure t = t.a
let metrics t = t.m
let stats_line t = Foc_obs.Metrics.line t.m

let touched ~before ~after tup ~radius =
  let centres = List.sort_uniq compare (Array.to_list tup) in
  let set = Hashtbl.create 64 in
  List.iter
    (fun structure ->
      List.iter
        (fun v -> Hashtbl.replace set v ())
        (Structure.ball structure ~centres ~radius))
    [ before; after ];
  set

let apply t name tup ~insert =
  Foc_obs.span ~name:"incr.update" (fun () ->
      let before = t.a in
      let after =
        if insert then Structure.add_tuples before name [ tup ]
        else Structure.remove_tuples before name [ tup ]
      in
      let radius =
        List.fold_left (fun acc l -> max acc (leaf_radius l)) 1 t.leaves
      in
      let affected = touched ~before ~after tup ~radius in
      t.a <- after;
      let ctx_for = ctx_by_radius t after in
      List.iter
        (fun { basic = b; per_anchor } ->
          let ctx = ctx_for b.Clterm.radius in
          let pattern = b.Clterm.pattern
          and vars = b.Clterm.vars
          and body = b.Clterm.body in
          let plan = Pattern_count.make_plan ctx ~pattern ~vars ~body in
          Hashtbl.iter
            (fun anchor () -> per_anchor.(anchor) <- Pattern_count.at ctx plan anchor)
            affected)
        t.leaves;
      evaluate t;
      let k = Hashtbl.length affected in
      Foc_obs.Metrics.Histogram.observe t.affected_h k;
      k)

let insert t name tup = apply t name tup ~insert:true
let delete t name tup = apply t name tup ~insert:false
