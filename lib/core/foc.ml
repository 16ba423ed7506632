(** The public face of the library: one module re-exporting every component
    plus a small high-level API.

    [Foc] reproduces Grohe & Schweikardt, "First-Order Query Evaluation
    with Cardinality Conditions" (PODS 2018): the logic FOC(P) and its
    fragment FOC1(P), reference evaluators, the hardness reductions of
    Section 4, and the fixed-parameter almost-linear evaluation algorithm
    of Sections 6–8 for nowhere dense classes.

    Quickstart:
    {[
      let g = Foc.Gen.random_tree (Random.State.make [| 1 |]) 1000 in
      let a = Foc.Structure.of_graph g in
      let t = Foc.parse_term "#(y). E(x,y)" in
      let eng = Foc.Engine.create () in
      let degrees = Foc.Engine.eval_unary eng a "x" t in
      ...
    ]} *)

(* combinatorial substrate *)
module Bitset = Foc_util.Bitset
module Combi = Foc_util.Combi
module Prime = Foc_util.Prime
module Par = Foc_par

(* observability: clock, spans, metrics, exporters *)
module Obs = Foc_obs

(* graphs *)
module Graph = Foc_graph.Graph
module Bfs = Foc_graph.Bfs
module Components = Foc_graph.Components
module Pattern = Foc_graph.Pattern
module Gen = Foc_graph.Gen
module Cover = Foc_graph.Cover
module Splitter = Foc_graph.Splitter

(* structures *)
module Signature = Foc_data.Signature
module Tuple = Foc_data.Tuple
module Structure = Foc_data.Structure
module Removal_op = Foc_data.Removal_op
module Strings = Foc_data.Strings
module Db_gen = Foc_data.Db_gen
module Structure_io = Foc_data.Io

(* logic *)
module Var = Foc_logic.Var
module Pred = Foc_logic.Pred
module Ast = Foc_logic.Ast
module Planner = Foc_logic.Planner
module Measure = Foc_logic.Measure
module Pp = Foc_logic.Pp
module Simplify = Foc_logic.Simplify
module Parser = Foc_logic.Parser
module Fragment = Foc_logic.Fragment
module Dist_formula = Foc_logic.Dist_formula
module Query = Foc_logic.Query

(* statistics for cost-based planning *)
module Stats = Foc_stats.Stats
module Stat_summary = Foc_stats.Summary

(* reference evaluation *)
module Naive = Foc_eval.Naive
module Table = Foc_eval.Table
module Counts = Foc_eval.Counts
module Relalg = Foc_eval.Relalg
module Enum = Foc_eval.Enum
module Eval_obs = Foc_eval.Eval_obs

(* the paper's machinery *)
module Locality = Foc_local.Locality
module Local_eval = Foc_local.Local_eval
module Split = Foc_local.Split
module Pattern_count = Foc_local.Pattern_count
module Clterm = Foc_local.Clterm
module Decompose = Foc_local.Decompose
module Removal = Foc_local.Removal
module Cover_term = Foc_local.Cover_term
module Normal_form = Foc_local.Normal_form

(* the main engine *)
module Engine = Foc_nd.Engine
module Splitter_backend = Foc_nd.Splitter_backend
module Hanf_backend = Foc_nd.Hanf_backend
module Ball_type = Foc_bd.Ball_type
module Hanf = Foc_bd.Hanf
module Classes = Foc_nd.Classes
module Incremental = Foc_nd.Incremental
module Plan = Foc_nd.Plan
module Artifact_store = Foc_nd.Artifact_store
module Budget_cache = Foc_nd.Budget_cache
module Session = Foc_serve.Session

(* persistent prepared-structure store *)
module Store = Foc_store.Store
module Wal = Foc_store.Wal

(* the query-server daemon *)
module Server = Foc_server.Server
module Server_protocol = Foc_server.Protocol
module Server_client = Foc_server.Client

(* hardness reductions (Section 4) *)
module Tree_encoding = Foc_hardness.Tree_encoding
module String_encoding = Foc_hardness.String_encoding

(* SQL frontend (Example 5.3) *)
module Sql_schema = Foc_sql.Schema
module Sql_query = Foc_sql.Sql_query
module Sql_compile = Foc_sql.Compile
module Aggregates = Foc_sql.Aggregates

(* ------------------------------------------------------------------ *)
(* convenience API *)

(** The standard numerical predicate collection. *)
let predicates = Pred.standard

(** [parse_formula src] with the standard predicates. Raises
    [Parser.Error]. *)
let parse_formula src = Parser.formula predicates src

(** [parse_term src] with the standard predicates. *)
let parse_term src = Parser.term predicates src

(** [check a src] — parse and model-check a sentence with a default
    engine. *)
let check a src = Engine.check (Engine.create ()) a (parse_formula src)

(** [count a src] — parse and evaluate a ground counting term. *)
let count a src = Engine.eval_ground (Engine.create ()) a (parse_term src)

(** [eval_at_all a x src] — parse a unary term and evaluate it at every
    element. *)
let eval_at_all a x src =
  Engine.eval_unary (Engine.create ()) a x (parse_term src)
