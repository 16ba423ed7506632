module M = Foc_obs.Metrics

type plan_record = {
  pseq : int;  (* monotonically increasing since the last reset *)
  order : int list;
  steps : (float * int) list;  (* per executed join step: est, actual *)
  replanned : bool;
}

type s = {
  registry : M.t;
  tables_built : M.Counter.t;
  rows_built : M.Counter.t;
  joins : M.Counter.t;
  join_build_rows : M.Counter.t;
  join_probe_rows : M.Counter.t;
  semijoins : M.Counter.t;
  antijoins : M.Counter.t;
  complements : M.Counter.t;
  complement_rows : M.Counter.t;
  complements_avoided : M.Counter.t;
  selections_pushed : M.Counter.t;
  divisions : M.Counter.t;
  neg_extensions : M.Counter.t;
  neg_complements : M.Counter.t;
  est_rows : M.Counter.t;
  actual_rows : M.Counter.t;
  replans : M.Counter.t;
  cursors_opened : M.Counter.t;
  enum_rows : M.Counter.t;
  enum_delay : M.Histogram.t;
  enum_ttfr : M.Histogram.t;
  err_max_x100 : M.Gauge.t;
  peak_table_bytes : M.Gauge.t;
  mutable orders : int list list;  (* recent plan orders, newest first *)
  mutable plans : plan_record list;  (* recent executed plans, newest first *)
  mutable pseq : int;  (* plans ever recorded since reset *)
}

let make () =
  let registry = M.create () in
  {
    registry;
    tables_built = M.counter registry "table.built";
    rows_built = M.counter registry "table.rows_built";
    joins = M.counter registry "join.count";
    join_build_rows = M.counter registry "join.build_rows";
    join_probe_rows = M.counter registry "join.probe_rows";
    semijoins = M.counter registry "join.semijoins";
    antijoins = M.counter registry "join.antijoins";
    complements = M.counter registry "complement.full_materialisations";
    complement_rows = M.counter registry "complement.rows";
    complements_avoided = M.counter registry "planner.complements_avoided";
    selections_pushed = M.counter registry "planner.selections_pushed";
    divisions = M.counter registry "planner.divisions";
    neg_extensions = M.counter registry "planner.neg_extensions";
    neg_complements = M.counter registry "planner.neg_complements";
    est_rows = M.counter registry "planner.est_rows";
    actual_rows = M.counter registry "planner.actual_rows";
    replans = M.counter registry "planner.replans";
    cursors_opened = M.counter registry "enum.cursors_opened";
    enum_rows = M.counter registry "enum.rows";
    enum_delay = M.histogram registry "enum.delay.ns";
    enum_ttfr = M.histogram registry "enum.ttfr.ns";
    err_max_x100 = M.gauge registry "planner.err_max_x100";
    peak_table_bytes = M.gauge registry "table.peak_bytes";
    orders = [];
    plans = [];
    pseq = 0;
  }

let cur = ref (make ())
let reset () = cur := make ()

(* record side *)

let note_table ~rows ~words =
  M.Counter.inc !cur.tables_built;
  M.Counter.add !cur.rows_built rows;
  M.Gauge.set_max !cur.peak_table_bytes (8 * words)

let note_join ~build ~probe =
  M.Counter.inc !cur.joins;
  M.Counter.add !cur.join_build_rows build;
  M.Counter.add !cur.join_probe_rows probe

let note_semijoin () = M.Counter.inc !cur.semijoins
let note_antijoin () = M.Counter.inc !cur.antijoins

let note_complement ~rows =
  M.Counter.inc !cur.complements;
  M.Counter.add !cur.complement_rows rows

let note_complement_avoided () = M.Counter.inc !cur.complements_avoided
let note_selection_pushed () = M.Counter.inc !cur.selections_pushed
let note_division () = M.Counter.inc !cur.divisions
let note_neg_extension () = M.Counter.inc !cur.neg_extensions
let note_neg_complement () = M.Counter.inc !cur.neg_complements

(* saturating float -> int for the estimate counters *)
let int_of_est e =
  if Float.is_nan e || e <= 0. then 0
  else if e >= 1e18 then 1_000_000_000_000_000_000
  else int_of_float e

let note_op_card ~est ~actual =
  M.Counter.add !cur.est_rows (int_of_est est);
  M.Counter.add !cur.actual_rows actual

let note_replan () = M.Counter.inc !cur.replans
let note_cursor_opened () = M.Counter.inc !cur.cursors_opened

let note_enum_row ~delay_ns =
  M.Counter.inc !cur.enum_rows;
  M.Histogram.observe !cur.enum_delay delay_ns

let note_enum_first ~ns = M.Histogram.observe !cur.enum_ttfr ns

let note_plan_error ~ratio =
  M.Gauge.set_max !cur.err_max_x100 (int_of_est (ratio *. 100.))

let rec take k = function
  | x :: rest when k > 0 -> x :: take (k - 1) rest
  | _ -> []

(* The plan rings are shared by every domain that runs the baseline
   (session batches fall back on pool workers), so they change under a
   lock; the counters above shard per domain and need none. *)
let ring_lock = Mutex.create ()

let with_rings f =
  Mutex.lock ring_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock ring_lock) (fun () -> f !cur)

let note_plan_order order =
  with_rings (fun s -> s.orders <- order :: take 63 s.orders)

(* the structured record behind the server's [explain] op: the executed
   join order with each step's predicted vs actual rows *)
let note_plan_exec ~order ~steps ~replanned =
  with_rings (fun s ->
      s.pseq <- s.pseq + 1;
      s.plans <- { pseq = s.pseq; order; steps; replanned } :: take 63 s.plans)

(* read side *)

let tables_built () = M.Counter.value !cur.tables_built
let rows_built () = M.Counter.value !cur.rows_built
let joins () = M.Counter.value !cur.joins
let join_build_rows () = M.Counter.value !cur.join_build_rows
let join_probe_rows () = M.Counter.value !cur.join_probe_rows
let semijoins () = M.Counter.value !cur.semijoins
let antijoins () = M.Counter.value !cur.antijoins
let complements () = M.Counter.value !cur.complements
let complement_rows () = M.Counter.value !cur.complement_rows
let complements_avoided () = M.Counter.value !cur.complements_avoided
let selections_pushed () = M.Counter.value !cur.selections_pushed
let divisions () = M.Counter.value !cur.divisions
let neg_extensions () = M.Counter.value !cur.neg_extensions
let neg_complements () = M.Counter.value !cur.neg_complements
let est_rows () = M.Counter.value !cur.est_rows
let actual_rows () = M.Counter.value !cur.actual_rows
let replans () = M.Counter.value !cur.replans
let cursors_opened () = M.Counter.value !cur.cursors_opened
let enum_rows () = M.Counter.value !cur.enum_rows
let enum_delay_quantile q = M.Histogram.quantile !cur.enum_delay q
let enum_ttfr_quantile q = M.Histogram.quantile !cur.enum_ttfr q
let err_max_x100 () = M.Gauge.value !cur.err_max_x100
let plan_orders () = with_rings (fun s -> List.rev s.orders)
let plan_seq () = with_rings (fun s -> s.pseq)

let plans_since seq =
  with_rings (fun s ->
      List.rev (List.filter (fun (p : plan_record) -> p.pseq > seq) s.plans))

let registry () = !cur.registry
let peak_table_bytes () = M.Gauge.value !cur.peak_table_bytes
let line () = M.line !cur.registry
let report () = M.report !cur.registry
