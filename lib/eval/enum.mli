(** Pull-based answer enumeration: preprocessing-then-enumeration in the
    style of Kazana–Segoufin (arXiv:1105.3583).

    A cursor yields query answers one at a time in the {e canonical row
    order} — ascending lexicographic on the head tuple, exactly the order
    {!Relalg.query} materialises — so a drained cursor is bit-identical
    (content and order) to the materialised answer list, and [?after]
    resumption is well-defined.

    Producers: {!of_table} streams the planned body search of
    {!Relalg.head_search} (the join plan's prefix is materialised up
    front, its last join runs lazily in head order);
    {!walk} enumerates a conjunctive join (negated conjuncts included)
    over sorted per-conjunct tables with the {!Leapfrog} kernel —
    linear-ish preprocessing, then a per-answer delay of
    O(k·#conjuncts·log n) independent of the output size (plus the
    candidates a negated conjunct skips), with no output
    materialisation. Producer selection lives in
    [Engine.enumerate].

    Every cursor feeds {!Eval_obs}: cursors opened, rows yielded, the
    [enum.delay.ns] per-[next] histogram, and [enum.ttfr.ns]
    (time-to-first-row including producer preprocessing). *)

open Foc_logic

(** One answer: the head tuple and the head-term values. *)
type row = int array * int array

type cursor = {
  producer : string;  (** which producer backs it: ["walk"], ["table"], … *)
  next : unit -> row option;
      (** The next answer, or [None] once exhausted, closed, or past
          [?limit]. Exhaustion latches: further calls keep returning
          [None]. *)
  close : unit -> unit;  (** Idempotent; subsequent [next] returns [None]. *)
}

val producer : cursor -> string

(** [make ~producer ~next ~close ()] wraps a raw generator with limit
    enforcement, close/exhaustion latching and {!Eval_obs}
    instrumentation. [?limit] caps the number of yielded rows. *)
val make :
  ?limit:int ->
  producer:string ->
  next:(unit -> row option) ->
  close:(unit -> unit) ->
  unit ->
  cursor

(** [of_table ~values next] streams the head-order bindings of a planned
    body search ({!Relalg.head_search}, which takes the [?after] resume
    point) under the producer name ["table"]; [values row] computes the
    head-term values ([row] is freshly allocated per answer and may be
    retained). *)
val of_table :
  ?limit:int ->
  values:(int array -> int array) ->
  (unit -> int array option) ->
  cursor

(** [walk ~values ~n ~head ~neg conjuncts] enumerates the natural join of
    the [conjuncts] minus every binding some table of [neg] contains (each
    table's columns a subset of [head], raising [Invalid_argument]
    otherwise), extended with the full domain [0..n-1] on head variables
    no positive conjunct mentions — the answer set [Relalg.query]
    materialises for a conjunction of those atoms and negated atoms — in
    ascending lexicographic order on the [head] tuple. The lazy form of
    the {!Leapfrog} kernel: binding head position [i] intersects, by
    galloping seeks, the candidate values of every positive conjunct
    whose next column is [i], and skips the values a negated conjunct
    ending at [i] contains. *)
val walk :
  ?limit:int ->
  ?after:int array ->
  values:(int array -> int array) ->
  n:int ->
  head:Var.t array ->
  neg:Table.t list ->
  Table.t list ->
  cursor

(** [of_rows ~producer rows] streams a pre-computed answer list (assumed
    already in canonical order); [?after] drops rows ≤ the given tuple. *)
val of_rows :
  ?limit:int -> ?after:int array -> producer:string -> row list -> cursor

(** Drain the cursor into a list (and close it). *)
val to_list : cursor -> row list
