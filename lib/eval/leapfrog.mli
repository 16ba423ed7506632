(** The one join kernel: a backtracking leapfrog (generic join) over packed
    relation cores, in the preprocess-then-enumerate style of
    Kazana–Segoufin (arXiv:1105.3583). {!Table.join}, {!Table.semijoin},
    {!Table.antijoin} drain it; {!Enum.walk} is its lazy form.

    A search runs over a variable order of [width] depths and enumerates,
    in ascending lexicographic order, every binding of the depths such
    that each positive atom contains its projection and no negated atom
    does. Depth [i] intersects the candidate values of the positive atoms
    with a column there by galloping {!Foc_data.Tuple.Set.seek_col} seeks;
    a depth no positive atom covers ranges over [0..n-1]. A negated atom
    is checked by seek-and-skip once its last column is bound: a value
    whose binding it contains ({!Foc_data.Tuple.Set.mem}) is skipped and
    the search moves on to the next one. *)

(** One conjunct: column [c] of [core] binds depth [pos.(c)]; [pos] is
    strictly increasing (the core is aligned to the order), so the core's
    lexicographic row order agrees with the search's. *)
type atom = { core : Foc_data.Tuple.Set.t; pos : int array; neg : bool }

(** [search ~n ~width atoms] prepares the search and returns its [next]
    function: each call yields the next binding, or [None] once exhausted
    (latched). The yielded array is the kernel's own buffer, overwritten
    by the following call — copy it to retain. [?after] (a full-width
    binding) resumes strictly after it, by seeking rather than scanning.
    Raises [Invalid_argument] on a misaligned atom or an [?after] of the
    wrong width. *)
val search :
  ?after:int array ->
  n:int ->
  width:int ->
  atom list ->
  unit ->
  int array option
