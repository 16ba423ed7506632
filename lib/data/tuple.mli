(** Tuples of structure elements: immutable-by-convention [int array]s with a
    total order, plus {!Set}, the packed row store that holds
    every relation — of a structure ({!Structure}) and of an intermediate
    relational-algebra table alike. *)

type t = int array

(** Lexicographic order; shorter tuples first on length mismatch. *)
val compare : t -> t -> int

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** The packed relation core: [nrows] rows of [width] ints, row-major in
    one flat [data] array (possibly over-allocated), sorted
    lexicographically and deduplicated — membership is binary search and
    union/difference are linear merges. Fields are readable for
    allocation-free index loops; only the functions below build values. A
    [width = 0] core has at most one (empty) row. *)
module Set : sig
  type t = private { width : int; nrows : int; data : int array }

  val empty : int -> t
  val cardinal : t -> int
  val is_empty : t -> bool

  (** [of_dense width data nrows] takes ownership of [data] and sorts +
      deduplicates its first [nrows] rows — O(rows) when already sorted
      and distinct. Entries are not range-checked. *)
  val of_dense : int -> int array -> int -> t

  (** [of_sorted width data nrows] adopts rows in strictly increasing
      order, unchecked: a violated order makes {!mem} answer wrongly. *)
  val of_sorted : int -> int array -> int -> t

  (** [of_list width rows] — every row of length [width] (unchecked). *)
  val of_list : int -> int array list -> t

  (** Growable row buffer: [add] copies a row (its first [width] ints),
      [add_sub b src ofs] the [width] ints of [src] at [ofs]; [build]
      sorts + deduplicates, [build_sorted] seals rows added in strictly
      increasing order (unchecked). *)
  module Builder : sig
    type b

    val create : ?hint:int -> int -> b
    val add : b -> int array -> unit
    val add_sub : b -> int array -> int -> unit
    val build : b -> t
    val build_sorted : b -> t
  end

  (** [cell s r c] — entry [c] of row [r]. *)
  val cell : t -> int -> int -> int

  (** [row s r] — a fresh copy of row [r]. *)
  val row : t -> int -> int array

  (** [seek_col s ~lo ~hi ~col v] — the first row in [[lo,hi)] whose column
      [col] is ≥ [v], or [hi]; the rows of the range must agree on the
      columns before [col]. Galloping search from [lo]: O(log d) for a
      seek that moves [d] rows, so a forward scan is linear. *)
  val seek_col : t -> lo:int -> hi:int -> col:int -> int -> int

  (** [lower_bound s key] — the first row ≥ [key], or [cardinal s]. *)
  val lower_bound : t -> int array -> int

  (** [mem row s] — binary search; [false] on a width mismatch. *)
  val mem : int array -> t -> bool

  (** [iter f s] — every row in lexicographic order, through one scratch
      buffer reused between calls ([Array.copy] it to retain). *)
  val iter : (int array -> unit) -> t -> unit

  (** Fresh copies of the rows, in order. *)
  val elements : t -> int array list

  (** [map f s] applies [f] to every entry and re-sorts. *)
  val map : (int -> int) -> t -> t

  (** [cmp2 a i b j width] compares [width] ints of [a] at [i] with those
      of [b] at [j], lexicographically. *)
  val cmp2 : int array -> int -> int array -> int -> int -> int

  (** Linear sorted merges of two cores of the same width. *)
  val union : t -> t -> t

  val diff : t -> t -> t
  val equal : t -> t -> bool
end
