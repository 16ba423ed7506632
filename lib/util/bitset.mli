(** Mutable fixed-capacity bitsets over the domain [0 .. capacity-1].

    Used in hot loops of the graph algorithms (BFS frontiers, cover kernels)
    where a [Set.Make (Int)] would allocate too much. *)

type t

(** [create n] is an empty bitset with capacity [n] (domain [0..n-1]). *)
val create : int -> t

(** Capacity the set was created with. *)
val capacity : t -> int

(** [mem s i] tests membership. Raises [Invalid_argument] when [i] is outside
    the domain. *)
val mem : t -> int -> bool

(** [add s i] inserts [i]. *)
val add : t -> int -> unit

(** [remove s i] deletes [i]. *)
val remove : t -> int -> unit

(** Number of elements currently in the set; O(capacity/64). *)
val cardinal : t -> int

(** Remove every element; O(capacity/64). *)
val clear : t -> unit

(** [next s i] is the least member [>= i], or [capacity s] when there is
    none; [i >= 0]. Skips empty bytes whole and allocates nothing, so
    [let v = ref (next s 0) in while !v < capacity s do … v := next s (!v + 1) done]
    walks the members in increasing order. *)
val next : t -> int -> int

(** [iter f s] applies [f] to every member in increasing order. *)
val iter : (int -> unit) -> t -> unit

(** Members in increasing order. *)
val to_list : t -> int list

(** [of_list n xs] is the bitset with capacity [n] holding exactly [xs]. *)
val of_list : int -> int list -> t

(** Deep copy. *)
val copy : t -> t

(** [subset a b] tests whether every member of [a] belongs to [b]; the two
    sets must have equal capacity. *)
val subset : t -> t -> bool

(** [equal a b] tests extensional equality; capacities must agree. *)
val equal : t -> t -> bool
