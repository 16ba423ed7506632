(** A capacity-bounded cache keyed by the elements [0 .. order-1] (ball
    centres), in flat arrays, with second-chance eviction.

    The layout: the value of each centre (a caller-given [dummy] when the
    centre is not resident), one state byte per centre (absent, resident,
    resident and referenced since it last went round), and a ring buffer of
    the resident centres in insertion order. A hit sets the centre's
    referenced state; the evictor takes the oldest centre, sends it round
    once more if it was referenced, and evicts it otherwise. Eviction weighs
    the values' sizes against the capacity, and never evicts the last
    resident, so a capacity of 0 keeps one entry.

    Nothing is allocated until the first {!add}: a cache that is never
    filled holds no table. *)

type 'a t

(** [create ~order ~capacity ~dummy ~size] — [size v] is the weight of
    value [v] in bytes; [capacity <= 0] keeps one entry. [dummy] must not
    be stored. *)
val create : order:int -> capacity:int -> dummy:'a -> size:('a -> int) -> 'a t

(** [find c v] — the value of centre [v], marked referenced, or [dummy]
    (physically) when [v] is not resident. Allocates nothing. *)
val find : 'a t -> int -> 'a

(** [add c v x] — make [v], not resident, resident with value [x]. Does
    not evict: call {!evict} after reading the peaks. *)
val add : 'a t -> int -> 'a -> unit

(** Evict until the values fit the capacity or one resident is left;
    returns the number evicted. *)
val evict : 'a t -> int

(** [filter c keep] — drop the residents whose centre fails [keep],
    keeping the others in their order and state; returns the number
    dropped. *)
val filter : 'a t -> (int -> bool) -> int

(** Resident centres. *)
val entries : 'a t -> int

(** Total size of the resident values. *)
val bytes : 'a t -> int

(** Approximate heap bytes of the table itself (0 until the first
    {!add}). *)
val footprint : 'a t -> int
