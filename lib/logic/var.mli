(** Variables of the logic (the countably infinite set [vars] of Section 2).

    Variables are plain strings; fresh variables are generated from a global
    atomic counter (so they stay unique across domains) and start with
    ['_'], a character the concrete-syntax parser rejects in user
    variables — so generated names can never collide with parsed ones. *)

type t = string

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** [fresh ()] is a globally fresh variable ["_g<n>"]. *)
val fresh : unit -> t

(** [fresh_like x] is a fresh variable whose name starts with [x]'s name —
    handy for readable α-renamings. *)
val fresh_like : t -> t

(** Variable sets. *)
module Set : Set.S with type elt = t

(** Finite maps keyed by variables. *)
module Map : Map.S with type key = t
