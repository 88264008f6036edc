(** Deterministic pseudo-random numbers (splitmix64).

    Every generator and simulation in this repository draws randomness from
    an explicit {!t} seeded by the caller, so experiments and property tests
    are reproducible bit-for-bit across runs and machines. *)

type t

val create : seed:int -> t

val bits64 : t -> int64

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)].  [n] must be positive. *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val float : t -> float -> float
(** Uniform in [\[0, bound)]. *)

val pick : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val pick_arr : t -> 'a array -> 'a

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> 'a list -> 'a list
