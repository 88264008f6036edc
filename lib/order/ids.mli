(** Node identifiers and the container modules used throughout the library.

    Every object of the composite-system model (leaf operation, internal
    transaction, root transaction, schedule) is designated by a dense
    integer identifier allocated by the structure that owns it; all
    relations of the paper (weak/strong orders, observed order, conflicts)
    are finite binary relations over these identifiers. *)

type id = int

module Int_set : Set.S with type elt = int
module Int_map : Map.S with type key = int

(** Ordered pairs of identifiers, for sets of (conflict) pairs. *)
module Pair : sig
  type t = id * id

  val compare : t -> t -> int

  val normalise : t -> t
  (** Smaller identifier first — the canonical form for unordered pairs. *)
end

module Pair_set : Set.S with type elt = Pair.t

val pp_set : Format.formatter -> Int_set.t -> unit
