(* Node identifiers and the container modules used throughout the library.

   Every object of the composite-system model (leaf operation, internal
   transaction, root transaction, schedule) is designated by a dense integer
   identifier allocated by the structure that owns it.  All relations of the
   paper (weak/strong orders, observed order, conflicts) are finite binary
   relations over these identifiers. *)

type id = int

module Int_set = Set.Make (Int)
module Int_map = Map.Make (Int)

(* A pair of identifiers, ordered lexicographically; used for unordered
   conflict pairs where we normalise to [min, max]. *)
module Pair = struct
  type t = id * id

  let compare (a, b) (c, d) =
    match Int.compare a c with 0 -> Int.compare b d | n -> n

  let normalise (a, b) = if a <= b then (a, b) else (b, a)
end

module Pair_set = Set.Make (Pair)

let pp_set ppf s =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma int) (Int_set.elements s)
