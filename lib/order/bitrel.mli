(** Dense bitset-backed relations over a compacted node universe.

    This is the performance kernel behind {!Rel}: a relation over a fixed,
    known universe of nodes, stored as one bit row per node ([Sys.int_size]
    adjacency bits per word).  The graph algorithms that dominate the
    Comp-C decision path — transitive closure, cycle detection,
    topological sorting, quotients — run word-parallel here, and the
    observed-order fixpoint of {!Repro_core.Observed} runs entirely in this
    representation, converting to the persistent {!Rel.t} only at the
    boundary (see [Rel.of_bitrel] / [Rel.to_bitrel]).

    Values are {e mutable} (in contrast to {!Rel.t}): [add] and
    [union_into] update in place; [copy] takes an independent snapshot.
    The universe of a value is fixed at creation; [add] outside it raises
    [Invalid_argument].

    A value must not be mutated from two domains concurrently; the batch
    drivers hand each domain its own values. *)

open Ids

type t

val create : Int_set.t -> t
(** The empty relation over the given universe.  Compaction preserves
    identifier order, so deterministic tie-breaks (ascending identifier)
    carry over from {!Rel}. *)

val of_ids : id array -> t
(** {!create} from a strictly increasing identifier array (raises
    [Invalid_argument] otherwise) — the allocation-free-universe path for
    hot callers that already hold the sorted node array. *)

val copy : t -> t

val size : t -> int
(** Number of universe nodes. *)

val universe : t -> Int_set.t

val idx_of_id : t -> id -> int option

val add : t -> id -> id -> unit
(** In-place.  Raises [Invalid_argument] if either node is outside the
    universe. *)

val mem : t -> id -> id -> bool
(** [false] (rather than an error) when either node is outside the
    universe, matching [Rel.mem] on unknown nodes. *)

val cardinal : t -> int
(** Number of pairs (population count over all rows). *)

val is_empty : t -> bool

val iter : (id -> id -> unit) -> t -> unit
(** Ascending lexicographic order of external identifiers. *)

val fold : (id -> id -> 'a -> 'a) -> t -> 'a -> 'a

val to_list : t -> (id * id) list

val union_into : into:t -> t -> unit
(** Word-parallel in-place union.  Raises [Invalid_argument] when the
    universes differ. *)

val restrict : keep:(id -> bool) -> t -> t
(** Sub-relation (and sub-universe) induced by the nodes satisfying
    [keep]. *)

val transitive_closure : t -> t
(** Smallest transitive super-relation, over the same universe: SCC
    condensation (Purdom), then word-parallel row-OR accumulation of reach
    sets in reverse topological order.  Self-pairs appear exactly for nodes
    on cycles, matching {!Rel.transitive_closure}. *)

val find_cycle : t -> id list option
(** Some cycle [n1 -> ... -> nk -> n1], or [None] when acyclic. *)

val is_acyclic : t -> bool

val topo_sort : t -> id list option
(** A linear extension over the {e whole} universe (isolated nodes
    included), or [None] on a cycle.  Ties break by ascending external
    identifier, so the output equals [Rel.topo_sort ~nodes:(universe t)]
    on the same pairs. *)

val quotient : universe:Int_set.t -> (id -> id) -> t -> t
(** Contract by a clustering function into a fresh relation over the given
    cluster universe; intra-cluster pairs are dropped.  Raises
    [Invalid_argument] if the function maps a pair outside [universe]. *)
