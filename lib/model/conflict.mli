(** Conflict specifications.

    Each schedule of a composite system owns a conflict predicate [CON_S]
    over its operations (Def. 3).  Two operations conflict when they do not
    commute — when their relative execution order matters for the net effect.
    The paper treats [CON_S] as an abstract symmetric predicate; we represent
    it as a declarative {!spec} value so that histories can be printed,
    parsed, and generated, and compile it to a predicate on labelled nodes.

    A specification only ever decides conflicts between {e distinct}
    operations of {e different} transactions of the same schedule; intra-
    transaction ordering is governed by the transaction's own orders
    (Def. 2), and the theory never consults [CON_S] on a pair of operations
    of the same transaction. *)

type spec =
  | Never  (** Everything commutes; the schedule never sees a conflict. *)
  | Always  (** Every pair of operations (of different transactions) conflicts. *)
  | Rw
      (** The classical read/write model on the first argument: two
          operations conflict iff they touch the same item and at least one
          of them is a writer, where ["r"] reads; ["w"] writes; ["inc"] and
          ["dec"] commute with each other but conflict with reads and
          writes.  Unknown names are treated as writers of their item. *)
  | Same_item
      (** Operations conflict iff they share their first argument,
          whatever their names — a coarse semantic model. *)
  | Table of (string * string) list
      (** [Table pairs] declares the {e conflicting} name pairs; the list is
          interpreted symmetrically.  A pair conflicts iff its name pair is
          listed {e and} the operations share at least one argument (if both
          have arguments; operations without arguments conflict on name
          alone).  Everything not listed commutes. *)
  | Explicit of (Repro_order.Ids.id * Repro_order.Ids.id) list
      (** Exact conflicting node pairs, interpreted symmetrically.  Used by
          reconstructed paper figures and by generators that draw random
          conflicts. *)
  | Adt of Adt.family
      (** Semantic commutativity of an abstract data type: operation
          classes with argument-sensitive conflict rules — see {!Adt} for
          the canonical counter/queue/set/escrow families and the
          user-declared form. *)

val eval : spec -> get_label:(Repro_order.Ids.id -> Label.t) -> Repro_order.Ids.id -> Repro_order.Ids.id -> bool
(** [eval spec ~get_label a b] decides whether operations [a] and [b]
    conflict under [spec].  Symmetric; [eval spec ~get_label a a] is
    [false].  This is the interpreted reference; hot paths go through
    {!compile} and the probes, whose agreement with [eval] the qcheck
    suites pin. *)

type compiled
(** A specification compiled for repeated probing: [Table] becomes an
    interned-name matrix, [Explicit] a hash set over node pairs, [Adt] the
    family's dense class matrix (see {!Adt.compile}).  Each schedule
    compiles its spec once; the conflict memo, the lock tables, and the
    workload generators all probe the same compiled form. *)

val compile : spec -> compiled

val probe_ids :
  compiled ->
  get_label:(Repro_order.Ids.id -> Label.t) ->
  Repro_order.Ids.id ->
  Repro_order.Ids.id ->
  bool
(** Same decision as {!eval} on the originating spec (including exact
    [Explicit] pairs), without re-interpreting any list.  Counts toward
    {!evals} exactly like {!eval} so the memo tests keep their meaning. *)

val probe_labels : compiled -> Label.t -> Label.t -> bool
(** Same decision as {!eval} on the originating spec, on raw labels: the
    one label-level compatibility function shared by the checker and the
    semantic 2PL lock tables.  [Explicit] is pessimistically [true] (no
    node identities exist at the label level), and no same-transaction
    exemption applies; {!Lock} emits a one-time
    {!Validate} warning when it hits that fallback.  Counts toward
    {!evals}. *)

val known_name : spec -> string -> bool
(** Whether the spec recognizes the operation name, i.e. the name does not
    fall to a pessimistic or silent default: [Rw]'s unknown-names-are-
    writers, [Table]'s unlisted-names-commute, [Adt]'s unknown-class
    fallback.  Specs that never discriminate by name ([Never], [Always],
    [Same_item], [Explicit]) recognize everything.  The {!Validate} lint
    builds on this. *)

val discriminates : spec -> bool
(** Whether {!known_name} can ever be [false] for the spec — i.e. whether
    the unknown-operation lint is meaningful for it. *)

val evals : unit -> int
(** Process-global count of {!eval} invocations (label interpretations),
    monotonically increasing.  Purely observational — the conflict-memo
    tests difference it around an operation to assert that warm caches
    prevent re-interpretation.  Atomic, so safe to read under the parallel
    batch drivers. *)

val rw_labels : Label.t -> Label.t -> bool
(** The raw read/write commutativity test on labels used by {!Rw}, exposed
    for the storage substrate and lock tables. *)

val pp : Format.formatter -> spec -> unit

val equal : spec -> spec -> bool
