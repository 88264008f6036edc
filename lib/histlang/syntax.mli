(** A textual description language for composite executions, so the checker
    works as a standalone tool on files.

    Grammar (['#'] starts a comment; newlines are insignificant):

    {v
    history  := item*
    item     := "schedule" NAME "conflict" spec
              | "root" NAME "@" NAME label
              | "tx"   NAME "@" NAME "parent" NAME label
              | "leaf" NAME "parent" NAME label
              | "order"  NAME ":" NAME "<" NAME      # weak output pair
              | "order!" NAME ":" NAME "<" NAME      # strong output pair
              | "intra"  ":" NAME "<" NAME           # weak intra-transaction
              | "intra!" ":" NAME "<" NAME           # strong intra-transaction
              | "input"  ":" NAME "<" NAME           # weak root input order
              | "input!" ":" NAME "<" NAME           # strong root input order
              | "log" NAME ":" NAME*                 # execution log of a schedule
    spec     := "rw" | "never" | "always" | "same-item"
              | "counter" | "queue" | "set" | "escrow"
              | "table" "(" [NAME "/" NAME ("," NAME "/" NAME)*] ")"
              | "explicit" "(" [NAME "/" NAME ("," NAME "/" NAME)*] ")"
              | "adt" "(" [class ("," class)*] [";" [rule ("," rule)*]] ")"
    class    := NAME "=" NAME ("/" NAME)*          # class = member ops
    rule     := NAME "/" NAME "=" cond             # conflicting class pair
    cond     := "always" | "item" | "args" | "range"
    label    := NAME [ "(" [ARG ("," ARG)*] ")" ]
    v}

    Node and schedule [NAME]s are arbitrary identifiers
    ([A-Za-z0-9_.'-]+); a node must be declared before it is referenced.
    In an [explicit] conflict specification the names refer to nodes, which
    therefore must be declared before the schedule — in printed output the
    specification is emitted after all nodes instead.  Note that [explicit]
    specs have no label-level meaning: runtime components that only see
    labels — the semantic lock tables of {!Repro_runtime.Lock} — fall back
    to treating {e every} pair as conflicting and emit a one-time
    [Validate] warning on stderr when they do (see
    {!Repro_model.Conflict.probe_labels}).

    [counter], [queue], [set] and [escrow] are the canonical ADT
    commutativity families of {!Repro_model.Adt}; [adt(...)] declares a
    custom family: operation classes ([class]) and symmetric conflicting
    class pairs ([rule]), each guarded by an argument condition — [always]
    (unconditional), [item] (same first argument), [args] (same first
    argument and intersecting remaining arguments), [range] (same first
    argument and overlapping numeric intervals from arguments 2 and 3).
    Class pairs without a rule commute; operation names outside every
    class conflict pessimistically with anything sharing their item.

    Example:

    {v
    schedule S conflict rw
    root T1 @ S T1
    root T2 @ S T2
    leaf a parent T1 r(x)
    leaf b parent T2 w(x)
    log S: a b
    v} *)

type error = { line : int; message : string }

exception Parse_error of error

val pp_error : Format.formatter -> error -> unit

(** Chunk-by-chunk parsing of a growing description.

    A stream state holds the sealed history of the chunks fed so far and
    the node and schedule names in scope.  {!feed} lexes and resolves only
    the new chunk and hands the resulting delta to
    {!Repro_model.History.append}, so the cost of a chunk follows its size,
    not the stream's.  Each chunk must be a sequence of whole items.
    States are persistent: a chunk that raises leaves the state it was
    fed to as it was, so a caller simply keeps the old state. *)
module Stream : sig
  type t

  val empty : unit -> t
  (** No chunk fed yet: the empty history, no names in scope. *)

  val feed : t -> string -> t
  (** [feed st chunk] is [st] extended by [chunk].  Error lines count
      from the start of the stream.  Raises {!Parse_error} on syntax or
      reference errors, [Invalid_argument] when the structure is
      malformed (see {!Repro_model.History.Builder.seal}), and
      {!Repro_model.History.Not_an_extension} when the chunk breaks the
      extension contract of {!Repro_model.History.append}. *)

  val history : t -> Repro_model.History.t
end

val parse : string -> Repro_model.History.t
(** Parse a history description: one {!Stream.feed} of the whole text.
    Raises {!Parse_error} on syntax or reference errors, [Invalid_argument]
    when the builder rejects the structure (see
    {!Repro_model.History.Builder.seal}). *)

val parse_file : string -> Repro_model.History.t

val spec_of_string : string -> Repro_model.Conflict.spec
(** Parse a bare conflict specification ([spec] in the grammar), for
    command lines such as [compgen --conflict].  Rejects [explicit] — its
    pairs reference nodes of a history — and trailing input.  Raises
    {!Parse_error}. *)

val print : Format.formatter -> Repro_model.History.t -> unit
(** Print a history in the language.  Node names are [n<id>]; the output
    includes every schedule (with its conflict specification), node, intra
    order, root input order, log, and the full weak/strong output orders, so
    [parse (print h)] reconstructs an equivalent history (same verdicts,
    same relations). *)

val to_string : Repro_model.History.t -> string

(** {1 Single lines}

    The printer's lines, without the newline, for producers that lay a
    history out differently — {!Repro_runtime.Server.Chunks} splits one
    into per-root chunks under its own node names.  [name] renders a
    node identifier. *)

val is_name : string -> bool
(** The lexer's [NAME] rule: non-empty, every character in
    [[A-Za-z0-9_.'-]].  Keywords are names too: a schedule may be called
    [order]. *)

val spec_line : Repro_model.History.schedule -> string
(** [schedule NAME conflict spec]; an [explicit] spec names nodes [n<id>]. *)

val node_line : name:(int -> string) -> Repro_model.History.t -> int -> string
(** The [root], [tx] or [leaf] declaration of a node. *)

val intra_line : name:(int -> string) -> strong:bool -> int -> int -> string

val input_line : name:(int -> string) -> strong:bool -> int -> int -> string

val order_line :
  name:(int -> string) -> strong:bool -> string -> int -> int -> string
(** [order_line ~name ~strong sname a b] is an output pair of schedule
    [sname]. *)
