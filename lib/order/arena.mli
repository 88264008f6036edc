(** Flat Bigarray-backed bit matrices for the append path.

    The dense counterpart of {!Bitrel} when the universe {e grows}: one
    [(char, int8_unsigned_elt, c_layout) Bigarray.Array1.t] backs every
    row of the relation, row [i] at byte offset [i * stride].  The bits
    live off the OCaml heap, so membership probes and bit sets on the
    monitor's append path allocate nothing; capacity grows geometrically
    in both dimensions with plain blits, so appending a node is O(1)
    amortized.

    Rows and columns are plain dense indices (the codebase's node
    identifiers are dense by construction); there is no id compaction
    layer.  The interface is what {!Repro_core.Observed}'s dense mirror
    of the observed order needs: grow, reset, set, probe, and iterate a
    row.

    Values are mutable and single-domain, like {!Bitrel}. *)

type t

val make : rows:int -> cols:int -> t
(** Zeroed arena with the given active window.  Raises [Invalid_argument]
    on negative dimensions. *)

val ensure : t -> rows:int -> cols:int -> unit
(** Grow the active window (never shrinks).  Existing bits keep their
    coordinates; fresh space is zero.  Over-allocates geometrically. *)

val reset : t -> rows:int -> cols:int -> unit
(** Zero everything and set the active window, reusing the backing buffer
    when capacity allows — the cheap-rebuild path for incremental
    mirrors. *)

val shrink : t -> rows:int -> cols:int -> unit
(** Like {!reset}, but reallocates the backing buffer down when it holds
    more than 4x the bytes the new window needs — the truncation path,
    where a mirror rebases from a long prefix onto a small window and
    must release, not just zero, the dense bits. *)

val resident_bytes : t -> int
(** Bytes of backing store currently allocated (off the OCaml heap, so
    invisible to [Obj.reachable_words]) — the memory-accounting probe. *)

val set : t -> int -> int -> unit
(** [set t i j] sets bit [(i, j)].  Raises [Invalid_argument] outside the
    active window. *)

val get : t -> int -> int -> bool
(** Raises [Invalid_argument] outside the active window. *)

val row_iter : t -> int -> (int -> unit) -> unit
(** Set columns of a row, ascending. *)
