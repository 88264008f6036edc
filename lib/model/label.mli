(** Operation labels.

    Every node of a composite execution — leaf operation, subtransaction
    invocation, or root transaction — carries a label: a service name plus
    string arguments.  Labels are what conflict specifications inspect
    ({!Conflict}), and what printers and the history language display.

    Conventional leaf names used by the read/write conflict model and by the
    {!Repro_storage} substrate: ["r"] (read), ["w"] (write), ["inc"], ["dec"]
    (commutative increment/decrement), each taking the data item as first
    argument. *)

type t = { name : string; args : string list }

val v : ?args:string list -> string -> t
(** [v name ~args] builds a label. *)

val read : string -> t
(** [read item] is the conventional read label [r(item)]. *)

val write : string -> t
(** [write item] is the conventional write label [w(item)]. *)

val incr : string -> t
(** [incr item] is the commutative increment label [inc(item)]. *)

val decr : string -> t
(** [decr item] is the commutative decrement label [dec(item)]. *)

val equal : t -> t -> bool

val item : t -> string option
(** First argument, if any — the data item of conventional leaf labels. *)

val pp : Format.formatter -> t -> unit
(** Prints [name(arg1,arg2)] or just [name] when there are no arguments. *)
