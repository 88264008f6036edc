(** Recognizers for the special configurations studied before the general
    theory: stacks ([ABFS97]), forks and joins ([AFPS99], Defs. 21, 23, 25).

    The general composite model subsumes them all; these recognizers let the
    test suite and the experiments dispatch the matching specialised
    criterion (SCC, FCC, JCC) and compare its verdict with Comp-C
    (Theorems 2–4). *)

open Repro_model

type shape =
  | Flat
      (** Order 1: every schedule is a leaf schedule (ordinary single-level
          histories; several independent schedulers allowed). *)
  | Stack of History.sched_id list
      (** One schedule per level, each one's operations being exactly the
          transactions of the next; listed top (highest level) first.  A
          single leaf schedule holding all roots is a 1-level stack. *)
  | Fork of { top : History.sched_id; branches : History.sched_id list }
      (** One level-2 schedule holding every root, delegating to two or more
          level-1 branch schedules. *)
  | Join of { branches : History.sched_id list; bottom : History.sched_id }
      (** Two or more level-2 schedules holding the roots, all delegating to
          one shared level-1 schedule. *)
  | General  (** Anything else: the paper's arbitrary configurations. *)

val classify : History.t -> shape

val is_stack : History.t -> bool
val is_fork : History.t -> bool

val pp : Format.formatter -> shape -> unit
