(** Well-formedness of composite executions against Defs. 3–4.

    {!History.Builder.seal} already guarantees the structural conditions
    (tree shape, acyclic invocation graph, orders over the right carriers)
    and performs order completion.  This module checks the remaining
    semantic conditions that a set of well-behaved schedulers must satisfy,
    and reports every violation:

    - output orders are partial orders (irreflexive after transitive
      closure) and strong is contained in weak (Def. 3, conditions 1–4);
    - conflicting operations of weakly-input-ordered transactions are
      output-ordered the same way (condition 1a/1b);
    - conflicting operations of different, unordered transactions are
      output-ordered one way or the other (condition 1c);
    - output orders extend intra-transaction orders (condition 2);
    - strong input orders expand to strong output orders (condition 3);
    - execution logs, when present, agree with the weak output order on
      conflicting pairs and with the strong output order on every pair;
    - clients' output orders were passed down as input orders (Def. 4.7). *)

open Repro_order.Ids

type error =
  | Cyclic_order of { sched : History.sched_id; which : string; cycle : id list }
      (** An input or output order of the schedule has a cycle ([which] is
          one of ["weak-in"], ["strong-in"], ["weak-out"], ["strong-out"]). *)
  | Strong_not_in_weak of { sched : History.sched_id; which : string; pair : id * id }
  | Input_order_violated of { sched : History.sched_id; txs : id * id; ops : id * id }
      (** Transactions were weakly input-ordered but a conflicting operation
          pair is ordered against them (or left unordered). *)
  | Unordered_conflict of { sched : History.sched_id; ops : id * id }
      (** A conflicting operation pair of different transactions that the
          schedule failed to order (condition 1c). *)
  | Intra_order_dropped of { sched : History.sched_id; tx : id; pair : id * id; strong : bool }
  | Strong_input_not_expanded of { sched : History.sched_id; txs : id * id; ops : id * id }
  | Log_contradicts_output of { sched : History.sched_id; ops : id * id }
      (** The weak output order claims [fst ops] before [snd ops] although
          they conflict and the log executed them in the other order. *)
  | Log_contradicts_strong of { sched : History.sched_id; ops : id * id }
      (** The strong output order claims strict temporal precedence of
          [fst ops] but the log executed [snd ops] first (strong orders
          bind every pair, commuting or not). *)
  | Input_not_inherited of { parent : History.sched_id; child : History.sched_id; ops : id * id }
      (** Def. 4.7: a client's output pair over two transactions of [child]
          does not appear in [child]'s input order. *)

val pp_error : History.t -> Format.formatter -> error -> unit

val check : History.t -> error list
(** All violations, in schedule order; [[]] means the history is a valid
    composite execution in the sense of the paper. *)

(** {1 Lints}

    Histories that are {e valid} but silently hit a pessimistic default of
    their conflict specification.  Off the certification hot path: surfaced
    by [compcheck --stats] and the server's [stats] frame. *)

type warning =
  | Unknown_op_name of { sched : string; name : string; count : int }
      (** The schedule's operations use a name its spec does not recognize
          — [Rw] treats it as a writer, [Table] as commuting with
          everything, an ADT family as conflicting with anything sharing
          its item (see {!Conflict.known_name}).  Usually a typo in the
          workload or a spec that lags the workload's vocabulary. *)
  | Explicit_lock_fallback
      (** A lock table was built over an [Explicit] spec, whose node pairs
          have no label-level meaning: every label pair is treated as
          conflicting, so the component serializes completely. *)

val pp_warning : Format.formatter -> warning -> unit

val lint : History.t -> warning list
(** Unknown-operation warnings for every schedule whose spec discriminates
    by name, in schedule order (first-occurrence order within one
    schedule), with occurrence counts. *)

val warn_explicit_fallback : unit -> unit
(** Print {!Explicit_lock_fallback} to stderr — once per process, further
    calls are free and silent.  {!Repro_runtime.Lock.create} calls this
    when given an [Explicit] spec. *)
