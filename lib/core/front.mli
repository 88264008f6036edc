(** Computational fronts (Defs. 12–13, 15, 17).

    A front is a maximal antichain of the computational forest together with
    the relations the theory needs on it: the observed order [<_o], the input
    orders [→], and (derived) the generalized conflicts.  The level-0 front
    holds every leaf; the level-i front replaces the operations of all
    level-i schedules by their transactions while root transactions of lower
    levels are carried along (Def. 16.5), so the level-N front holds exactly
    the root transactions. *)

open Repro_order
open Repro_model
open Ids

type t = private {
  index : int;  (** The [i] of "level [i] front". *)
  members : Int_set.t;
  obs : Rel.t;  (** Observed order restricted to [members]. *)
  inp : Rel.t;  (** Weak input orders restricted to [members] — the front's [→]. *)
}

val initial : History.t -> Observed.relations -> t
(** The level-0 front: all leaves (Def. 15). *)

val members_at : History.t -> int -> Int_set.t
(** Members of the level-[i] front of the history, computed structurally:
    leaves and transactions of level ≤ [i] schedules that are not operations
    of any schedule of level ≤ [i]. *)

val make : History.t -> Observed.relations -> int -> t
(** The level-[i] front with its restricted relations. *)

val constraint_graph : t -> Rel.t
(** [obs ∪ inp] — the relation whose acyclicity is conflict consistency. *)

val layout_constraints : History.t -> Observed.relations -> t -> Rel.t
(** The pairs whose order a rearrangement of the front must preserve
    (Def. 16 step 1): the input orders, plus the observed pairs that are
    generalized conflicts (commuting pairs may be swapped). *)

val cc_cycle : t -> id list option
(** A witness cycle in [obs ∪ inp], or [None] when the front is conflict
    consistent (Def. 13). *)

val is_cc : t -> bool

val is_serial : History.t -> t -> bool
(** Def. 17: the strong input orders totally order the front's members.  The
    union of the members' schedules' strong input orders is consulted. *)

val conflict_pairs : History.t -> Observed.relations -> t -> (id * id) list
(** Generalized-conflict pairs among the members (for display). *)
