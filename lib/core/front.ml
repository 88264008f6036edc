open Repro_order
open Repro_model
open Ids

type t = { index : int; members : Int_set.t; obs : Rel.t; inp : Rel.t }

let members_at h i =
  (* A node sits on the level-i front iff it is "done" at level i (leaf, or
     transaction of a schedule of level <= i) and its parent is not (parent
     is a root kept by propagation, or a transaction of a schedule of level
     > i, or the node is itself a root). *)
  let done_at n = History.level_of_node h n <= i in
  let acc = ref Int_set.empty in
  for n = History.n_nodes h - 1 downto 0 do
    if
      done_at n
      &&
      match History.parent h n with
      | None -> true
      | Some p -> not (done_at p)
    then acc := Int_set.add n !acc
  done;
  !acc

let make h (rel : Observed.relations) i =
  let members = members_at h i in
  let keep n = Int_set.mem n members in
  {
    index = i;
    members;
    obs = Rel.restrict ~keep rel.Observed.obs;
    inp = Rel.restrict ~keep rel.Observed.inp;
  }

let initial h rel = make h rel 0

let constraint_graph f = Rel.union f.obs f.inp

let layout_constraints h rel f =
  (* Def. 16 step 1: only commuting pairs not ordered by the input orders
     may be reordered when isolating transactions, so the binding
     constraints are the input orders plus the observed pairs that are
     generalized conflicts (Def. 11); observed orders between commuting
     operations of a common schedule do not pin the layout down. *)
  Rel.union f.inp (Rel.filter (fun a b -> Observed.conflict h rel a b) f.obs)

(* The conflict-consistency check walks the whole constraint graph, so run
   it dense over the member universe instead of unioning two persistent
   relations first. *)
let cc_cycle f =
  let b = Bitrel.create f.members in
  Rel.iter (fun a b' -> Bitrel.add b a b') f.obs;
  Rel.iter (fun a b' -> Bitrel.add b a b') f.inp;
  Bitrel.find_cycle b

let is_cc f = cc_cycle f = None

let is_serial h f =
  let strong =
    List.fold_left
      (fun acc (s : History.schedule) -> Rel.union acc s.History.strong_in)
      Rel.empty (History.schedules h)
  in
  Rel.total_on f.members (Rel.transitive_closure strong)

let conflict_pairs h rel f = Observed.conflict_pairs h rel f.members
