open Repro_order
open Repro_model
open Ids

type shape =
  | Flat
  | Stack of History.sched_id list
  | Fork of { top : History.sched_id; branches : History.sched_id list }
  | Join of { branches : History.sched_id list; bottom : History.sched_id }
  | General

let all_ops_are_leaves h sid =
  List.for_all (History.is_leaf h) (History.ops_of_schedule h sid)

(* Every transaction of [sid] is an operation of some schedule in [clients]. *)
let all_txs_invoked_by h sid clients =
  Int_set.for_all
    (fun t ->
      match History.sched_of_op h t with
      | Some c -> List.mem c clients
      | None -> false)
    (History.schedule h sid).History.transactions

let roots_all_in h sids =
  List.for_all
    (fun r ->
      match History.sched_of_tx h r with Some s -> List.mem s sids | None -> false)
    (History.roots h)

let try_stack h =
  let n = History.order h in
  let per_level = List.init n (fun i -> History.schedules_at_level h (n - i)) in
  if List.for_all (fun l -> List.length l = 1) per_level then begin
    let chain = List.concat per_level (* top first *) in
    let rec ok = function
      | [] -> true
      | [ bottom ] -> all_ops_are_leaves h bottom
      | upper :: (lower :: _ as rest) ->
        (* O_{upper} = T_{lower}: every op of upper is a transaction of
           lower, and every transaction of lower is invoked by upper. *)
        List.for_all
          (fun o -> History.sched_of_tx h o = Some lower)
          (History.ops_of_schedule h upper)
        && all_txs_invoked_by h lower [ upper ]
        && ok rest
    in
    match chain with
    | top :: _ when roots_all_in h [ top ] && ok chain -> Some chain
    | _ -> None
  end
  else None

let try_fork h =
  if History.order h <> 2 then None
  else
    match History.schedules_at_level h 2 with
    | [ top ] ->
      let branches = History.schedules_at_level h 1 in
      if
        List.length branches >= 2
        && roots_all_in h [ top ]
        && List.for_all
             (fun o ->
               match History.sched_of_tx h o with
               | Some s -> List.mem s branches
               | None -> false)
             (History.ops_of_schedule h top)
        && List.for_all
             (fun b -> all_ops_are_leaves h b && all_txs_invoked_by h b [ top ])
             branches
      then Some (top, branches)
      else None
    | _ -> None

let try_join h =
  if History.order h <> 2 then None
  else
    match History.schedules_at_level h 1 with
    | [ bottom ] ->
      let branches = History.schedules_at_level h 2 in
      if
        List.length branches >= 2
        && roots_all_in h branches
        && all_ops_are_leaves h bottom
        && all_txs_invoked_by h bottom branches
        && List.for_all
             (fun b ->
               List.for_all
                 (fun o -> History.sched_of_tx h o = Some bottom)
                 (History.ops_of_schedule h b))
             branches
      then Some (branches, bottom)
      else None
    | _ -> None

let classify h =
  match try_stack h with
  | Some chain -> Stack chain
  | None -> (
    match try_fork h with
    | Some (top, branches) -> Fork { top; branches }
    | None -> (
      match try_join h with
      | Some (branches, bottom) -> Join { branches; bottom }
      | None -> if History.order h <= 1 then Flat else General))

let is_stack h = match classify h with Stack _ -> true | _ -> false
let is_fork h = match classify h with Fork _ -> true | _ -> false

let pp ppf = function
  | Flat -> Fmt.string ppf "flat"
  | Stack chain -> Fmt.pf ppf "stack(%d levels)" (List.length chain)
  | Fork { branches; _ } -> Fmt.pf ppf "fork(%d branches)" (List.length branches)
  | Join { branches; _ } -> Fmt.pf ppf "join(%d branches)" (List.length branches)
  | General -> Fmt.string ppf "general"
