open Repro_order

type spec =
  | Never
  | Always
  | Rw
  | Same_item
  | Table of (string * string) list
  | Explicit of (Ids.id * Ids.id) list
  | Adt of Adt.family

(* Access classes of the read/write model; [Other] behaves like a writer so
   that unknown operation names are treated pessimistically. *)
type access = Reader | Writer | Bumper | Other

let access_of_name = function
  | "r" | "read" -> Reader
  | "w" | "write" -> Writer
  | "inc" | "dec" -> Bumper
  | _ -> Other

let rw_labels (a : Label.t) (b : Label.t) =
  match (Label.item a, Label.item b) with
  | Some ia, Some ib when String.equal ia ib -> (
    match (access_of_name a.name, access_of_name b.name) with
    | Reader, Reader -> false
    | Bumper, Bumper -> false
    | _ -> true)
  | _ -> false

let share_arg (a : Label.t) (b : Label.t) =
  match (a.args, b.args) with
  | [], _ | _, [] -> true (* argument-free operations conflict on name alone *)
  | args_a, args_b -> List.exists (fun x -> List.mem x args_b) args_a

let table_conflict pairs (a : Label.t) (b : Label.t) =
  let listed =
    List.exists
      (fun (x, y) ->
        (String.equal x a.name && String.equal y b.name)
        || (String.equal x b.name && String.equal y a.name))
      pairs
  in
  listed && share_arg a b

(* Process-global count of label interpretations, so tests can pin that a
   memo (or a memo transfer) really prevented re-evaluation.  Atomic: the
   batch drivers evaluate from several domains at once. *)
let eval_count = Atomic.make 0

let evals () = Atomic.get eval_count

let eval spec ~get_label a b =
  Atomic.incr eval_count;
  if a = b then false
  else
    match spec with
    | Never -> false
    | Always -> true
    | Rw -> rw_labels (get_label a) (get_label b)
    | Same_item -> (
      match (Label.item (get_label a), Label.item (get_label b)) with
      | Some ia, Some ib -> String.equal ia ib
      | _ -> false)
    | Table pairs -> table_conflict pairs (get_label a) (get_label b)
    | Explicit pairs ->
      List.exists (fun (x, y) -> (x = a && y = b) || (x = b && y = a)) pairs
    | Adt f -> Adt.eval f (get_label a) (get_label b)

(* Compiled specifications.  A spec compiles once per schedule; the probes
   below are what the conflict-memo fill path, the lock tables, and the
   generators use, so no list is re-interpreted on a hot path.  [Table]
   lowers to an interned name matrix (unknown names get the extra id
   [width - 1] and commute, as the interpreter's "not listed" case);
   [Explicit] lowers to a hash set over (lo, hi) node pairs; [Adt] reuses
   the family's own dense class matrix. *)

type compiled =
  | Cnever
  | Calways
  | Crw
  | Csame_item
  | Ctable of {
      ids : (string, int) Hashtbl.t;
      width : int;
      matrix : Bytes.t; (* row-major booleans; unknown row/column zero *)
    }
  | Cexplicit of (Ids.id * Ids.id, unit) Hashtbl.t
  | Cadt of Adt.compiled

let compile = function
  | Never -> Cnever
  | Always -> Calways
  | Rw -> Crw
  | Same_item -> Csame_item
  | Table pairs ->
    let ids = Hashtbl.create 16 in
    let intern n =
      match Hashtbl.find_opt ids n with
      | Some i -> i
      | None ->
        let i = Hashtbl.length ids in
        Hashtbl.add ids n i;
        i
    in
    List.iter
      (fun (x, y) ->
        ignore (intern x);
        ignore (intern y))
      pairs;
    let width = Hashtbl.length ids + 1 in
    let matrix = Bytes.make (width * width) '\000' in
    List.iter
      (fun (x, y) ->
        let i = Hashtbl.find ids x and j = Hashtbl.find ids y in
        Bytes.set matrix ((i * width) + j) '\001';
        Bytes.set matrix ((j * width) + i) '\001')
      pairs;
    Ctable { ids; width; matrix }
  | Explicit pairs ->
    let tbl = Hashtbl.create (List.length pairs * 2) in
    List.iter
      (fun (x, y) ->
        Hashtbl.replace tbl (if x <= y then (x, y) else (y, x)) ())
      pairs;
    Cexplicit tbl
  | Adt f -> Cadt (Adt.compile f)

(* The one label-level compatibility decision shared by the checker's memo
   fill and the lock tables; [Explicit] has no label-level meaning and is
   pessimistic. *)
let probe_labels_quiet c (a : Label.t) (b : Label.t) =
  match c with
  | Cnever -> false
  | Calways -> true
  | Crw -> rw_labels a b
  | Csame_item -> (
    match (Label.item a, Label.item b) with
    | Some ia, Some ib -> String.equal ia ib
    | _ -> false)
  | Ctable { ids; width; matrix } ->
    let unknown = width - 1 in
    let ca =
      match Hashtbl.find_opt ids a.name with Some i -> i | None -> unknown
    in
    let cb =
      match Hashtbl.find_opt ids b.name with Some i -> i | None -> unknown
    in
    Bytes.get matrix ((ca * width) + cb) <> '\000' && share_arg a b
  | Cexplicit _ -> true
  | Cadt c -> Adt.probe c a b

let probe_labels c a b =
  Atomic.incr eval_count;
  probe_labels_quiet c a b

let probe_ids c ~get_label a b =
  Atomic.incr eval_count;
  if a = b then false
  else
    match c with
    | Cexplicit tbl -> Hashtbl.mem tbl (if a <= b then (a, b) else (b, a))
    | _ -> probe_labels_quiet c (get_label a) (get_label b)

let known_name spec name =
  match spec with
  | Never | Always | Same_item | Explicit _ -> true
  | Rw -> access_of_name name <> Other
  | Table pairs ->
    List.exists
      (fun (x, y) -> String.equal x name || String.equal y name)
      pairs
  | Adt f -> Adt.known f name

let discriminates = function
  | Never | Always | Same_item | Explicit _ -> false
  | Rw | Table _ | Adt _ -> true

let pp ppf = function
  | Never -> Fmt.string ppf "never"
  | Always -> Fmt.string ppf "always"
  | Rw -> Fmt.string ppf "rw"
  | Same_item -> Fmt.string ppf "same-item"
  | Table pairs ->
    Fmt.pf ppf "table{%a}"
      Fmt.(list ~sep:(any ";@ ") (pair ~sep:(any "/") string string))
      pairs
  | Explicit pairs ->
    Fmt.pf ppf "explicit{%a}"
      Fmt.(list ~sep:(any ";@ ") (pair ~sep:(any ",") int int))
      pairs
  | Adt f -> Adt.pp ppf f

let equal s1 s2 =
  match (s1, s2) with
  | Never, Never | Always, Always | Rw, Rw | Same_item, Same_item -> true
  | Table p1, Table p2 ->
    List.equal (fun (a, b) (c, d) -> String.equal a c && String.equal b d) p1 p2
  | Explicit p1, Explicit p2 ->
    List.equal (fun (a, b) (c, d) -> a = c && b = d) p1 p2
  | Adt f1, Adt f2 -> Adt.equal f1 f2
  | (Never | Always | Rw | Same_item | Table _ | Explicit _ | Adt _), _ ->
    false
