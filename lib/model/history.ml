open Repro_order
open Ids

type sched_id = int

type node = {
  id : id;
  label : Label.t;
  parent : id option;
  children : id list;
  sched : sched_id option;
  intra_weak : Rel.t;
  intra_strong : Rel.t;
}

type schedule = {
  sid : sched_id;
  sname : string;
  conflict : Conflict.spec;
  transactions : Int_set.t;
  weak_in : Rel.t;
  strong_in : Rel.t;
  weak_out : Rel.t;
  strong_out : Rel.t;
  log : id list;
}

(* Per-history memoization of the conflict predicate (see [conflicts]):
   operations get a dense index within their schedule, and each schedule
   lazily fills a symmetric triangular bitmatrix of conflict decisions —
   one "known" bit and one "value" bit per unordered pair.  The
   observed-order fixpoint probes the same pairs over and over (every
   propagation round re-examines every observed pair), so the label
   interpretation must run at most once per pair.  Each schedule's spec is
   compiled once ([Conflict.compile]) when the cache is built, so the fill
   itself is a dense matrix probe, never a list re-interpretation.

   The cache is created on first use and is invisible in the interface;
   histories remain semantically immutable.  It is not domain-safe: the
   batch drivers give each domain its own history values. *)
type ccache = {
  op_index : int array; (* node id -> index among its schedule's ops; -1 *)
  op_sched : int array; (* node id -> schedule it is an operation of; -1 *)
  op_count : int array; (* per schedule: number of operations *)
  compiled : Conflict.compiled array; (* per schedule: compiled spec *)
  floors : int array;
      (* per schedule: ranks below this are released — their memo rows were
         dropped by [memo_release] and those pairs evaluate uncached.  The
         triangular tables index by {e windowed} rank (absolute rank minus
         floor), so releasing a prefix actually frees its bytes instead of
         leaving a dead lower triangle in place. *)
  tables : (Bytes.t * Bytes.t) option array; (* per schedule: known, value *)
  mutable donated : bool;
      (* arrays and tables lent to one extension's cache (see
         [extend_cache]); a second extension of the same snapshot must
         deep-copy its share instead *)
}

(* Converses of each schedule's four order relations, so that [append]
   finds a node's predecessors in O(log n) instead of scanning a whole
   relation.  Built on the first append from a history and carried along
   the appended chain; whole-file histories never pay for it. *)
type inverses = {
  wo_inv : Rel.t array;
  so_inv : Rel.t array;
  wi_inv : Rel.t array;
  si_inv : Rel.t array;
}

type t = {
  nodes : node array;
  scheds : schedule array;
  levels : int array; (* per schedule, Def. 9 *)
  ig : Rel.t; (* invocation graph over schedule ids *)
  mutable inv : inverses option;
  mutable ccache : ccache option;
}

let empty () =
  { nodes = [||]; scheds = [||]; levels = [||]; ig = Rel.empty; inv = None; ccache = None }

let node h i = h.nodes.(i)

let schedule h s = h.scheds.(s)

let n_nodes h = Array.length h.nodes

let n_schedules h = Array.length h.scheds

let schedules h = Array.to_list h.scheds

let label h i = h.nodes.(i).label

let parent h i = h.nodes.(i).parent

let parent_tx h i = match h.nodes.(i).parent with Some p -> p | None -> i

let children h i = h.nodes.(i).children

let is_leaf h i = h.nodes.(i).sched = None

let is_root h i = h.nodes.(i).parent = None

let roots h =
  Array.to_list h.nodes
  |> List.filter_map (fun n -> if n.parent = None then Some n.id else None)

let leaves h =
  Array.to_list h.nodes
  |> List.filter_map (fun n -> if n.sched = None then Some n.id else None)

let internal_nodes h =
  Array.to_list h.nodes
  |> List.filter_map (fun n ->
         if n.sched <> None && n.parent <> None then Some n.id else None)

let sched_of_tx h i = h.nodes.(i).sched

let sched_of_op h i =
  match h.nodes.(i).parent with None -> None | Some p -> h.nodes.(p).sched

let cache h =
  match h.ccache with
  | Some c -> c
  | None ->
    let n = Array.length h.nodes and ns = Array.length h.scheds in
    let op_index = Array.make n (-1) in
    let op_sched = Array.make n (-1) in
    let op_count = Array.make ns 0 in
    (* Ranks are assigned in ascending node-id order — NOT in the
       schedules' transaction-traversal order.  Under the monitor's
       extension contract new nodes always take larger ids, so id-ordered
       ranks of shared operations never shift, whatever transaction the
       new operations hang under; that is what lets [extend_cache] carry
       the triangular tables across every extension (a traversal-ordered
       rank shifts as soon as an operation is appended to a non-final
       transaction). *)
    for v = 0 to n - 1 do
      match h.nodes.(v).parent with
      | None -> ()
      | Some p -> (
        match h.nodes.(p).sched with
        | None -> ()
        | Some s ->
          op_index.(v) <- op_count.(s);
          op_sched.(v) <- s;
          op_count.(s) <- op_count.(s) + 1)
    done;
    let c =
      {
        op_index;
        op_sched;
        op_count;
        compiled = Array.map (fun s -> Conflict.compile s.conflict) h.scheds;
        floors = Array.make ns 0;
        tables = Array.make ns None;
        donated = false;
      }
    in
    h.ccache <- Some c;
    c

let common_op_schedule_id h a b =
  let c = cache h in
  let sa = c.op_sched.(a) in
  if sa >= 0 && sa = c.op_sched.(b) then sa else -1

let common_op_schedule h a b =
  match common_op_schedule_id h a b with -1 -> None | s -> Some s

let ops_of_schedule h s =
  Int_set.fold
    (fun t acc -> List.rev_append (List.rev h.nodes.(t).children) acc)
    h.scheds.(s).transactions []
  |> List.rev

let conflicts_uncached h s a b =
  if parent h a = parent h b then false
  else Conflict.eval h.scheds.(s).conflict ~get_label:(label h) a b

let conflicts h s a b =
  if parent h a = parent h b then false
  else begin
    let c = cache h in
    if
      c.op_sched.(a) <> s || c.op_sched.(b) <> s
      || c.op_index.(a) < c.floors.(s)
      || c.op_index.(b) < c.floors.(s)
    then
      (* Not a pair of [s]'s operations, or at least one endpoint's memo
         row was released by [memo_release]: evaluate directly.  (Callers
         that respect the Def. 10/11 side conditions only take the first
         branch for cross-schedule probes; the second is the truncated
         monitor touching a boundary pair, which is rare by design.) *)
      Conflict.probe_ids c.compiled.(s) ~get_label:(label h) a b
    else begin
      let floor = c.floors.(s) in
      let known, value =
        match c.tables.(s) with
        | Some kv -> kv
        | None ->
          let m = c.op_count.(s) - floor in
          let bytes = max 1 (((m * (m - 1) / 2) + 7) / 8) in
          let kv = (Bytes.make bytes '\000', Bytes.make bytes '\000') in
          c.tables.(s) <- Some kv;
          kv
      in
      let ia = c.op_index.(a) - floor and ib = c.op_index.(b) - floor in
      let lo = min ia ib and hi = max ia ib in
      let bit = (hi * (hi - 1) / 2) + lo in
      let byte = bit lsr 3 and mask = 1 lsl (bit land 7) in
      if Char.code (Bytes.unsafe_get known byte) land mask <> 0 then
        Char.code (Bytes.unsafe_get value byte) land mask <> 0
      else begin
        let v = Conflict.probe_ids c.compiled.(s) ~get_label:(label h) a b in
        Bytes.unsafe_set known byte
          (Char.unsafe_chr (Char.code (Bytes.unsafe_get known byte) lor mask));
        if v then
          Bytes.unsafe_set value byte
            (Char.unsafe_chr (Char.code (Bytes.unsafe_get value byte) lor mask));
        v
      end
    end
  end

(* Carry a previous snapshot's conflict memo into an extension of it.  The
   monitor certifies a growing prefix: each snapshot repeats every node of
   the previous one (same ids, labels, parents, children lists that only
   grow) and appends new nodes with strictly larger ids.  [cache] ranks
   operations in ascending id order, so every shared operation keeps its
   rank in the extension — even when new operations hang under old
   transactions — and the triangular layout ([bit (hi, lo) =
   hi*(hi-1)/2 + lo]) puts every old pair at the same slot, with all old
   slots packed below [m_old*(m_old-1)/2].

   That prefix property is what makes the transfer O(delta) amortized
   instead of O(n) per append: along a linear extension chain (the
   monitor's shape) the dense rank arrays and the tables are {e lent} to
   the extension — the new cache indexes the new operations into the very
   same arrays (ids >= n_old are dead to [from]) and keeps the same table
   bytes, growing either geometrically when capacity runs out.  Lending is
   linear: the first extension flips [donated], and a second extension of
   the same snapshot (the monitor's undo-then-reappend fork) deep-copies
   the old prefix instead, so diverging extensions can never write into
   each other's slots.  [op_count] is always copied — it is the record of
   [from]'s own rank range, needed to bound a later fork's copy.

   No-op when [h] already has a cache (both caches memoize the same pure
   predicate, so nothing would be gained) or when [from] has none. *)
let extend_cache ~from h =
  let n_old = Array.length from.nodes and n = Array.length h.nodes in
  if n < n_old then
    invalid_arg "History.extend_cache: target has fewer nodes than source";
  if Array.length h.scheds <> Array.length from.scheds then
    invalid_arg "History.extend_cache: schedule counts differ";
  match (from.ccache, h.ccache) with
  | None, _ | _, Some _ -> ()
  | Some old, None ->
    let fork = old.donated in
    old.donated <- true;
    (* Valid prefix of each table in bits: [from]'s own pairs only.  A
       lent table may carry the extension's bits above this range; a
       forked copy must not inherit them (its new operations reuse the
       same slots for different labels).  Ranks below the schedule's
       floor were released and the table indexes by windowed rank, so
       the prefix is the windowed pair count. *)
    let prefix_bits sid =
      let m = old.op_count.(sid) - old.floors.(sid) in
      m * (m - 1) / 2
    in
    let copy_prefix src bits =
      let bytes = Bytes.make (max 1 ((bits + 7) / 8)) '\000' in
      Bytes.blit src 0 bytes 0 (bits / 8);
      if bits land 7 <> 0 then
        Bytes.set bytes (bits / 8)
          (Char.chr (Char.code (Bytes.get src (bits / 8)) land ((1 lsl (bits land 7)) - 1)));
      bytes
    in
    let op_index, op_sched =
      if (not fork) && Array.length old.op_index >= n then
        (old.op_index, old.op_sched)
      else begin
        (* A fork is a fresh copy, not amortized growth of the lineage: it
           must size to the extension, never double the source's capacity
           (along an extend/undo/extend chain each accepted fork becomes
           the next source, and doubling here compounds exponentially). *)
        let cap = if fork then n else max n (2 * Array.length old.op_index) in
        let oi = Array.make cap (-1) and os = Array.make cap (-1) in
        Array.blit old.op_index 0 oi 0 n_old;
        Array.blit old.op_sched 0 os 0 n_old;
        (oi, os)
      end
    in
    let op_count = Array.copy old.op_count in
    let floors = Array.copy old.floors in
    for v = n_old to n - 1 do
      (match h.nodes.(v).parent with
      | None -> op_index.(v) <- -1; op_sched.(v) <- -1
      | Some p -> (
        match h.nodes.(p).sched with
        | None -> op_index.(v) <- -1; op_sched.(v) <- -1
        | Some s ->
          op_index.(v) <- op_count.(s);
          op_sched.(v) <- s;
          op_count.(s) <- op_count.(s) + 1))
    done;
    let tables =
      if fork then
        Array.mapi
          (fun sid kv ->
            match kv with
            | None -> None
            | Some (oknown, ovalue) ->
              let bits = prefix_bits sid in
              Some (copy_prefix oknown bits, copy_prefix ovalue bits))
          old.tables
      else old.tables
    in
    (* Grow any lent or copied table whose capacity no longer covers the
       extension's pair range (geometric, so a streaming chain amortizes
       the reallocation over the appends that filled the capacity). *)
    Array.iteri
      (fun sid kv ->
        match kv with
        | None -> ()
        | Some (known, value) ->
          let m = op_count.(sid) - floors.(sid) in
          let need = max 1 (((m * (m - 1) / 2) + 7) / 8) in
          if need > Bytes.length known then begin
            let cap = max need (2 * Bytes.length known) in
            let grow src =
              let bytes = Bytes.make cap '\000' in
              Bytes.blit src 0 bytes 0 (Bytes.length src);
              bytes
            in
            tables.(sid) <- Some (grow known, grow value)
          end)
      tables;
    (* Specs are recompiled from the extension's own schedules: along a
       stream an [Explicit] pair list may grow with the appended text, and
       compiling is O(spec size) — noise next to the table transfer. *)
    let compiled = Array.map (fun s -> Conflict.compile s.conflict) h.scheds in
    h.ccache <-
      Some
        { op_index; op_sched; op_count; compiled; floors; tables;
          donated = false }

(* Introspection: how much of the conflict-pair space the memo has decided.
   The total counts one slot per unordered pair of same-schedule operations
   (the triangular bitmatrix layout); the known count is the popcount of
   the allocated "known" planes.  No memo yet means nothing decided. *)
let memo_stats h =
  let popcount_byte =
    let tbl = Array.init 256 (fun b ->
        let rec go b acc = if b = 0 then acc else go (b lsr 1) (acc + (b land 1)) in
        go b 0)
    in
    fun c -> tbl.(Char.code c)
  in
  let total =
    Array.fold_left
      (fun acc (s : schedule) ->
        let m =
          Int_set.fold
            (fun t acc -> acc + List.length h.nodes.(t).children)
            s.transactions 0
        in
        acc + (m * (m - 1) / 2))
      0 h.scheds
  in
  let known =
    match h.ccache with
    | None -> 0
    | Some c ->
      Array.fold_left
        (fun acc -> function
          | None -> acc
          | Some (k, _) ->
            let n = ref acc in
            Bytes.iter (fun byte -> n := !n + popcount_byte byte) k;
            !n)
        0 c.tables
  in
  (* Tables lent along an extension chain (see [extend_cache]) can carry
     decided bits for the extension's pairs above this history's own
     range; clamp so the ratio stays a ratio. *)
  (min known total, total)

(* Release every schedule's memo rows: raise the floor to the current
   operation count and drop the triangular tables.  Pairs wholly below
   the floor evaluate uncached from then on; pairs among operations
   appended {e after} the release re-memoize in fresh, windowed tables
   (see [floors] and [conflicts]).  The engine calls this when it folds a
   certified prefix — the released pairs belong to the folded region and
   are re-probed at most on its boundary.  Forcing the cache first makes
   release idempotent and keeps a later [extend_cache] carrying the
   floors forward. *)
let memo_release h =
  let c = cache h in
  Array.iteri
    (fun s _ ->
      c.floors.(s) <- c.op_count.(s);
      c.tables.(s) <- None)
    c.tables

(* Bytes held by the allocated memo planes — the cheap memory-accounting
   probe ([memo_stats] counts decided pairs, not storage). *)
let memo_bytes h =
  match h.ccache with
  | None -> 0
  | Some c ->
    Array.fold_left
      (fun acc -> function
        | None -> acc
        | Some (k, v) -> acc + Bytes.length k + Bytes.length v)
      0 c.tables

let descendants h i =
  let rec go acc = function
    | [] -> acc
    | x :: rest -> go (Int_set.add x acc) (List.rev_append h.nodes.(x).children rest)
  in
  go Int_set.empty h.nodes.(i).children

let composite_transaction h r =
  if not (is_root h r) then invalid_arg "History.composite_transaction: not a root";
  Int_set.add r (descendants h r)

let invocation_graph h = h.ig

let level h s = h.levels.(s)

let order h = Array.fold_left max 0 h.levels

let level_of_node h i =
  match h.nodes.(i).sched with None -> 0 | Some s -> h.levels.(s)

let schedules_at_level h l =
  Array.to_list h.scheds
  |> List.filter_map (fun s -> if h.levels.(s.sid) = l then Some s.sid else None)

let pp_node h ppf i = Fmt.pf ppf "%a#%d" Label.pp h.nodes.(i).label i

let pp_node_sched h ppf i =
  (* The owning schedule: the one the node is an operation of; a root is
     nobody's operation, so fall back to the schedule it is a transaction
     of.  Leaves always have an owner, so the bare fallback never fires. *)
  match (sched_of_op h i, sched_of_tx h i) with
  | Some s, _ | None, Some s ->
    Fmt.pf ppf "%a@@%s" (pp_node h) i h.scheds.(s).sname
  | None, None -> pp_node h ppf i

let pp ppf h =
  let pp_rel_named name ppf r =
    if not (Rel.is_empty r) then Fmt.pf ppf "@ %s: %a" name Rel.pp r
  in
  Array.iter
    (fun s ->
      Fmt.pf ppf "@[<v 2>schedule %s (level %d, conflict %a)%a%a%a%a@ txs: %a@]@."
        s.sname h.levels.(s.sid) Conflict.pp s.conflict
        (pp_rel_named "weak-in") s.weak_in (pp_rel_named "strong-in") s.strong_in
        (pp_rel_named "weak-out") s.weak_out (pp_rel_named "strong-out")
        s.strong_out Ids.pp_set s.transactions)
    h.scheds;
  let rec pp_tree ppf i =
    let n = h.nodes.(i) in
    match n.children with
    | [] -> pp_node h ppf i
    | cs ->
      Fmt.pf ppf "@[<v 2>%a@ %a@]" (pp_node h) i
        (Fmt.list ~sep:Fmt.cut pp_tree) cs
  in
  List.iter (fun r -> Fmt.pf ppf "%a@." pp_tree r) (roots h)

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)
(* ------------------------------------------------------------------ *)

module Builder = struct
  type bnode = {
    bid : id;
    blabel : Label.t;
    bparent : id option;
    mutable bchildren : id list; (* reversed *)
    bsched : sched_id option;
    mutable bintra_weak : Rel.t;
    mutable bintra_strong : Rel.t;
  }

  type bsched = {
    bsid : sched_id;
    bsname : string;
    bconflict : Conflict.spec;
    mutable btxs : Int_set.t;
    mutable bweak_in : Rel.t;
    mutable bstrong_in : Rel.t;
    mutable bweak_out : Rel.t;
    mutable bstrong_out : Rel.t;
    mutable blog : id list;
  }

  type t = {
    bnodes : (id, bnode) Hashtbl.t;
    bscheds : (sched_id, bsched) Hashtbl.t;
    mutable next_node : int;
    mutable next_sched : int;
  }

  let create () =
    { bnodes = Hashtbl.create 64; bscheds = Hashtbl.create 8; next_node = 0; next_sched = 0 }

  let get_node b i =
    match Hashtbl.find_opt b.bnodes i with
    | Some n -> n
    | None -> invalid_arg (Fmt.str "History.Builder: unknown node %d" i)

  let get_sched b s =
    match Hashtbl.find_opt b.bscheds s with
    | Some s -> s
    | None -> invalid_arg (Fmt.str "History.Builder: unknown schedule %d" s)

  let schedule b ?(conflict = Conflict.Rw) sname =
    let bsid = b.next_sched in
    b.next_sched <- bsid + 1;
    Hashtbl.replace b.bscheds bsid
      {
        bsid;
        bsname = sname;
        bconflict = conflict;
        btxs = Int_set.empty;
        bweak_in = Rel.empty;
        bstrong_in = Rel.empty;
        bweak_out = Rel.empty;
        bstrong_out = Rel.empty;
        blog = [];
      };
    bsid

  let fresh_node b blabel bparent bsched =
    let bid = b.next_node in
    b.next_node <- bid + 1;
    let n =
      {
        bid;
        blabel;
        bparent;
        bchildren = [];
        bsched;
        bintra_weak = Rel.empty;
        bintra_strong = Rel.empty;
      }
    in
    Hashtbl.replace b.bnodes bid n;
    (match bparent with
    | Some p ->
      let pn = get_node b p in
      pn.bchildren <- bid :: pn.bchildren
    | None -> ());
    (match bsched with
    | Some s ->
      let sc = get_sched b s in
      sc.btxs <- Int_set.add bid sc.btxs
    | None -> ());
    bid

  let root b ~sched lbl =
    ignore (get_sched b sched);
    fresh_node b lbl None (Some sched)

  let tx b ~parent ~sched lbl =
    ignore (get_sched b sched);
    let pn = get_node b parent in
    if pn.bsched = None then invalid_arg "History.Builder.tx: parent is a leaf";
    fresh_node b lbl (Some parent) (Some sched)

  let leaf b ~parent lbl =
    let pn = get_node b parent in
    if pn.bsched = None then invalid_arg "History.Builder.leaf: parent is a leaf";
    fresh_node b lbl (Some parent) None

  (* The schedule of which node [i] is an operation. *)
  let op_sched b i =
    match (get_node b i).bparent with
    | None -> None
    | Some p -> (get_node b p).bsched

  let common_sched_exn b what a b' =
    match (op_sched b a, op_sched b b') with
    | Some sa, Some sb when sa = sb -> get_sched b sa
    | _ ->
      invalid_arg
        (Fmt.str "History.Builder.%s: %d and %d are not operations of one schedule"
           what a b')

  let distinct what a b' =
    if a = b' then
      invalid_arg (Fmt.str "History.Builder.%s: %d ordered against itself" what a)

  let weak_out b ~a ~b:b' =
    distinct "weak_out" a b';
    let s = common_sched_exn b "weak_out" a b' in
    s.bweak_out <- Rel.add a b' s.bweak_out

  let strong_out b ~a ~b:b' =
    distinct "strong_out" a b';
    let s = common_sched_exn b "strong_out" a b' in
    s.bstrong_out <- Rel.add a b' s.bstrong_out;
    s.bweak_out <- Rel.add a b' s.bweak_out

  let intra_pair b what a b' =
    let na = get_node b a and nb = get_node b b' in
    match (na.bparent, nb.bparent) with
    | Some pa, Some pb when pa = pb -> get_node b pa
    | _ -> invalid_arg (Fmt.str "History.Builder.%s: %d and %d are not siblings" what a b')

  let intra_weak b ~a ~b:b' =
    distinct "intra_weak" a b';
    let p = intra_pair b "intra_weak" a b' in
    p.bintra_weak <- Rel.add a b' p.bintra_weak

  let intra_strong b ~a ~b:b' =
    distinct "intra_strong" a b';
    let p = intra_pair b "intra_strong" a b' in
    p.bintra_strong <- Rel.add a b' p.bintra_strong;
    p.bintra_weak <- Rel.add a b' p.bintra_weak

  let root_sched_exn b what a b' =
    let na = get_node b a and nb = get_node b b' in
    if na.bparent <> None || nb.bparent <> None then
      invalid_arg (Fmt.str "History.Builder.%s: %d and %d must be roots" what a b');
    match (na.bsched, nb.bsched) with
    | Some sa, Some sb when sa = sb -> get_sched b sa
    | _ ->
      invalid_arg
        (Fmt.str "History.Builder.%s: %d and %d are not roots of one schedule" what a b')

  let input_weak b ~a ~b:b' =
    distinct "input_weak" a b';
    let s = root_sched_exn b "input_weak" a b' in
    s.bweak_in <- Rel.add a b' s.bweak_in

  let input_strong b ~a ~b:b' =
    distinct "input_strong" a b';
    let s = root_sched_exn b "input_strong" a b' in
    s.bstrong_in <- Rel.add a b' s.bstrong_in;
    s.bweak_in <- Rel.add a b' s.bweak_in

  let log b ~sched entries =
    let s = get_sched b sched in
    s.blog <- entries

  (* --- seal ------------------------------------------------------- *)

  let build_ig b =
    let ig = ref Rel.empty in
    Hashtbl.iter
      (fun _ n ->
        match (n.bsched, n.bparent) with
        | Some s, Some p -> (
          match (Hashtbl.find b.bnodes p).bsched with
          | Some ps ->
            if ps = s then
              invalid_arg "History.Builder.seal: schedule invokes itself";
            ig := Rel.add ps s !ig
          | None -> assert false)
        | _ -> ())
      b.bnodes;
    !ig

  let compute_levels n ig =
    let levels = Array.make n 0 in
    let sched_ids = List.init n (fun i -> i) in
    match Rel.topo_sort ~nodes:(Int_set.of_list sched_ids) ig with
    | None -> invalid_arg "History.Builder.seal: recursive invocation graph"
    | Some order ->
      (* Longest path: process in reverse topological order. *)
      List.iter
        (fun s ->
          let succ_max =
            Int_set.fold (fun s' m -> max m levels.(s')) (Rel.succs ig s) 0
          in
          levels.(s) <- succ_max + 1)
        (List.rev order);
      levels

  let seal b =
    let nnodes = b.next_node and nscheds = b.next_sched in
    let bnode i = Hashtbl.find b.bnodes i in
    let bsched s = Hashtbl.find b.bscheds s in
    let ig = build_ig b in
    let levels = compute_levels nscheds ig in
    (* Validate logs: each must be a permutation of the schedule's ops. *)
    Hashtbl.iter
      (fun _ s ->
        if s.blog <> [] then begin
          let ops =
            Int_set.fold
              (fun t acc ->
                List.fold_left (fun acc c -> Int_set.add c acc) acc (bnode t).bchildren)
              s.btxs Int_set.empty
          in
          let logged = Int_set.of_list s.blog in
          if
            (not (Int_set.equal ops logged))
            || List.length s.blog <> Int_set.cardinal logged
          then
            invalid_arg
              (Fmt.str
                 "History.Builder.seal: log of schedule %s is not a permutation of its operations"
                 s.bsname)
        end)
      b.bscheds;
    let get_label i = (bnode i).blabel in
    (* Order completion probes every conflicting pair of each schedule;
       compile each spec once so the loops below never re-interpret a
       list.  Lazy: schedules without logs or input orders never pay it. *)
    let compiled = Hashtbl.create 8 in
    let compiled_of s =
      match Hashtbl.find_opt compiled s.bsid with
      | Some c -> c
      | None ->
        let c = Conflict.compile s.bconflict in
        Hashtbl.add compiled s.bsid c;
        c
    in
    let conflict_in s a b' =
      let na = bnode a and nb = bnode b' in
      if na.bparent = nb.bparent then false
      else Conflict.probe_ids (compiled_of s) ~get_label a b'
    in
    (* Process schedules from the highest level down, completing output
       orders (Def. 3) and pushing them to invoked schedules' input orders
       (Def. 4.7). *)
    let by_level =
      List.sort
        (fun s1 s2 -> compare levels.(s2) levels.(s1))
        (List.init nscheds (fun i -> i))
    in
    List.iter
      (fun sid ->
        let s = bsched sid in
        (* 0. Close the input orders first: every client (strictly higher
           level) has already pushed its pairs, and obligations derived below
           must see their transitive consequences (e.g. orders composing
           across two clients of a shared schedule). *)
        s.bstrong_in <- Rel.transitive_closure s.bstrong_in;
        s.bweak_in <- Rel.transitive_closure (Rel.union s.bweak_in s.bstrong_in);
        (* 1. Derive a minimal weak output order from the log, if present and
           nothing explicit was given: log order on conflicting pairs of
           different transactions. *)
        if s.blog <> [] && Rel.is_empty s.bweak_out then begin
          let rec pairs = function
            | [] -> ()
            | o :: rest ->
              List.iter
                (fun o' ->
                  if conflict_in s o o' then s.bweak_out <- Rel.add o o' s.bweak_out)
                rest;
              pairs rest
          in
          pairs s.blog
        end;
        (* 2. Output orders extend intra-transaction orders (Def. 3.2). *)
        Int_set.iter
          (fun t ->
            let n = bnode t in
            s.bweak_out <- Rel.union s.bweak_out n.bintra_weak;
            s.bstrong_out <- Rel.union s.bstrong_out n.bintra_strong)
          s.btxs;
        (* 3. Conflicting operations of weakly-input-ordered transactions
           follow the input order (Def. 3.1a). *)
        Rel.iter
          (fun t t' ->
            List.iter
              (fun o ->
                List.iter
                  (fun o' ->
                    if conflict_in s o o' then s.bweak_out <- Rel.add o o' s.bweak_out)
                  (bnode t').bchildren)
              (bnode t).bchildren)
          s.bweak_in;
        (* 4. Strong input orders expand to strong output orders over all
           operation pairs (Def. 3.3). *)
        Rel.iter
          (fun t t' ->
            List.iter
              (fun o ->
                List.iter
                  (fun o' -> s.bstrong_out <- Rel.add o o' s.bstrong_out)
                  (bnode t').bchildren)
              (bnode t).bchildren)
          s.bstrong_in;
        (* 5. Strong is contained in weak (Def. 3.4); close transitively. *)
        s.bstrong_out <- Rel.transitive_closure s.bstrong_out;
        s.bweak_out <- Rel.transitive_closure (Rel.union s.bweak_out s.bstrong_out);
        (* 6. Push output orders down as input orders (Def. 4.7). *)
        let push rel strong =
          Rel.iter
            (fun o o' ->
              match ((bnode o).bsched, (bnode o').bsched) with
              | Some c, Some c' when c = c' ->
                let cs = bsched c in
                if strong then cs.bstrong_in <- Rel.add o o' cs.bstrong_in
                else cs.bweak_in <- Rel.add o o' cs.bweak_in
              | _ -> ())
            rel
        in
        push s.bweak_out false;
        push s.bstrong_out true)
      by_level;
    (* Close input orders. *)
    Hashtbl.iter
      (fun _ s ->
        s.bstrong_in <- Rel.transitive_closure s.bstrong_in;
        s.bweak_in <- Rel.transitive_closure (Rel.union s.bweak_in s.bstrong_in))
      b.bscheds;
    let nodes =
      Array.init nnodes (fun i ->
          let n = bnode i in
          {
            id = n.bid;
            label = n.blabel;
            parent = n.bparent;
            children = List.rev n.bchildren;
            sched = n.bsched;
            intra_weak = Rel.transitive_closure n.bintra_weak;
            intra_strong = Rel.transitive_closure n.bintra_strong;
          })
    in
    let scheds =
      Array.init nscheds (fun i ->
          let s = bsched i in
          {
            sid = s.bsid;
            sname = s.bsname;
            conflict = s.bconflict;
            transactions = s.btxs;
            weak_in = s.bweak_in;
            strong_in = s.bstrong_in;
            weak_out = s.bweak_out;
            strong_out = s.bstrong_out;
            log = s.blog;
          })
    in
    { nodes; scheds; levels; ig; inv = None; ccache = None }
end

(* ------------------------------------------------------------------ *)
(* Appending a delta                                                   *)
(* ------------------------------------------------------------------ *)

type op =
  | Schedule of { name : string; conflict : Conflict.spec }
  | Root of { sched : sched_id; label : Label.t }
  | Tx of { parent : id; sched : sched_id; label : Label.t }
  | Leaf of { parent : id; label : Label.t }
  | Weak_out of id * id
  | Strong_out of id * id
  | Intra_weak of id * id
  | Intra_strong of id * id
  | Input_weak of id * id
  | Input_strong of id * id
  | Log of sched_id * id list

type delta = op list

exception Not_an_extension of string

let apply_op b = function
  | Schedule { name; conflict } -> ignore (Builder.schedule b ~conflict name)
  | Root { sched; label } -> ignore (Builder.root b ~sched label)
  | Tx { parent; sched; label } -> ignore (Builder.tx b ~parent ~sched label)
  | Leaf { parent; label } -> ignore (Builder.leaf b ~parent label)
  | Weak_out (a, b') -> Builder.weak_out b ~a ~b:b'
  | Strong_out (a, b') -> Builder.strong_out b ~a ~b:b'
  | Intra_weak (a, b') -> Builder.intra_weak b ~a ~b:b'
  | Intra_strong (a, b') -> Builder.intra_strong b ~a ~b:b'
  | Input_weak (a, b') -> Builder.input_weak b ~a ~b:b'
  | Input_strong (a, b') -> Builder.input_strong b ~a ~b:b'
  | Log (sched, entries) -> Builder.log b ~sched entries

let has_ops h s =
  Int_set.exists (fun t -> h.nodes.(t).children <> []) h.scheds.(s).transactions

(* The extension contract: a delta may only add pairs that touch one of
   its own nodes.  A pair between two older nodes would change relations
   an already certified prefix was decided on, and a log orders all of a
   schedule's operations, so it may only arrive while they are all new. *)
let check_contract h delta =
  let n_old = Array.length h.nodes in
  let refuse what a b =
    raise
      (Not_an_extension
         (Fmt.str "%s pair %d < %d relates two nodes that precede the delta" what a b))
  in
  List.iter
    (function
      | (Weak_out (a, b) | Strong_out (a, b)) when a < n_old && b < n_old ->
        refuse "output" a b
      | (Intra_weak (a, b) | Intra_strong (a, b)) when a < n_old && b < n_old ->
        refuse "intra" a b
      | (Input_weak (a, b) | Input_strong (a, b)) when a < n_old && b < n_old ->
        refuse "input" a b
      | Log (s, _) when s < Array.length h.scheds && has_ops h s ->
        raise
          (Not_an_extension
             (Fmt.str "log of schedule %s orders operations that precede the delta"
                h.scheds.(s).sname))
      | _ -> ())
    delta

(* Whole-history path: a delta onto a history without nodes (at most
   some schedules, which carry no relations yet) is the whole history,
   sealed by the builder — on the empty history exactly the batch parse. *)
let seal_whole h delta =
  let b = Builder.create () in
  Array.iter (fun s -> ignore (Builder.schedule b ~conflict:s.conflict s.sname)) h.scheds;
  List.iter (apply_op b) delta;
  Builder.seal b

let inverses h =
  match h.inv with
  | Some i -> i
  | None ->
    let inv f = Array.map (fun s -> Rel.inverse (f s)) h.scheds in
    let i =
      {
        wo_inv = inv (fun s -> s.weak_out);
        so_inv = inv (fun s -> s.strong_out);
        wi_inv = inv (fun s -> s.weak_in);
        si_inv = inv (fun s -> s.strong_in);
      }
    in
    h.inv <- Some i;
    i

(* The relations [extend_sealed] maintains: a schedule's four orders, and
   a transaction's two intra orders (indexed by the transaction). *)
type rel_kind = WO | SO | WI | SI | IW | IS

(* Incremental path.  The sealed relations are the least ones closed
   under [seal]'s completion rules (Def. 3 completion, Def. 4.7
   push-down, transitive closure); [seal] reaches them level by level,
   and every rule is monotone, so adding facts only adds pairs.  Each
   new pair enters its (closed) relation by one closure insertion —
   (preds a + a) x (b + succs b) — and every pair that insertion adds is
   queued once to fire the completion rules it is a premise of.  New
   operations fire the input-order expansions of their transaction's
   existing input pairs.  Nothing here reads a pair that is not new or
   adjacent to a new one. *)
let extend_sealed h delta =
  let n_old = Array.length h.nodes and ns_old = Array.length h.scheds in
  let n_add, ns_add =
    List.fold_left
      (fun (n, s) -> function
        | Root _ | Tx _ | Leaf _ -> (n + 1, s)
        | Schedule _ -> (n, s + 1)
        | _ -> (n, s))
      (0, 0) delta
  in
  let n = n_old + n_add and ns = ns_old + ns_add in
  let inv = inverses h in
  let nodes = Array.make n h.nodes.(0) in
  Array.blit h.nodes 0 nodes 0 n_old;
  let grow a pad = Array.append a (Array.make ns_add pad) in
  let old f = Array.map f h.scheds in
  let names = grow (old (fun s -> s.sname)) "" in
  let specs = grow (old (fun s -> s.conflict)) Conflict.Never in
  let txs = grow (old (fun s -> s.transactions)) Int_set.empty in
  let logs = grow (old (fun s -> s.log)) [] in
  let wo = grow (old (fun s -> s.weak_out)) Rel.empty in
  let so = grow (old (fun s -> s.strong_out)) Rel.empty in
  let wi = grow (old (fun s -> s.weak_in)) Rel.empty in
  let si = grow (old (fun s -> s.strong_in)) Rel.empty in
  let wo_inv = grow inv.wo_inv Rel.empty and so_inv = grow inv.so_inv Rel.empty in
  let wi_inv = grow inv.wi_inv Rel.empty and si_inv = grow inv.si_inv Rel.empty in
  let ig = ref h.ig and ig_grew = ref false in
  (* 1. Structure, validated as the builder validates it. *)
  let next_node = ref n_old and next_sched = ref ns_old in
  let node v =
    if v < 0 || v >= !next_node then
      invalid_arg (Fmt.str "History.Builder: unknown node %d" v);
    nodes.(v)
  in
  let sched s =
    if s < 0 || s >= !next_sched then
      invalid_arg (Fmt.str "History.Builder: unknown schedule %d" s)
  in
  let gained = Array.make ns false in
  let fresh label parent sched =
    let v = !next_node in
    incr next_node;
    nodes.(v) <-
      { id = v; label; parent; children = []; sched; intra_weak = Rel.empty;
        intra_strong = Rel.empty };
    (match parent with
    | Some p ->
      nodes.(p) <- { (nodes.(p)) with children = nodes.(p).children @ [ v ] };
      Option.iter (fun s -> gained.(s) <- true) nodes.(p).sched
    | None -> ());
    match sched with Some s -> txs.(s) <- Int_set.add v txs.(s) | None -> ()
  in
  let child what parent =
    let p = node parent in
    match p.sched with
    | None -> invalid_arg (Fmt.str "History.Builder.%s: parent is a leaf" what)
    | Some ps -> ps
  in
  let distinct what a b =
    if a = b then
      invalid_arg (Fmt.str "History.Builder.%s: %d ordered against itself" what a)
  in
  let op_sched v = match (node v).parent with None -> None | Some p -> nodes.(p).sched in
  let seeds = ref [] in
  let explicit_out = Array.make ns false in
  let new_logs = ref [] in
  List.iter
    (function
      | Schedule { name; conflict } ->
        let s = !next_sched in
        incr next_sched;
        names.(s) <- name;
        specs.(s) <- conflict
      | Root { sched = s; label } ->
        sched s;
        fresh label None (Some s)
      | Tx { parent; sched = s; label } ->
        sched s;
        let ps = child "tx" parent in
        if ps = s then invalid_arg "History.Builder.seal: schedule invokes itself";
        if not (Rel.mem ps s !ig) then begin
          ig := Rel.add ps s !ig;
          ig_grew := true
        end;
        fresh label (Some parent) (Some s)
      | Leaf { parent; label } ->
        ignore (child "leaf" parent);
        fresh label (Some parent) None
      | (Weak_out (a, b) | Strong_out (a, b)) as o ->
        let what, kind = match o with Weak_out _ -> ("weak_out", WO) | _ -> ("strong_out", SO) in
        distinct what a b;
        (match (op_sched a, op_sched b) with
        | Some sa, Some sb when sa = sb ->
          explicit_out.(sa) <- true;
          seeds := (kind, sa, a, b) :: !seeds
        | _ ->
          invalid_arg
            (Fmt.str "History.Builder.%s: %d and %d are not operations of one schedule"
               what a b))
      | (Intra_weak (a, b) | Intra_strong (a, b)) as o ->
        let what, kind =
          match o with Intra_weak _ -> ("intra_weak", IW) | _ -> ("intra_strong", IS)
        in
        distinct what a b;
        (match ((node a).parent, (node b).parent) with
        | Some pa, Some pb when pa = pb -> seeds := (kind, pa, a, b) :: !seeds
        | _ ->
          invalid_arg (Fmt.str "History.Builder.%s: %d and %d are not siblings" what a b))
      | (Input_weak (a, b) | Input_strong (a, b)) as o ->
        let what, kind =
          match o with Input_weak _ -> ("input_weak", WI) | _ -> ("input_strong", SI)
        in
        distinct what a b;
        let na = node a and nb = node b in
        if na.parent <> None || nb.parent <> None then
          invalid_arg (Fmt.str "History.Builder.%s: %d and %d must be roots" what a b);
        (match (na.sched, nb.sched) with
        | Some sa, Some sb when sa = sb -> seeds := (kind, sa, a, b) :: !seeds
        | _ ->
          invalid_arg
            (Fmt.str "History.Builder.%s: %d and %d are not roots of one schedule" what a b))
      | Log (s, entries) ->
        sched s;
        logs.(s) <- entries;
        gained.(s) <- true;
        new_logs := s :: !new_logs)
    delta;
  let levels =
    if !ig_grew then Builder.compute_levels ns !ig
    else grow h.levels 1
  in
  (* Every log must still be a permutation of its schedule's operations
     (a schedule with a log that gains operations fails, as in [seal]). *)
  let ops s =
    Int_set.fold (fun t acc -> List.rev_append nodes.(t).children acc) txs.(s) []
  in
  Array.iteri
    (fun s log ->
      if log <> [] && gained.(s) then begin
        let ops = Int_set.of_list (ops s) and logged = Int_set.of_list log in
        if (not (Int_set.equal ops logged)) || List.length log <> Int_set.cardinal logged
        then
          invalid_arg
            (Fmt.str
               "History.Builder.seal: log of schedule %s is not a permutation of its operations"
               names.(s))
      end)
    logs;
  (* 2. Closure insertion and rule firing. *)
  let compiled = Array.make ns None in
  let conflict s a b =
    nodes.(a).parent <> nodes.(b).parent
    &&
    let c =
      match compiled.(s) with
      | Some c -> c
      | None ->
        let c =
          match h.ccache with
          | Some cc when s < ns_old -> cc.compiled.(s)
          | _ -> Conflict.compile specs.(s)
        in
        compiled.(s) <- Some c;
        c
    in
    Conflict.probe_ids c ~get_label:(fun v -> nodes.(v).label) a b
  in
  let rel k i =
    match k with
    | WO -> wo.(i)
    | SO -> so.(i)
    | WI -> wi.(i)
    | SI -> si.(i)
    | IW -> nodes.(i).intra_weak
    | IS -> nodes.(i).intra_strong
  in
  let preds k i a =
    match k with
    | WO -> Rel.succs wo_inv.(i) a
    | SO -> Rel.succs so_inv.(i) a
    | WI -> Rel.succs wi_inv.(i) a
    | SI -> Rel.succs si_inv.(i) a
    | IW | IS -> Rel.preds (rel k i) a
  in
  let set k i a b =
    match k with
    | WO -> wo.(i) <- Rel.add a b wo.(i); wo_inv.(i) <- Rel.add b a wo_inv.(i)
    | SO -> so.(i) <- Rel.add a b so.(i); so_inv.(i) <- Rel.add b a so_inv.(i)
    | WI -> wi.(i) <- Rel.add a b wi.(i); wi_inv.(i) <- Rel.add b a wi_inv.(i)
    | SI -> si.(i) <- Rel.add a b si.(i); si_inv.(i) <- Rel.add b a si_inv.(i)
    | IW -> nodes.(i) <- { (nodes.(i)) with intra_weak = Rel.add a b nodes.(i).intra_weak }
    | IS ->
      nodes.(i) <- { (nodes.(i)) with intra_strong = Rel.add a b nodes.(i).intra_strong }
  in
  let fired = Queue.create () in
  let add k i a b =
    let r = rel k i in
    if not (Rel.mem a b r) then begin
      let ps = Int_set.add a (preds k i a) and ss = Int_set.add b (Rel.succs r b) in
      Int_set.iter
        (fun x ->
          Int_set.iter
            (fun y ->
              if not (Rel.mem x y (rel k i)) then begin
                set k i x y;
                Queue.push (k, i, x, y) fired
              end)
            ss)
        ps
    end
  in
  let children v = nodes.(v).children in
  let expand ~strong s t t' =
    List.iter
      (fun o ->
        List.iter
          (fun o' ->
            if strong then add SO s o o' else if conflict s o o' then add WO s o o')
          (children t'))
      (children t)
  in
  let push_down k a b =
    match (nodes.(a).sched, nodes.(b).sched) with
    | Some c, Some c' when c = c' -> add k c a b
    | _ -> ()
  in
  let tx_sched p = match nodes.(p).sched with Some s -> s | None -> assert false in
  let fire (k, i, a, b) =
    match k with
    | SI -> add WI i a b; expand ~strong:true i a b
    | WI -> expand ~strong:false i a b
    | SO -> add WO i a b; push_down SI a b
    | WO -> push_down WI a b
    | IS -> add IW i a b; add SO (tx_sched i) a b
    | IW -> add WO (tx_sched i) a b
  in
  (* New operations meet the input pairs their transaction already had
     (Def. 3.1a and 3.3): pairs added from here on see every child. *)
  for v = n_old to n - 1 do
    match nodes.(v).parent with
    | None -> ()
    | Some t ->
      let s = tx_sched t in
      let meet ~strong succs preds =
        Int_set.iter
          (fun t' ->
            List.iter
              (fun o' ->
                if strong then add SO s v o' else if conflict s v o' then add WO s v o')
              (children t'))
          succs;
        Int_set.iter
          (fun t' ->
            List.iter
              (fun o' ->
                if strong then add SO s o' v else if conflict s o' v then add WO s o' v)
              (children t'))
          preds
      in
      meet ~strong:false (Rel.succs wi.(s) t) (Rel.succs wi_inv.(s) t);
      meet ~strong:true (Rel.succs si.(s) t) (Rel.succs si_inv.(s) t)
  done;
  (* A log on a schedule without explicit outputs yields its minimal
     output order (seal's step 1); the contract made its operations new. *)
  List.iter
    (fun s ->
      if not explicit_out.(s) then
        let rec pairs = function
          | [] -> ()
          | o :: rest ->
            List.iter (fun o' -> if conflict s o o' then add WO s o o') rest;
            pairs rest
        in
        pairs logs.(s))
    (List.sort_uniq compare !new_logs);
  List.iter (fun (k, i, a, b) -> add k i a b) (List.rev !seeds);
  while not (Queue.is_empty fired) do
    fire (Queue.pop fired)
  done;
  let scheds =
    Array.init ns (fun s ->
        {
          sid = s;
          sname = names.(s);
          conflict = specs.(s);
          transactions = txs.(s);
          weak_in = wi.(s);
          strong_in = si.(s);
          weak_out = wo.(s);
          strong_out = so.(s);
          log = logs.(s);
        })
  in
  {
    nodes;
    scheds;
    levels;
    ig = !ig;
    inv = Some { wo_inv; so_inv; wi_inv; si_inv };
    ccache = None;
  }

let append h delta =
  check_contract h delta;
  if Array.length h.nodes = 0 then seal_whole h delta else extend_sealed h delta

(* ------------------------------------------------------------------ *)
(* Root-prefix extraction                                              *)
(* ------------------------------------------------------------------ *)

(* The sub-execution of the first [k] root transactions (ascending id),
   rebuilt through the Builder in root-major depth-first order.  That
   order gives prefix histories the extension shape the incremental
   monitor relies on: [prefix_by_roots h k] and [prefix_by_roots h (k+1)]
   assign identical ids to shared nodes, and the larger prefix only
   appends nodes and grows relations.  Schedules are all retained (an
   empty schedule is a valid prefix state); explicit output orders, logs,
   intra orders and root input orders are restricted to kept nodes and
   re-sealed — seal's completion rules are monotone and idempotent on the
   restriction of an already-completed history, so [prefix_by_roots h
   (List.length (roots h))] is the whole of [h] up to the id relabelling
   (criteria verdicts are invariant under it). *)
let prefix_by_roots h k =
  let module B = Builder in
  let all_roots = roots h in
  if k < 0 || k > List.length all_roots then
    invalid_arg
      (Fmt.str "History.prefix_by_roots: %d not within 0..%d roots" k
         (List.length all_roots));
  let b = B.create () in
  Array.iter
    (fun (s : schedule) -> ignore (B.schedule b ~conflict:s.conflict s.sname))
    h.scheds;
  let kept_roots = List.filteri (fun i _ -> i < k) all_roots in
  let idmap = Hashtbl.create 64 in
  let rec build parent i =
    let n = h.nodes.(i) in
    let nid =
      match (parent, n.sched) with
      | None, Some s -> B.root b ~sched:s n.label
      | Some p, Some s -> B.tx b ~parent:p ~sched:s n.label
      | Some p, None -> B.leaf b ~parent:p n.label
      | None, None ->
        invalid_arg "History.prefix_by_roots: root without a schedule"
    in
    Hashtbl.replace idmap i nid;
    List.iter (fun c -> build (Some nid) c) n.children
  in
  List.iter (fun r -> build None r) kept_roots;
  let kept i = Hashtbl.mem idmap i in
  let m i = Hashtbl.find idmap i in
  let replay rel emit =
    Rel.iter (fun a b' -> if kept a && kept b' then emit ~a:(m a) ~b:(m b')) rel
  in
  Array.iter
    (fun (n : node) ->
      if n.children <> [] && kept n.id then begin
        replay n.intra_strong (B.intra_strong b);
        replay (Rel.diff n.intra_weak n.intra_strong) (B.intra_weak b)
      end)
    h.nodes;
  Array.iter
    (fun (s : schedule) ->
      let root_pair rel =
        Rel.filter (fun a b' -> is_root h a && is_root h b') rel
      in
      replay (root_pair s.strong_in) (B.input_strong b);
      replay (Rel.diff (root_pair s.weak_in) (root_pair s.strong_in))
        (B.input_weak b);
      replay s.strong_out (B.strong_out b);
      replay (Rel.diff s.weak_out s.strong_out) (B.weak_out b);
      if s.log <> [] then
        B.log b ~sched:s.sid
          (List.filter_map (fun i -> if kept i then Some (m i) else None) s.log))
    h.scheds;
  B.seal b

(* ------------------------------------------------------------------ *)
(* Read-only restricted views                                          *)
(* ------------------------------------------------------------------ *)

module View = struct
  type history = t

  type t = {
    vbase : history;
    kept : bool array; (* downward-closed survival, by original id *)
    map : int array; (* original id -> dense new id; -1 when dropped *)
    n_kept : int;
  }

  let make h ~keep =
    let n = Array.length h.nodes in
    (* Downward closure: parents have smaller ids than their children
       (builder allocation order), so one ascending pass settles
       survival. *)
    let kept = Array.make n false in
    for i = 0 to n - 1 do
      kept.(i) <-
        Int_set.mem i keep
        && (match h.nodes.(i).parent with None -> true | Some p -> kept.(p))
    done;
    let map = Array.make n (-1) in
    let next = ref 0 in
    for i = 0 to n - 1 do
      if kept.(i) then begin
        map.(i) <- !next;
        incr next
      end
    done;
    { vbase = h; kept; map; n_kept = !next }

  let base v = v.vbase
  let n_nodes v = v.n_kept
  let mem v i = i >= 0 && i < Array.length v.kept && v.kept.(i)
  (* Transfer the base history's conflict memo onto the materialized
     restriction.  [cache] ranks a schedule's operations in ascending node-id
     order; a restriction keeps relative id order, so the old-rank ->
     new-rank map over surviving operations is monotone and every surviving
     unordered pair keeps its (hi, lo) orientation.  Conflict decisions
     depend only on labels (unchanged) and on Explicit id pairs (remapped by
     [to_history] along the same id map), so known bits transfer
     verbatim. *)
  let seed_cache v (h' : history) =
    match v.vbase.ccache with
    | None -> ()
    | Some old ->
      let c = cache h' in
      Array.iter
        (fun (s : schedule) ->
          match old.tables.(s.sid) with
          | None -> ()
          | Some _ when old.floors.(s.sid) > 0 ->
            (* A released prefix shifted the table to windowed ranks; the
               old-rank -> new-rank transfer below assumes floor-0 ranks,
               so skip — the restriction re-memoizes lazily. *)
            ()
          | Some (oknown, ovalue) ->
            let m_old = old.op_count.(s.sid) in
            (* New rank of each surviving operation, indexed by old rank;
               ascending id order matches the rank assignment of [cache]. *)
            let nr = Array.make (max 1 m_old) (-1) in
            let survivors = ref 0 in
            Array.iteri
              (fun o _ ->
                if old.op_sched.(o) = s.sid && v.kept.(o) then begin
                  nr.(old.op_index.(o)) <- !survivors;
                  incr survivors
                end)
              v.vbase.nodes;
            if !survivors > 1 && !survivors = c.op_count.(s.sid) then begin
              let m_new = !survivors in
              let known, value =
                match c.tables.(s.sid) with
                | Some kv -> kv
                | None ->
                  let bytes = max 1 (((m_new * (m_new - 1) / 2) + 7) / 8) in
                  let kv = (Bytes.make bytes '\000', Bytes.make bytes '\000') in
                  c.tables.(s.sid) <- Some kv;
                  kv
              in
              let get b bit =
                Char.code (Bytes.unsafe_get b (bit lsr 3))
                land (1 lsl (bit land 7))
                <> 0
              in
              let set b bit =
                Bytes.unsafe_set b (bit lsr 3)
                  (Char.unsafe_chr
                     (Char.code (Bytes.unsafe_get b (bit lsr 3))
                     lor (1 lsl (bit land 7))))
              in
              for hi = 1 to m_old - 1 do
                if nr.(hi) >= 0 then
                  for lo = 0 to hi - 1 do
                    if nr.(lo) >= 0 then begin
                      let obit = (hi * (hi - 1) / 2) + lo in
                      if get oknown obit then begin
                        (* Monotone rank map: nr.(hi) > nr.(lo). *)
                        let nbit = (nr.(hi) * (nr.(hi) - 1) / 2) + nr.(lo) in
                        set known nbit;
                        if get ovalue obit then set value nbit
                      end
                    end
                  done
              done
            end)
        v.vbase.scheds

  let to_history v =
    let h = v.vbase in
    let n = Array.length h.nodes in
    let kept = v.kept and map = v.map in
    let both x y = x < n && y < n && kept.(x) && kept.(y) in
    let b = Builder.create () in
    List.iter
      (fun (s : schedule) ->
        let conflict =
          match s.conflict with
          | Conflict.Explicit pairs ->
            (* Explicit specs carry node ids; pairs with a dropped endpoint
               are gone along with the endpoint. *)
            Conflict.Explicit
              (List.filter_map
                 (fun (x, y) ->
                   if both x y then Some (map.(x), map.(y)) else None)
                 pairs)
          | spec -> spec
        in
        let sid = Builder.schedule b ~conflict s.sname in
        assert (sid = s.sid))
      (schedules h);
    for i = 0 to n - 1 do
      if kept.(i) then begin
        let nd = h.nodes.(i) in
        let id =
          match (nd.parent, nd.sched) with
          | None, Some sched -> Builder.root b ~sched nd.label
          | Some p, Some sched -> Builder.tx b ~parent:map.(p) ~sched nd.label
          | Some p, None -> Builder.leaf b ~parent:map.(p) nd.label
          | None, None -> assert false
        in
        assert (id = map.(i))
      end
    done;
    for i = 0 to n - 1 do
      if kept.(i) then begin
        let nd = h.nodes.(i) in
        Rel.iter
          (fun x y -> if both x y then Builder.intra_weak b ~a:map.(x) ~b:map.(y))
          nd.intra_weak;
        Rel.iter
          (fun x y ->
            if both x y then Builder.intra_strong b ~a:map.(x) ~b:map.(y))
          nd.intra_strong
      end
    done;
    List.iter
      (fun (s : schedule) ->
        (* Root input orders; non-root input orders are re-derived by
           seal. *)
        let root_pair x y = is_root h x && is_root h y in
        Rel.iter
          (fun x y ->
            if root_pair x y && both x y then
              Builder.input_weak b ~a:map.(x) ~b:map.(y))
          s.weak_in;
        Rel.iter
          (fun x y ->
            if root_pair x y && both x y then
              Builder.input_strong b ~a:map.(x) ~b:map.(y))
          s.strong_in;
        if s.log <> [] then begin
          (* The restricted execution's log: the kept operations in the
             original serialization order.  Explicit outputs are dropped and
             re-derived from it — a stale output restriction next to a
             changed log is the same hazard {!Clone.with_logs} guards
             against. *)
          match
            List.filter_map (fun v -> if kept.(v) then Some map.(v) else None) s.log
          with
          | [] -> ()
          | log -> Builder.log b ~sched:s.sid log
        end
        else begin
          Rel.iter
            (fun x y -> if both x y then Builder.weak_out b ~a:map.(x) ~b:map.(y))
            s.weak_out;
          Rel.iter
            (fun x y ->
              if both x y then Builder.strong_out b ~a:map.(x) ~b:map.(y))
            s.strong_out
        end)
      (schedules h);
    let h' = Builder.seal b in
    seed_cache v h';
    h'
end
