open Ids

(* Bits per word: OCaml native ints carry [Sys.int_size] usable bits (63 on
   64-bit platforms); we use all of them, including the sign bit — the
   bitwise operators are oblivious to signedness. *)
let bpw = Sys.int_size

(* External id -> compact index.  Universes in this codebase are dense id
   ranges (node ids are allocated consecutively), so the common case is a
   plain offset array; a hashtable covers pathologically sparse universes
   without blowing up memory. *)
type index =
  | Direct of { off : int; map : int array } (* map.(id - off) = idx or -1 *)
  | Table of (int, int) Hashtbl.t

type t = {
  ids : int array; (* compact index -> external id, strictly increasing *)
  index : index;
  words : int; (* words per row *)
  rows : int array array; (* bit j of rows.(i): edge i -> j (compact) *)
}

(* 16-bit popcount table, built once. *)
let pop16 =
  lazy
    (let t = Bytes.create 65536 in
     for i = 0 to 65535 do
       let rec count x acc = if x = 0 then acc else count (x lsr 1) (acc + (x land 1)) in
       Bytes.unsafe_set t i (Char.chr (count i 0))
     done;
     t)

let popcount x =
  let t = Lazy.force pop16 in
  let b i = Char.code (Bytes.unsafe_get t ((x lsr i) land 0xffff)) in
  b 0 + b 16 + b 32 + b 48

(* Number of trailing zeros of a non-zero word. *)
let ntz x =
  let x = x land (-x) in
  let n = ref 0 and x = ref x in
  if !x land 0xFFFFFFFF = 0 then begin n := !n + 32; x := !x lsr 32 end;
  if !x land 0xFFFF = 0 then begin n := !n + 16; x := !x lsr 16 end;
  if !x land 0xFF = 0 then begin n := !n + 8; x := !x lsr 8 end;
  if !x land 0xF = 0 then begin n := !n + 4; x := !x lsr 4 end;
  if !x land 0x3 = 0 then begin n := !n + 2; x := !x lsr 2 end;
  if !x land 0x1 = 0 then incr n;
  !n

let size t = Array.length t.ids

let universe t = Int_set.of_list (Array.to_list t.ids)

let idx_of_id t v =
  match t.index with
  | Direct { off; map } ->
    let k = v - off in
    if k < 0 || k >= Array.length map || map.(k) < 0 then None else Some map.(k)
  | Table tbl -> Hashtbl.find_opt tbl v

let of_ids ids =
  let n = Array.length ids in
  for i = 1 to n - 1 do
    if ids.(i - 1) >= ids.(i) then
      invalid_arg "Bitrel.of_ids: ids must be strictly increasing"
  done;
  let ids = Array.copy ids in
  let index =
    if n = 0 then Direct { off = 0; map = [||] }
    else
      let span = ids.(n - 1) - ids.(0) + 1 in
      if span <= (4 * n) + 1024 then begin
        let map = Array.make span (-1) in
        Array.iteri (fun i v -> map.(v - ids.(0)) <- i) ids;
        Direct { off = ids.(0); map }
      end
      else begin
        let tbl = Hashtbl.create (max 16 n) in
        Array.iteri (fun i v -> Hashtbl.replace tbl v i) ids;
        Table tbl
      end
  in
  let words = max 1 ((n + bpw - 1) / bpw) in
  { ids; index; words; rows = Array.init n (fun _ -> Array.make words 0) }

let create us = of_ids (Array.of_list (Int_set.elements us))

let copy t = { t with rows = Array.map Array.copy t.rows }

let same_universe t1 t2 =
  t1.ids == t2.ids
  || (Array.length t1.ids = Array.length t2.ids
     && Array.for_all2 ( = ) t1.ids t2.ids)

let idx_exn t what v =
  match idx_of_id t v with
  | Some i -> i
  | None -> invalid_arg (Fmt.str "Bitrel.%s: node %d outside the universe" what v)

let set_bit row j = row.(j / bpw) <- row.(j / bpw) lor (1 lsl (j mod bpw))

let get_bit row j = row.(j / bpw) land (1 lsl (j mod bpw)) <> 0

let add t a b = set_bit t.rows.(idx_exn t "add" a) (idx_exn t "add" b)

let mem t a b =
  match (idx_of_id t a, idx_of_id t b) with
  | Some i, Some j -> get_bit t.rows.(i) j
  | _ -> false

let cardinal t =
  let n = ref 0 in
  Array.iter (fun row -> Array.iter (fun w -> n := !n + popcount w) row) t.rows;
  !n

let is_empty t = Array.for_all (fun row -> Array.for_all (( = ) 0) row) t.rows

(* Iterate the set bits of [row], ascending, as compact indices. *)
let iter_row_bits f row =
  Array.iteri
    (fun w bits ->
      let base = w * bpw in
      let bits = ref bits in
      while !bits <> 0 do
        f (base + ntz !bits);
        bits := !bits land (!bits - 1)
      done)
    row

let iter f t =
  Array.iteri
    (fun i row -> iter_row_bits (fun j -> f t.ids.(i) t.ids.(j)) row)
    t.rows

let fold f t acc =
  let acc = ref acc in
  iter (fun a b -> acc := f a b !acc) t;
  !acc

let to_list t = List.rev (fold (fun a b acc -> (a, b) :: acc) t [])

let union_into ~into t =
  if not (same_universe into t) then
    invalid_arg "Bitrel.union_into: different universes";
  Array.iteri
    (fun i row ->
      let dst = into.rows.(i) in
      Array.iteri (fun w bits -> dst.(w) <- dst.(w) lor bits) row)
    t.rows

let restrict ~keep t =
  let r = create (Int_set.filter keep (universe t)) in
  iter (fun a b -> if keep a && keep b then add r a b) t;
  r

(* ------------------------------------------------------------------ *)
(* Tarjan SCC (iterative), over compact indices.                       *)
(* ------------------------------------------------------------------ *)

(* Returns [comp_of] (compact index -> component number) and the component
   count.  Components are numbered in completion order, so every component
   reachable from component [c] has a number strictly below [c] — i.e.
   ascending component number is reverse topological (sinks first). *)
let scc_condensation t =
  let n = size t in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp_of = Array.make n (-1) in
  let stack = ref [] in
  let counter = ref 0 in
  let ncomps = ref 0 in
  (* Explicit DFS stack: (node, saved word index, saved bits) frames are
     emulated by re-scanning from a per-node cursor over the successor
     row.  The cursor stores the next bit position to examine. *)
  let cursor = Array.make n 0 in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      let dfs = ref [ root ] in
      index.(root) <- !counter;
      lowlink.(root) <- !counter;
      incr counter;
      stack := root :: !stack;
      on_stack.(root) <- true;
      cursor.(root) <- 0;
      while !dfs <> [] do
        let v = List.hd !dfs in
        let row = t.rows.(v) in
        (* Find the next unvisited successor at or after the cursor. *)
        let next = ref (-1) in
        let j = ref cursor.(v) in
        while !next < 0 && !j < n do
          let w = !j / bpw in
          let bits = row.(w) lsr (!j mod bpw) in
          if bits = 0 then j := (w + 1) * bpw
          else begin
            let cand = !j + ntz bits in
            if cand >= n then j := n
            else begin
              cursor.(v) <- cand + 1;
              if index.(cand) < 0 then next := cand
              else begin
                if on_stack.(cand) then
                  lowlink.(v) <- min lowlink.(v) index.(cand);
                j := cand + 1
              end
            end
          end
        done;
        match !next with
        | -1 ->
          (* v is finished. *)
          dfs := List.tl !dfs;
          (match !dfs with
          | parent :: _ -> lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
          | [] -> ());
          if lowlink.(v) = index.(v) then begin
            let c = !ncomps in
            incr ncomps;
            let rec pop () =
              match !stack with
              | [] -> ()
              | w :: rest ->
                stack := rest;
                on_stack.(w) <- false;
                comp_of.(w) <- c;
                if w <> v then pop ()
            in
            pop ()
          end
        | w ->
          index.(w) <- !counter;
          lowlink.(w) <- !counter;
          incr counter;
          stack := w :: !stack;
          on_stack.(w) <- true;
          cursor.(w) <- 0;
          dfs := w :: !dfs
      done
    end
  done;
  (comp_of, !ncomps)

(* Purdom-style closure: condense into SCCs, accumulate reach sets as bit
   rows in reverse topological order with word-parallel ORs, then expand
   component reach sets back onto their member rows. *)
let transitive_closure t =
  let n = size t in
  let words = t.words in
  let comp_of, ncomps = scc_condensation t in
  (* Per component: member mask, cyclicity, reach set (node-bit space).
     Masks and reach sets live in two flat backing arrays ([c * words ..])
     rather than one small array per component — the allocator, not the
     bit-twiddling, dominates on small universes. *)
  let members = Array.make (ncomps * words) 0 in
  let csize = Array.make ncomps 0 in
  let cyclic = Array.make ncomps false in
  for v = 0 to n - 1 do
    let c = comp_of.(v) in
    let k = (c * words) + (v / bpw) in
    members.(k) <- members.(k) lor (1 lsl (v mod bpw));
    csize.(c) <- csize.(c) + 1;
    if get_bit t.rows.(v) v then cyclic.(c) <- true
  done;
  for c = 0 to ncomps - 1 do
    if csize.(c) > 1 then cyclic.(c) <- true
  done;
  let comp_members = Array.make ncomps [] in
  for v = n - 1 downto 0 do
    comp_members.(comp_of.(v)) <- v :: comp_members.(comp_of.(v))
  done;
  let reach = Array.make (ncomps * words) 0 in
  (* stamp.(d) = c marks successor component d as already merged into c. *)
  let stamp = Array.make ncomps (-1) in
  (* Ascending component number is reverse topological order: successors of
     a component always carry smaller numbers and are thus already done. *)
  for c = 0 to ncomps - 1 do
    let cb = c * words in
    List.iter
      (fun v ->
        iter_row_bits
          (fun w ->
            let d = comp_of.(w) in
            if d <> c && stamp.(d) <> c then begin
              stamp.(d) <- c;
              let db = d * words in
              for k = 0 to words - 1 do
                reach.(cb + k) <-
                  reach.(cb + k) lor members.(db + k) lor reach.(db + k)
              done
            end)
          t.rows.(v))
      comp_members.(c);
    if cyclic.(c) then
      for k = 0 to words - 1 do
        reach.(cb + k) <- reach.(cb + k) lor members.(cb + k)
      done
  done;
  let rows = Array.init n (fun v -> Array.sub reach (comp_of.(v) * words) words) in
  { t with rows }

(* ------------------------------------------------------------------ *)
(* Cycle detection and topological sort                                *)
(* ------------------------------------------------------------------ *)

let find_cycle t =
  let n = size t in
  let colour = Array.make n 0 (* 0 white, 1 grey, 2 black *) in
  let parent = Array.make n (-1) in
  let cursor = Array.make n 0 in
  let result = ref None in
  let root = ref 0 in
  while !result = None && !root < n do
    if colour.(!root) = 0 then begin
      let dfs = ref [ !root ] in
      colour.(!root) <- 1;
      cursor.(!root) <- 0;
      while !result = None && !dfs <> [] do
        let v = List.hd !dfs in
        let row = t.rows.(v) in
        let next = ref (-1) in
        let j = ref cursor.(v) in
        while !result = None && !next < 0 && !j < n do
          let w = !j / bpw in
          let bits = row.(w) lsr (!j mod bpw) in
          if bits = 0 then j := (w + 1) * bpw
          else begin
            let cand = !j + ntz bits in
            if cand >= n then j := n
            else begin
              cursor.(v) <- cand + 1;
              match colour.(cand) with
              | 0 -> next := cand
              | 1 ->
                (* Back edge v -> cand: reconstruct cand -> ... -> v. *)
                let rec walk acc u =
                  if u = cand then u :: acc else walk (u :: acc) parent.(u)
                in
                result := Some (List.map (fun i -> t.ids.(i)) (walk [] v))
              | _ -> j := cand + 1
            end
          end
        done;
        if !result = None then
          match !next with
          | -1 ->
            colour.(v) <- 2;
            dfs := List.tl !dfs
          | w ->
            parent.(w) <- v;
            colour.(w) <- 1;
            cursor.(w) <- 0;
            dfs := w :: !dfs
      done
    end;
    incr root
  done;
  !result

let is_acyclic t = find_cycle t = None

(* Kahn's algorithm with a frontier bitset; the minimum compact index is
   extracted first, and compaction preserves identifier order, so ties
   break by ascending external identifier exactly like [Rel.topo_sort]. *)
let topo_sort t =
  let n = size t in
  let words = t.words in
  let indeg = Array.make n 0 in
  Array.iter
    (fun row -> iter_row_bits (fun j -> indeg.(j) <- indeg.(j) + 1) row)
    t.rows;
  let frontier = Array.make words 0 in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then set_bit frontier v
  done;
  let acc = ref [] in
  let count = ref 0 in
  let rec min_bit w =
    if w >= words then -1
    else if frontier.(w) <> 0 then (w * bpw) + ntz frontier.(w)
    else min_bit (w + 1)
  in
  let rec go () =
    let v = min_bit 0 in
    if v >= 0 && v < n then begin
      frontier.(v / bpw) <- frontier.(v / bpw) land lnot (1 lsl (v mod bpw));
      acc := t.ids.(v) :: !acc;
      incr count;
      iter_row_bits
        (fun w ->
          indeg.(w) <- indeg.(w) - 1;
          if indeg.(w) = 0 then set_bit frontier w)
        t.rows.(v);
      go ()
    end
  in
  go ();
  if !count = n then Some (List.rev !acc) else None

let quotient ~universe cls t =
  let q = create universe in
  iter
    (fun a b ->
      let a' = cls a and b' = cls b in
      if a' <> b' then add q a' b')
    t;
  q
