(* Tests for the history description language: parsing, printing,
   round-tripping, and error reporting. *)
open Repro_model
open Repro_histlang

let example =
  {|
# the classic non-serializable flat interleaving
schedule S conflict rw
root T1 @ S T1
root T2 @ S T2
leaf r1x parent T1 r(x)
leaf r1y parent T1 r(y)
leaf w2x parent T2 w(x)
leaf w2y parent T2 w(y)
log S : r1x w2x w2y r1y
|}

let test_parse_basic () =
  let h = Syntax.parse example in
  Alcotest.(check int) "nodes" 6 (History.n_nodes h);
  Alcotest.(check int) "schedules" 1 (History.n_schedules h);
  Alcotest.(check bool) "valid" true (Validate.check h = []);
  Alcotest.(check bool) "not comp-c" false (Repro_core.Compc.is_correct h)

let test_parse_two_level () =
  let h =
    Syntax.parse
      {|
schedule Top conflict table(add/get)
schedule Bot conflict rw
root T1 @ Top T1
root T2 @ Top T2
tx a @ Bot parent T1 add(k)
tx c @ Bot parent T2 get(k)
leaf la parent a w(x)
leaf lc parent c r(x)
log Top : a c
log Bot : la lc
input : T1 < T2
|}
  in
  Alcotest.(check int) "order" 2 (History.order h);
  Alcotest.(check bool) "comp-c" true (Repro_core.Compc.is_correct h)

let test_parse_explicit_forward_reference () =
  (* Explicit conflict pairs may name nodes declared later. *)
  let h =
    Syntax.parse
      {|
schedule S conflict explicit(a/b)
root T1 @ S T1
root T2 @ S T2
leaf a parent T1 p
leaf b parent T2 q
log S : a b
|}
  in
  Alcotest.(check bool) "conflict recorded" true (History.conflicts h 0 2 3);
  Alcotest.(check bool) "valid" true (Validate.check h = [])

let test_parse_strong_markers () =
  let h =
    Syntax.parse
      {|
schedule S conflict rw
root T1 @ S T1
root T2 @ S T2
leaf a parent T1 w(x)
leaf b parent T2 w(x)
input! : T1 < T2
log S : a b
|}
  in
  let s = History.schedule h 0 in
  Alcotest.(check bool) "strong input" true (Repro_order.Rel.mem 0 1 s.History.strong_in);
  Alcotest.(check bool) "strong output expanded" true
    (Repro_order.Rel.mem 2 3 s.History.strong_out)

(* Avoid depending on astring: tiny substring check. *)
module Astring = struct
  module String = struct
    let is_infix ~affix s =
      let n = String.length affix and m = String.length s in
      let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
      n = 0 || go 0
  end
end

let check_parse_error src fragment =
  match Syntax.parse src with
  | exception Syntax.Parse_error e ->
    let msg = Fmt.str "%a" Syntax.pp_error e in
    Alcotest.(check bool)
      (Fmt.str "error mentions %S (got %S)" fragment msg)
      true
      (Astring.String.is_infix ~affix:fragment msg)
  | _ -> Alcotest.failf "expected a parse error for %S" src

let test_parse_errors () =
  check_parse_error "schedule" "unexpected end";
  check_parse_error "root T1 @ S T1" "unknown schedule";
  check_parse_error "schedule S conflict rw\nleaf a parent T b" "unknown node";
  check_parse_error "schedule S conflict bogus" "unknown conflict specification";
  check_parse_error "frobnicate" "unknown item";
  check_parse_error "schedule S conflict rw\nroot T @ S T\nroot T @ S T" "duplicate node"

let roundtrip h =
  let txt = Syntax.to_string h in
  let h' =
    try Syntax.parse txt
    with Syntax.Parse_error e ->
      Alcotest.failf "re-parse failed: %a@.%s" Syntax.pp_error e txt
  in
  Alcotest.(check int) "nodes" (History.n_nodes h) (History.n_nodes h');
  Alcotest.(check int) "schedules" (History.n_schedules h) (History.n_schedules h');
  List.iter
    (fun (s : History.schedule) ->
      let s' = History.schedule h' s.History.sid in
      Alcotest.(check bool)
        (Fmt.str "weak_out %s" s.History.sname)
        true
        (Repro_order.Rel.equal s.History.weak_out s'.History.weak_out);
      Alcotest.(check bool)
        (Fmt.str "strong_in %s" s.History.sname)
        true
        (Repro_order.Rel.equal s.History.strong_in s'.History.strong_in))
    (History.schedules h);
  Alcotest.(check bool) "same verdict" (Repro_core.Compc.is_correct h)
    (Repro_core.Compc.is_correct h')

let test_roundtrip_generated () =
  let open Repro_workload in
  for i = 0 to 20 do
    let rng = Prng.create ~seed:(600 + i) in
    roundtrip (Gen.general rng ~schedules:3 ~roots:3);
    roundtrip (Gen.stack rng ~levels:2 ~roots:2)
  done

let test_dot_export () =
  let h = Syntax.parse example in
  let rel = Repro_core.Observed.compute h in
  let forest = Dot.forest ~obs:rel.Repro_core.Observed.obs h in
  Alcotest.(check bool) "digraph" true (String.length forest > 0);
  (* one node statement per history node *)
  for i = 0 to History.n_nodes h - 1 do
    Alcotest.(check bool)
      (Fmt.str "node n%d present" i)
      true
      (Astring.String.is_infix ~affix:(Fmt.str "n%d [label=" i) forest)
  done;
  (* tree edges present *)
  Alcotest.(check bool) "tree edge" true (Astring.String.is_infix ~affix:"n0 -> n2;" forest);
  (* observed-order overlay present *)
  Alcotest.(check bool) "obs edge" true (Astring.String.is_infix ~affix:"style=dashed" forest);
  let ig = Dot.invocation_graph h in
  Alcotest.(check bool) "schedule node" true (Astring.String.is_infix ~affix:"level 1" ig)

let test_dot_escaping () =
  (* Labels with quotes and backslashes must not break the DOT syntax. *)
  let b = History.Builder.create () in
  let s = History.Builder.schedule b ~conflict:Conflict.Rw {|S"x\|} in
  let t = History.Builder.root b ~sched:s (Label.v {|T"1|}) in
  ignore (History.Builder.leaf b ~parent:t (Label.read {|a"b|}));
  let h = History.Builder.seal b in
  let forest = Dot.forest h in
  Alcotest.(check bool) "escaped quote" true
    (Astring.String.is_infix ~affix:{|\"|} forest)

(* ------------------------------------------------------------------ *)
(* Streamed chunks = whole-text parse                                  *)
(* ------------------------------------------------------------------ *)

module Rel = Repro_order.Rel
module Chunks = Repro_runtime.Server.Chunks
module Engine = Repro_core.Engine
module Prng = Repro_workload.Prng
module Gen = Repro_workload.Gen

(* Structural equality of two sealed histories: the forest, the levels,
   and every intra, input and output relation; logs only with [~logs]. *)
let same_history ?(logs = true) a b =
  let nodes_eq v =
    let x = History.node a v and y = History.node b v in
    Label.equal x.History.label y.History.label
    && x.History.parent = y.History.parent
    && x.History.children = y.History.children
    && x.History.sched = y.History.sched
    && Rel.equal x.History.intra_weak y.History.intra_weak
    && Rel.equal x.History.intra_strong y.History.intra_strong
  in
  let scheds_eq s =
    let x = History.schedule a s and y = History.schedule b s in
    x.History.sname = y.History.sname
    && History.level a s = History.level b s
    && Repro_order.Ids.Int_set.equal x.History.transactions y.History.transactions
    && Rel.equal x.History.weak_in y.History.weak_in
    && Rel.equal x.History.strong_in y.History.strong_in
    && Rel.equal x.History.weak_out y.History.weak_out
    && Rel.equal x.History.strong_out y.History.strong_out
    && ((not logs) || x.History.log = y.History.log)
  in
  History.n_nodes a = History.n_nodes b
  && History.n_schedules a = History.n_schedules b
  && List.for_all nodes_eq (List.init (History.n_nodes a) Fun.id)
  && List.for_all scheds_eq (List.init (History.n_schedules a) Fun.id)

(* The open-transaction stream shape of the end-to-end benchmark: every
   root opens with one subtransaction, then each append hangs one more
   under a drawn root, writing that root's item after its previous
   write.  Here roots may also share items ([items] < [roots]) and be
   input-ordered ([inputs]: pairs of adjacent roots, [true] = strong), so
   appended operations meet input orders their transaction already had;
   with [intra] > 0 each subtransaction reads its item before it writes
   it, weakly (1) or strongly (2) intra-ordered. *)
let open_prefix ~roots ~items ~inputs ~intra order k =
  let open History.Builder in
  let b = create () in
  let sp = schedule b ~conflict:Conflict.Same_item "SP" in
  let sa = schedule b ~conflict:Conflict.Rw "SA" in
  let rs = Array.init roots (fun j -> root b ~sched:sp (Label.v (Fmt.str "T%d" j))) in
  List.iter
    (fun (j, strong) ->
      if strong then input_strong b ~a:rs.(j) ~b:rs.(j + 1)
      else input_weak b ~a:rs.(j) ~b:rs.(j + 1))
    inputs;
  let last = Array.make roots (-1) in
  let add j =
    let item = Fmt.str "x%d" (j mod items) in
    let a = tx b ~parent:rs.(j) ~sched:sa (Label.v ~args:[ item ] "add") in
    let r = if intra > 0 then leaf b ~parent:a (Label.v ~args:[ item ] "r") else -1 in
    let w = leaf b ~parent:a (Label.v ~args:[ item ] "w") in
    if intra = 1 then intra_weak b ~a:r ~b:w;
    if intra = 2 then intra_strong b ~a:r ~b:w;
    if last.(j) >= 0 then weak_out b ~a:last.(j) ~b:w;
    last.(j) <- w
  in
  for j = 0 to roots - 1 do add j done;
  for i = 0 to k - 1 do add order.(i) done;
  seal b

(* A client's append text: [h]'s nodes from [from] on, and every
   relation line touching one of them. *)
let delta_text h ~from =
  let b = Buffer.create 256 in
  let add fmt = Printf.bprintf b fmt in
  let nn i = "n" ^ string_of_int i in
  let sname s = (History.schedule h s).History.sname in
  let label l = Fmt.str "%a" Label.pp l in
  let fresh x y = x >= from || y >= from in
  let bang strong x y = if Rel.mem x y strong then "!" else "" in
  if from = 0 then begin
    add "schedule SP conflict same-item\n";
    add "schedule SA conflict rw\n"
  end;
  for i = from to History.n_nodes h - 1 do
    let n = History.node h i in
    match (n.History.parent, n.History.sched) with
    | None, Some s -> add "root %s @ %s %s\n" (nn i) (sname s) (label n.History.label)
    | Some p, Some s ->
      add "tx %s @ %s parent %s %s\n" (nn i) (sname s) (nn p) (label n.History.label)
    | Some p, None -> add "leaf %s parent %s %s\n" (nn i) (nn p) (label n.History.label)
    | None, None -> assert false
  done;
  for i = 0 to History.n_nodes h - 1 do
    let n = History.node h i in
    Rel.iter
      (fun x y ->
        if fresh x y then
          add "intra%s : %s < %s\n" (bang n.History.intra_strong x y) (nn x) (nn y))
      n.History.intra_weak
  done;
  List.iter
    (fun (s : History.schedule) ->
      Rel.iter
        (fun x y ->
          if fresh x y && History.is_root h x && History.is_root h y then
            add "input%s : %s < %s\n" (bang s.History.strong_in x y) (nn x) (nn y))
        s.History.weak_in;
      Rel.iter
        (fun x y ->
          if fresh x y then
            add "order%s %s : %s < %s\n" (bang s.History.strong_out x y) s.History.sname
              (nn x) (nn y))
        s.History.weak_out)
    (History.schedules h);
  Buffer.contents b

(* The same stream as a client that sends only base facts — node
   declarations, root input orders and each write's order after the
   previous one — and leaves every derived pair to the parser. *)
let open_minimal_text ~roots ~items ~inputs ~intra order =
  let last = Array.make roots (-1) and next = ref roots in
  let add b j =
    let x = j mod items in
    let a = !next in
    Printf.bprintf b "tx n%d @ SA parent n%d add(x%d)\n" a j x;
    if intra > 0 then Printf.bprintf b "leaf n%d parent n%d r(x%d)\n" (a + 1) a x;
    let w = if intra > 0 then a + 2 else a + 1 in
    next := w + 1;
    Printf.bprintf b "leaf n%d parent n%d w(x%d)\n" w a x;
    if intra > 0 then
      Printf.bprintf b "intra%s : n%d < n%d\n" (if intra = 2 then "!" else "") (a + 1) w;
    if last.(j) >= 0 then Printf.bprintf b "order SA : n%d < n%d\n" last.(j) w;
    last.(j) <- w
  in
  let base = Buffer.create 256 in
  Buffer.add_string base "schedule SP conflict same-item\nschedule SA conflict rw\n";
  for j = 0 to roots - 1 do Printf.bprintf base "root n%d @ SP T%d\n" j j done;
  List.iter
    (fun (j, strong) ->
      Printf.bprintf base "input%s : n%d < n%d\n" (if strong then "!" else "") j (j + 1))
    inputs;
  for j = 0 to roots - 1 do add base j done;
  Buffer.contents base
  :: List.map
       (fun j ->
         let b = Buffer.create 64 in
         add b j;
         Buffer.contents b)
       (Array.to_list order)

(* One case: the pieces a client sends, each with the history its prefix
   must equal at that boundary (the root prefix for [Chunks], the
   builder prefix for the open shape). *)
let stream_case seed =
  let rng = Prng.create ~seed in
  if seed mod 2 = 0 then begin
    let h =
      match seed / 2 mod 4 with
      | 0 -> Gen.flat rng ~roots:(2 + Prng.int rng 4)
      | 1 ->
        Gen.stack ~stream:(Prng.bool rng) rng ~levels:(2 + Prng.int rng 2)
          ~roots:(2 + Prng.int rng 3)
      | 2 -> Gen.fork rng ~branches:2 ~roots:(2 + Prng.int rng 3)
      | _ -> Gen.general rng ~schedules:(2 + Prng.int rng 3) ~roots:(2 + Prng.int rng 3)
    in
    let { Chunks.preamble; chunks } = Chunks.of_history h in
    ( rng,
      List.mapi
        (fun k c ->
          ((if k = 0 then preamble ^ c else c), History.prefix_by_roots h (k + 1)))
        chunks )
  end
  else begin
    let roots = 2 + Prng.int rng 4 in
    let items = 1 + Prng.int rng roots in
    let inputs =
      List.filter_map
        (fun j -> if Prng.bool rng then Some (j, Prng.bool rng) else None)
        (List.init (roots - 1) Fun.id)
    in
    let intra = Prng.int rng 3 in
    let order =
      Array.concat
        (List.init 2 (fun _ -> Array.of_list (Prng.permutation rng (List.init roots Fun.id))))
    in
    let prefixes =
      List.init (Array.length order + 1) (open_prefix ~roots ~items ~inputs ~intra order)
    in
    let texts =
      if Prng.bool rng then open_minimal_text ~roots ~items ~inputs ~intra order
      else
        List.mapi
          (fun k p ->
            let from = if k = 0 then 0 else History.n_nodes (List.nth prefixes (k - 1)) in
            delta_text p ~from)
          prefixes
    in
    (rng, List.combine texts prefixes)
  end

let verdict_kind = function
  | Engine.Accepted _ -> "accept"
  | Engine.Rejected f -> Repro_core.Reduction.failure_kind f

let prop_stream_parity =
  QCheck.Test.make ~count:500 ~name:"streamed chunks = whole-text parse = prefix"
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000))
    (fun seed ->
      let rng, pieces = stream_case seed in
      (* Random chunk boundaries: consecutive pieces merge into one chunk
         with probability 1/2; a malformed chunk is fed before one drawn
         chunk. *)
      let groups =
        List.fold_left
          (fun acc (text, p) ->
            match acc with
            | (t, _) :: rest when Prng.bool rng -> (t ^ text, p) :: rest
            | _ -> (text, p) :: acc)
          [] pieces
        |> List.rev
      in
      let bad_at = Prng.int rng (List.length groups) in
      let bad =
        Prng.pick rng
          [
            "leaf ) x\n";
            "leaf zz parent nosuch w(q)\n";
            "leaf zz parent n0 w(q)\norder SA : n0 < n0\n";
            "leaf zz parent n0 w(q)\nintra : n1 < n0\n";
          ]
      in
      let eng = Engine.create () in
      let text = Buffer.create 1024 in
      let st = ref (Syntax.Stream.empty ()) in
      List.iteri
        (fun i (chunk, prefix) ->
          if i = bad_at then begin
            (match Syntax.Stream.feed !st bad with
            | _ -> QCheck.Test.fail_reportf "malformed chunk %S accepted" bad
            | exception
                (Syntax.Parse_error _ | Invalid_argument _ | History.Not_an_extension _)
              ->
              ());
            if not (same_history (Syntax.Stream.history !st) (Syntax.parse (Buffer.contents text)))
            then QCheck.Test.fail_report "a refused chunk changed the stream state"
          end;
          Buffer.add_string text chunk;
          st := Syntax.Stream.feed !st chunk;
          let streamed = Syntax.Stream.history !st in
          let whole = Syntax.parse (Buffer.contents text) in
          if not (same_history streamed whole) then
            QCheck.Test.fail_reportf
              "chunk %d: streamed history differs from the whole-text parse" i;
          if not (same_history ~logs:false streamed prefix) then
            QCheck.Test.fail_reportf "chunk %d: streamed history differs from its prefix" i;
          let v = verdict_kind (Engine.extend eng streamed) in
          let b = verdict_kind (Engine.analyze (Engine.create ()) whole) in
          if (v = "accept") <> (b = "accept") then
            QCheck.Test.fail_reportf "chunk %d: stream %s, batch %s" i v b)
        groups;
      true)

(* ------------------------------------------------------------------ *)
(* Printer and chunker bytes                                           *)
(* ------------------------------------------------------------------ *)

(* Both benchmark workloads build their inputs with [Syntax.to_string]
   and [Chunks.of_history], so their bytes are pinned against files
   under golden/.  A chunked stream is written as its preamble followed
   by one ["# chunk k"] comment line before each chunk, so the golden
   file itself parses to the whole history. *)
let golden_histories () =
  let adt = Syntax.spec_of_string "adt(upd=inc/dec,rd=get;upd/rd=item)" in
  [
    ("stack", Gen.stack ~stream:true (Prng.create ~seed:7) ~levels:3 ~roots:3);
    ("fork", Gen.fork (Prng.create ~seed:11) ~branches:2 ~roots:3);
    ("join", Gen.join ~stream:true (Prng.create ~seed:13) ~branches:2 ~roots:3);
    ("adt", Gen.stack ~stream:true ~conflict:adt (Prng.create ~seed:5) ~levels:2 ~roots:3);
  ]

let chunked_text h =
  let { Chunks.preamble; chunks } = Chunks.of_history h in
  String.concat ""
    (preamble :: List.mapi (fun k c -> Printf.sprintf "# chunk %d\n%s" (k + 1) c) chunks)

let read_golden name = In_channel.with_open_bin ("golden/" ^ name) In_channel.input_all

let test_golden_bytes () =
  List.iter
    (fun (name, h) ->
      Alcotest.(check string) ("print " ^ name)
        (read_golden ("print_" ^ name ^ ".ct"))
        (Syntax.to_string h);
      Alcotest.(check string) ("chunks " ^ name)
        (read_golden ("chunks_" ^ name ^ ".ct"))
        (chunked_text h))
    (golden_histories ())

let suite =
  [
    ( "histlang",
      [
        Alcotest.test_case "parse: flat example" `Quick test_parse_basic;
        Alcotest.test_case "parse: two-level" `Quick test_parse_two_level;
        Alcotest.test_case "parse: explicit forward refs" `Quick
          test_parse_explicit_forward_reference;
        Alcotest.test_case "parse: strong markers" `Quick test_parse_strong_markers;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "round trip generated histories" `Quick test_roundtrip_generated;
        Alcotest.test_case "dot export" `Quick test_dot_export;
        Alcotest.test_case "dot escaping" `Quick test_dot_escaping;
        QCheck_alcotest.to_alcotest prop_stream_parity;
        Alcotest.test_case "printer and chunker golden bytes" `Quick test_golden_bytes;
      ] );
  ]
