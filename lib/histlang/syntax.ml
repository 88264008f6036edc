open Repro_model

type error = { line : int; message : string }

exception Parse_error of error

let pp_error ppf e = Fmt.pf ppf "line %d: %s" e.line e.message

let fail line fmt = Fmt.kstr (fun message -> raise (Parse_error { line; message })) fmt

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type token =
  | Name of string
  | Punct of char (* @ ( ) , / : < = ; *)
  | Bang

type ltoken = { tok : token; line : int }

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '\'' || c = '-'

(* The lexer is a cursor the parser pulls tokens from, with one token of
   lookahead, so no token list is ever built or reversed. *)
type pstate = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable ahead : ltoken option; (* scanned, not yet consumed *)
}

let lexer ?(line0 = 1) src = { src; pos = 0; line = line0; ahead = None }

let rec scan st =
  let src = st.src and n = String.length st.src in
  if st.pos >= n then None
  else
    let c = String.unsafe_get src st.pos in
    if c = '\n' then begin
      st.line <- st.line + 1;
      st.pos <- st.pos + 1;
      scan st
    end
    else if c = ' ' || c = '\t' || c = '\r' then begin
      st.pos <- st.pos + 1;
      scan st
    end
    else if c = '#' then begin
      while st.pos < n && String.unsafe_get src st.pos <> '\n' do
        st.pos <- st.pos + 1
      done;
      scan st
    end
    else if is_name_char c then begin
      let start = st.pos in
      let i = ref (start + 1) in
      while !i < n && is_name_char (String.unsafe_get src !i) do
        incr i
      done;
      st.pos <- !i;
      Some { tok = Name (String.sub src start (!i - start)); line = st.line }
    end
    else begin
      st.pos <- st.pos + 1;
      match c with
      | '!' -> Some { tok = Bang; line = st.line }
      | '@' | '(' | ')' | ',' | '/' | ':' | '<' | '=' | ';' ->
        Some { tok = Punct c; line = st.line }
      | _ -> fail st.line "unexpected character %C" c
    end

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

(* AST: items in source order.  Node identifiers are assigned by
   declaration order, which lets explicit conflict pairs be resolved after
   the scan. *)
type ast_spec =
  | Simple of Conflict.spec
  | Explicit_names of (string * string) list * int (* line *)

type item =
  | I_schedule of string * ast_spec
  | I_root of string * string * Label.t * int
  | I_tx of string * string * string * Label.t * int
  | I_leaf of string * string * Label.t * int
  | I_order of bool * string * string * int (* strong, a, b, line *)
  | I_intra of bool * string * string * int
  | I_input of bool * string * string * int
  | I_log of string * string list * int

let peek st =
  match st.ahead with
  | Some _ as t -> t
  | None ->
    let t = scan st in
    st.ahead <- t;
    t

let next st =
  match peek st with
  | None -> fail 0 "unexpected end of input"
  | Some t ->
    st.ahead <- None;
    t

let expect_name st what =
  let t = next st in
  match t.tok with
  | Name s -> (s, t.line)
  | _ -> fail t.line "expected %s" what

let expect_punct st c =
  let t = next st in
  match t.tok with
  | Punct c' when c = c' -> ()
  | Name n -> fail t.line "expected %C, found %S" c n
  | _ -> fail t.line "expected %C" c

(* label := NAME [ "(" args ")" ] *)
let parse_label st =
  let name, l = expect_name st "a label" in
  match peek st with
  | Some { tok = Punct '('; _ } ->
    ignore (next st);
    let rec args acc =
      let t = next st in
      match t.tok with
      | Punct ')' -> List.rev acc
      | Name a -> (
        let t2 = next st in
        match t2.tok with
        | Punct ',' -> args (a :: acc)
        | Punct ')' -> List.rev (a :: acc)
        | _ -> fail t2.line "expected ',' or ')' in label arguments")
      | _ -> fail t.line "expected argument or ')'"
    in
    (Label.v ~args:(args []) name, l)
  | _ -> (Label.v name, l)

let parse_name_pairs st =
  expect_punct st '(';
  let rec go acc =
    let t = next st in
    match t.tok with
    | Punct ')' -> List.rev acc
    | Name a ->
      expect_punct st '/';
      let b, _ = expect_name st "a pair member" in
      (match peek st with
      | Some { tok = Punct ','; _ } -> ignore (next st)
      | _ -> ());
      go ((a, b) :: acc)
    | _ -> fail t.line "expected name pair or ')'"
  in
  go []

let parse_cond line = function
  | "always" -> Adt.Always
  | "item" -> Adt.Item
  | "args" -> Adt.Args
  | "range" -> Adt.Range
  | s -> fail line "unknown commutativity condition %S (expected always, item, args or range)" s

(* adt decl := "(" [class ("," class)*] [";" [rule ("," rule)*]] ")"
   class    := NAME "=" NAME ("/" NAME)*
   rule     := NAME "/" NAME "=" cond *)
let parse_adt_decl st =
  expect_punct st '(';
  let rec ops acc =
    let o, _ = expect_name st "an operation name" in
    match peek st with
    | Some { tok = Punct '/'; _ } ->
      ignore (next st);
      ops (o :: acc)
    | _ -> List.rev (o :: acc)
  in
  let rec classes acc =
    match peek st with
    | Some { tok = Punct ')'; _ } ->
      ignore (next st);
      (List.rev acc, false)
    | Some { tok = Punct ';'; _ } ->
      ignore (next st);
      (List.rev acc, true)
    | _ ->
      let cls, _ = expect_name st "a class name" in
      expect_punct st '=';
      let members = ops [] in
      let acc = (cls, members) :: acc in
      let t = next st in
      (match t.tok with
      | Punct ',' -> classes acc
      | Punct ';' -> (List.rev acc, true)
      | Punct ')' -> (List.rev acc, false)
      | _ -> fail t.line "expected ',', ';' or ')' in adt classes")
  in
  let classes, have_rules = classes [] in
  let rec rules acc =
    match peek st with
    | Some { tok = Punct ')'; _ } ->
      ignore (next st);
      List.rev acc
    | _ ->
      let x, _ = expect_name st "a class name" in
      expect_punct st '/';
      let y, _ = expect_name st "a class name" in
      expect_punct st '=';
      let c, lc = expect_name st "a commutativity condition" in
      let acc = (x, y, parse_cond lc c) :: acc in
      (match peek st with
      | Some { tok = Punct ','; _ } -> ignore (next st)
      | _ -> ());
      rules acc
  in
  let rules = if have_rules then rules [] else [] in
  { Adt.classes; rules }

let parse_spec st line =
  let s, l = expect_name st "a conflict specification" in
  match s with
  | "rw" -> Simple Conflict.Rw
  | "never" -> Simple Conflict.Never
  | "always" -> Simple Conflict.Always
  | "same-item" -> Simple Conflict.Same_item
  | "table" -> Simple (Conflict.Table (parse_name_pairs st))
  | "explicit" -> Explicit_names (parse_name_pairs st, line)
  | "counter" -> Simple (Conflict.Adt Adt.Counter)
  | "queue" -> Simple (Conflict.Adt Adt.Queue)
  | "set" -> Simple (Conflict.Adt Adt.Set)
  | "escrow" -> Simple (Conflict.Adt Adt.Escrow)
  | "adt" -> Simple (Conflict.Adt (Adt.Custom (parse_adt_decl st)))
  | _ -> fail (max line l) "unknown conflict specification %S" s

let parse_bang st =
  match peek st with
  | Some { tok = Bang; _ } ->
    ignore (next st);
    true
  | _ -> false

let parse_rel_pair st =
  expect_punct st ':';
  let a, _ = expect_name st "a node" in
  expect_punct st '<';
  let b, _ = expect_name st "a node" in
  (a, b)

let keywords = [ "schedule"; "root"; "tx"; "leaf"; "order"; "intra"; "input"; "log" ]

let rec parse_items st acc =
  match peek st with
  | None -> List.rev acc
  | Some { tok; line } ->
    let item =
      match tok with
      | Name "schedule" ->
        ignore (next st);
        let name, l = expect_name st "a schedule name" in
        let kw, lk = expect_name st "'conflict'" in
        if kw <> "conflict" then fail lk "expected 'conflict'";
        I_schedule (name, parse_spec st l)
      | Name "root" ->
        ignore (next st);
        let name, _ = expect_name st "a node name" in
        expect_punct st '@';
        let sname, _ = expect_name st "a schedule name" in
        let lbl, l = parse_label st in
        I_root (name, sname, lbl, l)
      | Name "tx" ->
        ignore (next st);
        let name, _ = expect_name st "a node name" in
        expect_punct st '@';
        let sname, _ = expect_name st "a schedule name" in
        let kw, lk = expect_name st "'parent'" in
        if kw <> "parent" then fail lk "expected 'parent'";
        let pname, _ = expect_name st "a parent node" in
        let lbl, l = parse_label st in
        I_tx (name, sname, pname, lbl, l)
      | Name "leaf" ->
        ignore (next st);
        let name, _ = expect_name st "a node name" in
        let kw, lk = expect_name st "'parent'" in
        if kw <> "parent" then fail lk "expected 'parent'";
        let pname, _ = expect_name st "a parent node" in
        let lbl, l = parse_label st in
        I_leaf (name, pname, lbl, l)
      | Name "order" ->
        ignore (next st);
        let strong = parse_bang st in
        let _sname, l = expect_name st "a schedule name" in
        let a, b = parse_rel_pair st in
        I_order (strong, a, b, l)
      | Name "intra" ->
        ignore (next st);
        let strong = parse_bang st in
        let a, b = parse_rel_pair st in
        I_intra (strong, a, b, line)
      | Name "input" ->
        ignore (next st);
        let strong = parse_bang st in
        let a, b = parse_rel_pair st in
        I_input (strong, a, b, line)
      | Name "log" ->
        ignore (next st);
        let sname, l = expect_name st "a schedule name" in
        expect_punct st ':';
        let rec ops acc =
          match peek st with
          | Some { tok = Name n; _ } when not (List.mem n keywords) ->
            ignore (next st);
            ops (n :: acc)
          | _ -> List.rev acc
        in
        I_log (sname, ops [], l)
      | Bang -> fail line "unexpected '!'"
      | Name other -> fail line "unknown item %S" other
      | Punct c -> fail line "unexpected %C" c
    in
    parse_items st (item :: acc)

(* ------------------------------------------------------------------ *)
(* Stream state                                                        *)
(* ------------------------------------------------------------------ *)

module Names = Map.Make (String)

(* What a stream has committed so far: its sealed history and the names
   in scope.  Persistent, so a chunk that fails leaves the state it was
   fed to untouched.  A chunk's own declarations resolve through a local
   table that is folded into [node_ids] only when the next chunk needs
   it, so a one-chunk parse never builds the persistent map. *)
type stream = {
  hist : History.t;
  node_ids : int Names.t Lazy.t;
  sched_ids : int Names.t;
  line : int; (* line the next chunk starts on, so errors cite stream lines *)
}

(* Resolve one chunk's items against the names in scope into a history
   delta.  Node identifiers continue the stream's numbering in
   declaration order and are assigned up front, so explicit conflict
   specifications can reference nodes declared later in the chunk. *)
let resolve st items =
  let scope = Lazy.force st.node_ids in
  let local = Hashtbl.create 64 in
  let next = ref (History.n_nodes st.hist) in
  List.iter
    (fun item ->
      match item with
      | I_root (name, _, _, line) | I_tx (name, _, _, _, line) | I_leaf (name, _, _, line) ->
        if Hashtbl.mem local name || Names.mem name scope then
          fail line "duplicate node %S" name;
        Hashtbl.replace local name !next;
        incr next
      | I_schedule _ | I_order _ | I_intra _ | I_input _ | I_log _ -> ())
    items;
  let node line name =
    match Hashtbl.find_opt local name with
    | Some id -> id
    | None -> (
      match Names.find_opt name scope with
      | Some id -> id
      | None -> fail line "unknown node %S" name)
  in
  let sched_ids = ref st.sched_ids and next_sched = ref (History.n_schedules st.hist) in
  let sched line name =
    match Names.find_opt name !sched_ids with
    | Some id -> id
    | None -> fail line "unknown schedule %S" name
  in
  let pair line a b' = (node line a, node line b') in
  let delta =
    List.map
      (fun item ->
        match item with
        | I_schedule (name, spec) ->
          let conflict =
            match spec with
            | Simple c -> c
            | Explicit_names (pairs, line) ->
              Conflict.Explicit (List.map (fun (a, b) -> pair line a b) pairs)
          in
          sched_ids := Names.add name !next_sched !sched_ids;
          incr next_sched;
          History.Schedule { name; conflict }
        | I_root (_, sname, label, line) -> History.Root { sched = sched line sname; label }
        | I_tx (_, sname, pname, label, line) ->
          History.Tx { parent = node line pname; sched = sched line sname; label }
        | I_leaf (_, pname, label, line) -> History.Leaf { parent = node line pname; label }
        | I_order (strong, a, b, line) ->
          let a, b = pair line a b in
          if strong then History.Strong_out (a, b) else History.Weak_out (a, b)
        | I_intra (strong, a, b, line) ->
          let a, b = pair line a b in
          if strong then History.Intra_strong (a, b) else History.Intra_weak (a, b)
        | I_input (strong, a, b, line) ->
          let a, b = pair line a b in
          if strong then History.Input_strong (a, b) else History.Input_weak (a, b)
        | I_log (sname, ops, line) -> History.Log (sched line sname, List.map (node line) ops))
      items
  in
  (delta, lazy (Hashtbl.fold Names.add local scope), !sched_ids)

module Stream = struct
  type t = stream

  let empty () =
    {
      hist = History.empty ();
      node_ids = Lazy.from_val Names.empty;
      sched_ids = Names.empty;
      line = 1;
    }

  let history st = st.hist

  let feed st chunk =
    let lx = lexer ~line0:st.line chunk in
    let delta, node_ids, sched_ids = resolve st (parse_items lx []) in
    { hist = History.append st.hist delta; node_ids; sched_ids; line = lx.line }
end

let parse src = Stream.history (Stream.feed (Stream.empty ()) src)

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  parse src

(* A bare conflict specification, for command lines ([compgen --conflict]).
   [explicit] is rejected: its pairs reference node names, which do not
   exist outside a history description. *)
let spec_of_string src =
  let st = lexer src in
  let spec =
    match parse_spec st 1 with
    | Simple c -> c
    | Explicit_names (_, line) ->
      fail line "explicit specifications reference nodes of a history and cannot stand alone"
  in
  (match peek st with
  | None -> ()
  | Some { line; _ } -> fail line "trailing input after conflict specification");
  spec

(* ------------------------------------------------------------------ *)
(* Printer                                                             *)
(* ------------------------------------------------------------------ *)

let is_name s = s <> "" && String.for_all is_name_char s

let node_name id = Fmt.str "n%d" id

let pp_spec ppf = function
  | Conflict.Rw -> Fmt.string ppf "rw"
  | Conflict.Never -> Fmt.string ppf "never"
  | Conflict.Always -> Fmt.string ppf "always"
  | Conflict.Same_item -> Fmt.string ppf "same-item"
  | Conflict.Table pairs ->
    Fmt.pf ppf "table(%a)"
      Fmt.(list ~sep:(any ",") (pair ~sep:(any "/") string string))
      pairs
  | Conflict.Explicit pairs ->
    Fmt.pf ppf "explicit(%a)"
      Fmt.(
        list ~sep:(any ",")
          (pair ~sep:(any "/") (using node_name string) (using node_name string)))
      pairs
  | Conflict.Adt f -> Adt.pp ppf f

let spec_line (s : History.schedule) =
  Fmt.str "schedule %s conflict %a" s.History.sname pp_spec s.History.conflict

let node_line ~name h i =
  let n = History.node h i in
  let sname s = (History.schedule h s).History.sname in
  match (n.History.parent, n.History.sched) with
  | None, Some s -> Fmt.str "root %s @@ %s %a" (name i) (sname s) Label.pp n.History.label
  | Some p, Some s ->
    Fmt.str "tx %s @@ %s parent %s %a" (name i) (sname s) (name p) Label.pp
      n.History.label
  | Some p, None ->
    Fmt.str "leaf %s parent %s %a" (name i) (name p) Label.pp n.History.label
  | None, None -> assert false

let bang strong = if strong then "!" else ""

let intra_line ~name ~strong a b =
  Fmt.str "intra%s : %s < %s" (bang strong) (name a) (name b)

let input_line ~name ~strong a b =
  Fmt.str "input%s : %s < %s" (bang strong) (name a) (name b)

let order_line ~name ~strong sname a b =
  Fmt.str "order%s %s : %s < %s" (bang strong) sname (name a) (name b)

(* [explicit] specs reference nodes, which the parser wants declared
   first; they are printed in place anyway, for humans (see the
   interface). *)
let print ppf h =
  let line l = Fmt.pf ppf "%s@." l in
  let name = node_name in
  List.iter (fun s -> line (spec_line s)) (History.schedules h);
  for i = 0 to History.n_nodes h - 1 do
    line (node_line ~name h i)
  done;
  for i = 0 to History.n_nodes h - 1 do
    let n = History.node h i in
    Repro_order.Rel.iter
      (fun a b ->
        line
          (intra_line ~name ~strong:(Repro_order.Rel.mem a b n.History.intra_strong) a b))
      n.History.intra_weak
  done;
  List.iter
    (fun (s : History.schedule) ->
      Repro_order.Rel.iter
        (fun a b ->
          if History.is_root h a && History.is_root h b then
            line
              (input_line ~name ~strong:(Repro_order.Rel.mem a b s.History.strong_in) a b))
        s.History.weak_in;
      if s.History.log <> [] then
        Fmt.pf ppf "log %s : %a@." s.History.sname
          Fmt.(list ~sep:(any " ") (using node_name string))
          s.History.log;
      Repro_order.Rel.iter
        (fun a b ->
          line
            (order_line ~name ~strong:(Repro_order.Rel.mem a b s.History.strong_out)
               s.History.sname a b))
        s.History.weak_out)
    (History.schedules h)

let to_string h = Fmt.str "%a" print h
