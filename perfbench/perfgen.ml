(* perfgen: the OCaml half of the end-to-end certification benchmark
   (perfbench/run.py is the other half).

     perfgen gen WORKLOAD SEED COUNT DIR
       Generate COUNT streams (serve-* workloads) or COUNT history files
       (batch) from SEED, with the reference verdict of every append or
       file, and write them to DIR/inputs.json (plus DIR/corpus/*.ct).
     perfgen replay WORKLOAD SEED COUNT
       Regenerate the same inputs, time calls into each layer's public
       functions on them, and print the per-layer metrics as one JSON
       object.
     perfgen figures
       Print the reference verdicts of the paper's Figures 3 and 4.

   The programs under test never link this code: they only see the bytes
   [gen] writes.  Verdicts come from the specialised criteria, not from
   the engine, so a wrong engine verdict shows as a mismatch. *)

open Repro_model
module Rel = Repro_order.Rel
module Gen = Repro_workload.Gen
module Prng = Repro_workload.Prng
module Figures = Repro_workload.Figures
module Clone = Repro_workload.Clone
module Special = Repro_criteria.Special
module Syntax = Repro_histlang.Syntax
module Chunks = Repro_runtime.Server.Chunks
module Engine = Repro_core.Engine
module Observed = Repro_core.Observed
module Reduction = Repro_core.Reduction
module Json = Repro_obs.Json
module Clock = Repro_obs.Clock

(* ---- workload shapes ---- *)

(* serve-open-window: E17's open-transaction shape, 96 roots x 4
   rounds = 385 appends per stream. *)
let open_roots = 96

let open_rounds = 4

let batch_roots = 24

(* The truncation window of serve-open-window, as in E18. *)
let window_of = function
  | "serve-open-window" -> Some 36
  | _ -> None

(* Theorems 2-4: SCC, FCC and JCC coincide with Comp-C on stacks, forks
   and joins, which is every shape this benchmark generates. *)
let reference h =
  match Special.check_matching h with
  | Some (_, ok) -> ok
  | None -> invalid_arg "perfgen: the reference needs a stack, fork or join"

(* One stream: the append bodies in send order, the prefix each append
   completes, and its reference verdict.  Cut after the first reject,
   where a client stops (as [compserve --connect] does). *)
type stream = { bodies : string list; prefixes : History.t list; expect : bool list }

let cut bodies prefixes =
  let rec go acc = function
    | b :: bs, p :: ps ->
      let ok = reference p in
      let acc = (b, p, ok) :: acc in
      if ok then go acc (bs, ps) else acc
    | _ -> acc
  in
  let rows = List.rev (go [] (bodies, prefixes)) in
  {
    bodies = List.map (fun (b, _, _) -> b) rows;
    prefixes = List.map (fun (_, p, _) -> p) rows;
    expect = List.map (fun (_, _, ok) -> ok) rows;
  }

(* One root per append, in exactly the bytes [compserve --connect] sends
   for [h]: the batch replay extends an engine through these prefixes. *)
let roots_stream h =
  let { Chunks.preamble; chunks } = Chunks.of_history h in
  let bodies = List.mapi (fun i c -> if i = 0 then preamble ^ c else c) chunks in
  cut bodies (List.mapi (fun k _ -> History.prefix_by_roots h (k + 1)) chunks)

(* serve-open-window: the E17 shape.  The base prefix declares every
   root with one subtransaction; append i hangs one more subtransaction
   under root [order.(i)], writing that root's own item.  The seed draws
   the order of roots within each round.  E17 derives the output orders
   from logs; chaining each item's writes explicitly gives the same
   sealed relations (they match on every prefix of a stream) for a tenth
   of the sealing cost. *)
let open_prefix order k =
  let open History.Builder in
  let b = create () in
  let sp = schedule b ~conflict:Conflict.Same_item "SP" in
  let sa = schedule b ~conflict:Conflict.Rw "SA" in
  let rs =
    Array.init open_roots (fun j -> root b ~sched:sp (Label.v (Fmt.str "T%d" j)))
  in
  let last = Array.make open_roots (-1) in
  let add j =
    let item = Fmt.str "x%d" j in
    let a = tx b ~parent:rs.(j) ~sched:sa (Label.v ~args:[ item ] "add") in
    let w = leaf b ~parent:a (Label.v ~args:[ item ] "w") in
    if last.(j) >= 0 then weak_out b ~a:last.(j) ~b:w;
    last.(j) <- w
  in
  for j = 0 to open_roots - 1 do add j done;
  for i = 0 to k - 1 do add order.(i) done;
  seal b

let spec_text = function
  | Conflict.Rw -> "rw"
  | Conflict.Same_item -> "same-item"
  | _ -> invalid_arg "perfgen: unexpected conflict spec"

(* The text of [h]'s nodes from id [from] on, plus every relation line
   touching one of them: what a client appending to an open transaction
   sends.  Declarations follow id order, so the parser assigns the same
   ids as the builder did. *)
let delta_text h ~from =
  let b = Buffer.create 256 in
  let add fmt = Printf.bprintf b fmt in
  let nn i = "n" ^ string_of_int i in
  let sname s = (History.schedule h s).History.sname in
  let label l = Fmt.str "%a" Label.pp l in
  let fresh x y = x >= from || y >= from in
  if from = 0 then
    List.iter
      (fun (s : History.schedule) ->
        add "schedule %s conflict %s\n" s.History.sname (spec_text s.History.conflict))
      (History.schedules h);
  for i = from to History.n_nodes h - 1 do
    let n = History.node h i in
    match (n.History.parent, n.History.sched) with
    | None, Some s -> add "root %s @ %s %s\n" (nn i) (sname s) (label n.History.label)
    | Some p, Some s ->
      add "tx %s @ %s parent %s %s\n" (nn i) (sname s) (nn p) (label n.History.label)
    | Some p, None -> add "leaf %s parent %s %s\n" (nn i) (nn p) (label n.History.label)
    | None, None -> assert false
  done;
  let bang strong x y = if Rel.mem x y strong then "!" else "" in
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
            add "order%s %s : %s < %s\n"
              (bang s.History.strong_out x y)
              s.History.sname (nn x) (nn y))
        s.History.weak_out)
    (History.schedules h);
  Buffer.contents b

let open_order rng =
  Array.concat
    (List.init open_rounds (fun _ ->
         Array.of_list (Prng.permutation rng (List.init open_roots Fun.id))))

let open_stream order =
  let prefixes = List.init (Array.length order + 1) (open_prefix order) in
  let bodies =
    List.mapi
      (fun k p ->
        let from = if k = 0 then 0 else History.n_nodes (List.nth prefixes (k - 1)) in
        delta_text p ~from)
      prefixes
  in
  cut bodies prefixes

(* batch: forks, joins and stacks (3 levels) in turn; odd files draw
   stream-shaped logs (mostly accepted), even files random logs (mostly
   rejected).  A fork comes first: the first file sets the time to the
   first answer, and a fork is the cheapest and least variable shape. *)
let batch_history rng i =
  let stream = i mod 2 = 1 in
  match i / 2 mod 3 with
  | 0 -> Gen.fork ~stream rng ~branches:2 ~roots:batch_roots
  | 1 -> Gen.join ~stream rng ~branches:2 ~roots:batch_roots
  | _ -> Gen.stack ~stream rng ~levels:3 ~roots:batch_roots

(* [List.map f xs] with the odd-indexed elements on a second domain.  The
   elements must not share mutable state: each history's conflict memo is
   single-domain. *)
let par_map f xs =
  let odd = List.filteri (fun i _ -> i mod 2 = 1) xs in
  let d = Domain.spawn (fun () -> List.map f odd) in
  let even = List.map f (List.filteri (fun i _ -> i mod 2 = 0) xs) in
  let rec merge = function
    | e :: es, o :: os -> e :: o :: merge (es, os)
    | es, [] -> es
    | [], os -> os
  in
  merge (even, Domain.join d)

(* The seed's draws happen in order on one domain; the costly prefix
   and reference work runs on two. *)
let streams workload rng count =
  match workload with
  | "serve-open-window" -> par_map open_stream (List.init count (fun _ -> open_order rng))
  | w -> invalid_arg ("perfgen: no stream workload " ^ w)

(* ---- gen ---- *)

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let gen workload seed count dir =
  let rng = Prng.create ~seed in
  let body =
    if workload = "batch" then begin
      let corpus = Filename.concat dir "corpus" in
      if not (Sys.file_exists corpus) then Sys.mkdir corpus 0o755;
      List.init count (fun i -> (i, batch_history rng i))
      |> par_map (fun (i, h) ->
             let rel = Fmt.str "corpus/h%03d.ct" i in
             write_file (Filename.concat dir rel) (Syntax.to_string h);
             Json.Obj
               [
                 ("path", Json.String rel);
                 ("expect", Json.Bool (reference h));
                 ("nodes", Json.Int (History.n_nodes h));
               ])
      |> fun files -> ("files", Json.List files)
    end
    else
      ( "streams",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("appends", Json.List (List.map (fun b -> Json.String b) s.bodies));
                   ("expect", Json.List (List.map (fun v -> Json.Bool v) s.expect));
                   ( "nodes",
                     Json.Int (History.n_nodes (List.nth s.prefixes (List.length s.prefixes - 1)))
                   );
                 ])
             (streams workload rng count)) )
  in
  let doc =
    Json.Obj
      [
        ("workload", Json.String workload);
        ("seed", Json.Int seed);
        ("window", match window_of workload with Some w -> Json.Int w | None -> Json.Null);
        body;
      ]
  in
  let oc = open_out_bin (Filename.concat dir "inputs.json") in
  Json.to_channel oc doc;
  close_out oc

(* ---- replay ---- *)

let quantile xs q =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (Array.length a - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Wall seconds and allocated words of one call. *)
let measure f =
  let w0 = allocated_words () in
  let t0 = Clock.now_wall () in
  let r = f () in
  let dt = Clock.now_wall () -. t0 in
  (r, dt, allocated_words () -. w0)

(* Every [stride]-th element, so the whole-history layers replay about
   [target] histories whatever the workload's size. *)
let sample ~target xs =
  let stride = max 1 (List.length xs / target) in
  List.filteri (fun i _ -> i mod stride = 0) xs

let replay workload seed count =
  let rng = Prng.create ~seed in
  (* texts: what the program parses (the accumulated stream text at each
     append, or each file); chains: the prebuilt prefixes an engine
     session extends through. *)
  let texts, chains =
    if workload = "batch" then
      let hs = List.init count (batch_history rng) in
      (List.map Syntax.to_string hs, List.map (fun h -> (roots_stream h).prefixes) hs)
    else
      let ss = streams workload rng count in
      ( List.concat_map
          (fun s ->
            let acc = Buffer.create 4096 in
            List.map
              (fun body ->
                Buffer.add_string acc body;
                Buffer.contents acc)
              s.bodies)
          ss,
        List.map (fun s -> s.prefixes) ss )
  in
  let parse_s = ref 0.0 and parse_words = ref 0.0 and parse_bytes = ref 0 in
  let parsed =
    List.map
      (fun t ->
        let h, dt, w = measure (fun () -> Syntax.parse t) in
        parse_s := !parse_s +. dt;
        parse_words := !parse_words +. w;
        parse_bytes := !parse_bytes + String.length t;
        h)
      texts
  in
  let whole = sample ~target:48 parsed in
  let ms f xs = List.map (fun h -> let _, dt, _ = measure (fun () -> f h) in dt *. 1e3) xs in
  (* [Clone.copy] replays the parsed history into a fresh builder and
     seals it: the building half of what [Syntax.parse] does after it has
     read the text. *)
  let seal_ms = ms Clone.copy whole in
  let validate_ms = ms Validate.check whole in
  let observed_ms = ms Observed.compute whole in
  let reduce_ms =
    List.map
      (fun h ->
        let rel = Observed.compute h in
        let _, dt, _ = measure (fun () -> Reduction.reduce ~rel h) in
        dt *. 1e3)
      whole
  in
  let analyze_ms = ms (fun h -> Engine.analyze (Engine.create ()) h) whole in
  let ext_us = ref [] and ext_words = ref [] in
  let truncations = ref 0 and restores = ref 0 and resident = ref 0 in
  List.iter
    (fun chain ->
      let eng = Engine.create ?window:(window_of workload) () in
      List.iter
        (fun p ->
          let _, dt, w = measure (fun () -> Engine.extend eng p) in
          ext_us := (dt *. 1e6) :: !ext_us;
          ext_words := w :: !ext_words;
          resident := max !resident (Engine.resident_estimate_words eng))
        chain;
      truncations := !truncations + Engine.truncations eng;
      restores := !restores + Engine.restores eng)
    chains;
  let f name v = (name, Json.Float v) in
  Json.Obj
    [
      f "histlang.parse_mb_per_s" (float_of_int !parse_bytes /. !parse_s /. 1e6);
      f "histlang.parse_words_per_byte" (!parse_words /. float_of_int !parse_bytes);
      f "history.seal_ms.p50" (quantile seal_ms 0.5);
      f "validate.check_ms.p50" (quantile validate_ms 0.5);
      f "observed.compute_ms.p50" (quantile observed_ms 0.5);
      f "reduction.reduce_ms.p50" (quantile reduce_ms 0.5);
      f "engine.analyze_ms.p50" (quantile analyze_ms 0.5);
      f "engine.analyze_ms.p90" (quantile analyze_ms 0.9);
      f "engine.extend_us.p50" (quantile !ext_us 0.5);
      f "engine.extend_us.p90" (quantile !ext_us 0.9);
      f "engine.extend_words.p50" (quantile !ext_words 0.5);
      ("engine.truncations", Json.Int !truncations);
      ("engine.restores", Json.Int !restores);
      f "engine.restores_per_truncation"
        (if !truncations = 0 then 0.0
         else float_of_int !restores /. float_of_int !truncations);
      ("engine.resident_words.max", Json.Int !resident);
    ]

(* The reference on the paper's figures: Figure 4 (a fork, accepted),
   its conflicting-top variant (rejected), the input-order chain (a
   stack, rejected).  Figure 3 is a general configuration, outside every
   specialised criterion, so the reference must refuse it (null). *)
let figures () =
  let verdict h =
    match Special.check_matching h with
    | Some (_, ok) -> Json.Bool ok
    | None -> Json.Null
  in
  Json.Obj
    [
      ("figure3", verdict (Figures.figure3 ()).Figures.ht);
      ("figure4", verdict (Figures.figure4 ()).Figures.ht);
      ("figure4_conflicting_top", verdict (Figures.figure4 ~conflicting_top:true ()).Figures.ht);
      ("input_order_chain", verdict (Figures.input_order_chain ()));
    ]

let workloads = [ "serve-open-window"; "batch" ]

let usage () =
  prerr_endline
    "usage: perfgen gen WORKLOAD SEED COUNT DIR | perfgen replay WORKLOAD SEED COUNT \
     | perfgen figures";
  exit 2

let () =
  let int s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let wl w = if List.mem w workloads then w else usage () in
  match Array.to_list Sys.argv |> List.tl with
  | [ "gen"; w; seed; count; dir ] -> gen (wl w) (int seed) (int count) dir
  | [ "replay"; w; seed; count ] ->
    print_endline (Json.to_string (replay (wl w) (int seed) (int count)))
  | [ "figures" ] -> print_endline (Json.to_string (figures ()))
  | _ -> usage ()
