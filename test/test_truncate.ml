(* Frontier truncation: bounded-memory monitored sessions.

   The headline property is verdict parity — a monitor with an
   auto-truncation window decides exactly what an untruncated session
   decides on every prefix of a random stream, accepting and rejecting
   alike — plus the units pinning the truncation surface: undo refused
   across a fold boundary, [truncate; truncate] = [truncate], the
   summary contents, and that the dense resident estimate actually
   shrinks when the certified prefix is folded. *)
open Repro_model
open Repro_workload
module Engine = Repro_core.Engine
module Reduction = Repro_core.Reduction

let history_of_seed seed =
  let rng = Prng.create ~seed in
  let stream = seed mod 2 = 0 in
  match seed mod 5 with
  | 0 -> Gen.flat ~stream rng ~roots:(3 + (seed mod 4))
  | 1 -> Gen.stack ~stream rng ~levels:(2 + (seed mod 3)) ~roots:(2 + (seed mod 3))
  | 2 -> Gen.fork ~stream rng ~branches:2 ~roots:(3 + (seed mod 2))
  | 3 -> Gen.join ~stream rng ~branches:2 ~roots:3
  | _ -> Gen.general ~stream rng ~schedules:(3 + (seed mod 3)) ~roots:(3 + (seed mod 2))

let arb_seed = QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000)

let n_roots h = List.length (History.roots h)

(* Verdicts agree when acceptance agrees, and rejections cite the same
   failure kind (the witness details may differ in inessentials, like
   the untruncated monitor's vs the batch checker's). *)
let same_verdict a b =
  match (a, b) with
  | Engine.Accepted _, Engine.Accepted _ -> true
  | Engine.Rejected f, Engine.Rejected g ->
    Reduction.failure_kind f = Reduction.failure_kind g
  | _ -> false

let stack_history () = Gen.stack (Prng.create ~seed:42) ~levels:2 ~roots:4

(* ------------------------------------------------------------------ *)
(* Property: windowed = untruncated on random streams                  *)
(* ------------------------------------------------------------------ *)

let prop_truncation_parity =
  QCheck.Test.make ~count:120 ~name:"auto-truncation preserves every verdict"
    arb_seed (fun seed ->
      let h = history_of_seed seed in
      (* Tiny windows force truncation (and the occasional breach-and-
         restore) constantly; vary them so both regimes are hit. *)
      let window = 4 + (seed mod 13) in
      let plain = Engine.create () in
      let windowed = Engine.create ~window () in
      let ok = ref true in
      for k = 1 to n_roots h do
        let p = History.prefix_by_roots h k in
        let v_plain = Engine.extend plain p in
        let v_win = Engine.extend windowed p in
        if not (same_verdict v_plain v_win) then ok := false
      done;
      !ok)

let prop_truncation_not_vacuous =
  QCheck.Test.make ~count:60 ~name:"small windows actually truncate"
    arb_seed (fun seed ->
      let h = history_of_seed seed in
      let s = Engine.create ~window:4 () in
      for k = 1 to n_roots h do
        ignore (Engine.extend s (History.prefix_by_roots h k))
      done;
      (* Streams that reject early may legitimately never fold (only a
         certified prefix is foldable), and a fold followed by a breach
         restore legitimately ends back at floor 0 — but the lifetime
         counter proves the parity property above exercised folding.
         The watermark is checked before each append, so only a stream
         with some non-final prefix at or past the window can fold at
         all — nothing folds after the last append. *)
      let can_fold =
        let rec any k =
          k < n_roots h
          && (History.n_nodes (History.prefix_by_roots h k) >= 4 || any (k + 1))
        in
        any 1
      in
      (not (Engine.accepted s)) || (not can_fold) || Engine.truncations s > 0)

(* ------------------------------------------------------------------ *)
(* Units                                                               *)
(* ------------------------------------------------------------------ *)

let certified_session () =
  let h = stack_history () in
  let s = Engine.create () in
  for k = 1 to n_roots h do
    ignore (Engine.extend s (History.prefix_by_roots h k))
  done;
  (h, s)

let test_undo_at_boundary () =
  let _, s = certified_session () in
  Engine.truncate s;
  Alcotest.check_raises "engine refuses undo across the fold"
    (Invalid_argument "Engine.undo: cannot roll back across a truncation boundary")
    (fun () -> Engine.undo s)

(* The same wall on a session grown by monitored appends, and the distinct
   message when no snapshot is held at all. *)
let test_monitor_undo_at_boundary () =
  let h = stack_history () in
  let m = Engine.create () in
  for k = 1 to n_roots h do
    ignore (Engine.extend m (History.prefix_by_roots h k))
  done;
  Engine.truncate m;
  Alcotest.check_raises "monitor refuses undo across the fold"
    (Invalid_argument "Engine.undo: cannot roll back across a truncation boundary")
    (fun () -> Engine.undo m);
  let fresh = Engine.create () in
  Alcotest.check_raises "no-snapshot message"
    (Invalid_argument "Engine.undo: no snapshot held (undo depth is one)")
    (fun () -> Engine.undo fresh)

let test_truncate_idempotent () =
  let _, s = certified_session () in
  Engine.truncate s;
  let floor1 = Engine.floor s
  and sum1 = Engine.summary s
  and count1 = Engine.truncations s
  and verdict1 = Engine.accepted s in
  Engine.truncate s;
  Alcotest.(check int) "floor unchanged" floor1 (Engine.floor s);
  Alcotest.(check bool) "summary unchanged" true (sum1 = Engine.summary s);
  Alcotest.(check int) "second truncate is a no-op" count1 (Engine.truncations s);
  Alcotest.(check bool) "verdict carried" verdict1 (Engine.accepted s)

let test_truncate_summary_contents () =
  let h, s = certified_session () in
  let serial_before =
    match Engine.verdict s with
    | Some (Engine.Accepted serial) -> serial
    | _ -> Alcotest.fail "stack history should be accepted"
  in
  Engine.truncate s;
  match Engine.summary s with
  | None -> Alcotest.fail "truncate must leave a summary"
  | Some sum ->
    Alcotest.(check int) "summary spans the history" (History.n_nodes h) sum.Engine.s_nodes;
    Alcotest.(check int) "all roots folded" (n_roots h) sum.Engine.s_roots;
    Alcotest.(check (list int)) "serial witness prefix kept" serial_before
      sum.Engine.s_serial;
    Alcotest.(check int) "floor is the folded node count" (History.n_nodes h)
      (Engine.floor s)

let test_truncate_releases_memory () =
  let _, s = certified_session () in
  let before = Engine.resident_estimate_words s in
  Engine.truncate s;
  let after = Engine.resident_estimate_words s in
  Alcotest.(check bool)
    (Printf.sprintf "dense estimate shrinks (%d -> %d words)" before after)
    true (after < before)

let test_truncate_rejected_refused () =
  (* Figure-3 style violation: two rw-conflicting leaf pairs serialized
     opposite ways by their schedules. *)
  let h =
    Repro_histlang.Syntax.parse
      "schedule S conflict rw\n\
       root T1 @ S T1\n\
       root T2 @ S T2\n\
       leaf a parent T1 w(x)\n\
       leaf b parent T1 w(y)\n\
       leaf c parent T2 w(x)\n\
       leaf d parent T2 w(y)\n\
       order S : a < c\n\
       order S : d < b\n"
  in
  let s = Engine.create () in
  (match Engine.extend s h with
  | Engine.Rejected _ -> ()
  | Engine.Accepted _ -> Alcotest.fail "expected a rejection");
  Alcotest.check_raises "only certified prefixes fold"
    (Invalid_argument "Engine.truncate: only an accepted (certified) prefix can be folded")
    (fun () -> Engine.truncate s)

let test_truncate_empty_noop () =
  let s = Engine.create () in
  Engine.truncate s;
  Alcotest.(check int) "no floor on the empty session" 0 (Engine.floor s);
  Alcotest.(check bool) "no summary on the empty session" true (Engine.summary s = None)

let test_window_validation () =
  Alcotest.check_raises "window must be positive"
    (Invalid_argument "Engine.create: window must be positive") (fun () ->
      ignore (Engine.create ~window:0 ()))

let test_explain_after_truncate () =
  (* Forensic accessors transparently restore the dense state. *)
  let _, s = certified_session () in
  Engine.truncate s;
  Alcotest.(check bool) "floor up after fold" true (Engine.floor s > 0);
  let cert = Engine.certificate s in
  Alcotest.(check int) "restore drops the floor" 0 (Engine.floor s);
  Alcotest.(check bool) "restored certificate is the accept one" true
    (match cert.Reduction.outcome with Ok _ -> true | Error _ -> false);
  Alcotest.(check bool) "restores counted" true (Engine.restores s > 0)

let suite =
  [
    ( "truncate",
      [
        Alcotest.test_case "undo at boundary (engine)" `Quick test_undo_at_boundary;
        Alcotest.test_case "undo at boundary (monitor)" `Quick
          test_monitor_undo_at_boundary;
        Alcotest.test_case "truncate; truncate = truncate" `Quick
          test_truncate_idempotent;
        Alcotest.test_case "summary contents" `Quick test_truncate_summary_contents;
        Alcotest.test_case "dense estimate shrinks" `Quick
          test_truncate_releases_memory;
        Alcotest.test_case "rejected prefix refused" `Quick
          test_truncate_rejected_refused;
        Alcotest.test_case "empty session no-op" `Quick test_truncate_empty_noop;
        Alcotest.test_case "window validation" `Quick test_window_validation;
        Alcotest.test_case "explain after truncate restores" `Quick
          test_explain_after_truncate;
      ] );
    ( "truncate:props",
      [
        QCheck_alcotest.to_alcotest prop_truncation_parity;
        QCheck_alcotest.to_alcotest prop_truncation_not_vacuous;
      ] );
  ]
