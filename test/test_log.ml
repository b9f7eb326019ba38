(* The committed history log: revisions, since, compaction. *)

open History

let fill log n =
  for i = 1 to n do
    ignore (Log.append log ~key:(Printf.sprintf "k%d" i) ~op:Event.Create (Some i))
  done

let revisions_dense () =
  let log = Log.create () in
  fill log 5;
  Alcotest.(check int) "rev" 5 (Log.rev log);
  Alcotest.(check (list int)) "dense 1..5" [ 1; 2; 3; 4; 5 ]
    (List.map (fun (e : int Event.t) -> e.Event.rev) (Log.events log))

let state_tracks_events () =
  let log = Log.create () in
  ignore (Log.append log ~key:"a" ~op:Event.Create (Some 1));
  ignore (Log.append log ~key:"a" ~op:Event.Delete None);
  Alcotest.(check bool) "a deleted" false (State.mem (Log.state log) "a");
  Alcotest.(check int) "rev 2" 2 (Log.rev log)

let since_returns_suffix () =
  let log = Log.create () in
  fill log 5;
  match Log.since log ~rev:3 with
  | Ok events ->
      Alcotest.(check (list int)) "revs 4,5" [ 4; 5 ]
        (List.map (fun (e : int Event.t) -> e.Event.rev) events)
  | Error _ -> Alcotest.fail "unexpected compaction"

let since_zero_is_everything () =
  let log = Log.create () in
  fill log 3;
  match Log.since log ~rev:0 with
  | Ok events -> Alcotest.(check int) "all three" 3 (List.length events)
  | Error _ -> Alcotest.fail "unexpected compaction"

let compaction_rejects_old_since () =
  let log = Log.create () in
  fill log 10;
  Log.compact log ~before:6;
  Alcotest.(check int) "compacted_rev" 6 (Log.compacted_rev log);
  Alcotest.(check int) "retained" 4 (Log.length log);
  (match Log.since log ~rev:3 with
  | Error (`Compacted 6) -> ()
  | _ -> Alcotest.fail "expected Compacted 6");
  match Log.since log ~rev:6 with
  | Ok events -> Alcotest.(check int) "boundary ok" 4 (List.length events)
  | Error _ -> Alcotest.fail "rev = compacted_rev must still be servable"

let compact_keep_last () =
  let log = Log.create () in
  fill log 10;
  Log.compact_keep_last log 3;
  Alcotest.(check int) "kept 3" 3 (Log.length log);
  Alcotest.(check int) "compacted at 7" 7 (Log.compacted_rev log)

let compact_beyond_head_clamps () =
  let log = Log.create () in
  fill log 3;
  Log.compact log ~before:100;
  Alcotest.(check int) "clamped to head" 3 (Log.compacted_rev log);
  Alcotest.(check int) "nothing retained" 0 (Log.length log);
  Alcotest.(check int) "state survives compaction" 3 (State.cardinal (Log.state log))

let since_at_boundary_is_window () =
  let log = Log.create () in
  fill log 10;
  Log.compact log ~before:6;
  match Log.since log ~rev:6 with
  | Ok events ->
      Alcotest.(check (list int)) "exactly the retained window" [ 7; 8; 9; 10 ]
        (List.map (fun (e : int Event.t) -> e.Event.rev) events);
      Alcotest.(check (list int)) "events = retained window"
        (List.map (fun (e : int Event.t) -> e.Event.rev) (Log.events log))
        (List.map (fun (e : int Event.t) -> e.Event.rev) events)
  | Error _ -> Alcotest.fail "rev = compacted_rev must be servable"

let since_below_boundary_reports_revision () =
  let log = Log.create () in
  fill log 10;
  Log.compact log ~before:7;
  (match Log.since log ~rev:6 with
  | Error (`Compacted 7) -> ()
  | _ -> Alcotest.fail "expected Compacted 7");
  match Log.since log ~rev:0 with
  | Error (`Compacted 7) -> ()
  | _ -> Alcotest.fail "expected Compacted 7 for rev 0"

let double_compaction_idempotent () =
  let log = Log.create () in
  fill log 10;
  Log.compact log ~before:6;
  let revs_once = List.map (fun (e : int Event.t) -> e.Event.rev) (Log.events log) in
  Log.compact log ~before:6;
  Log.compact log ~before:3 (* backwards compaction is a no-op *);
  Alcotest.(check int) "compacted_rev unchanged" 6 (Log.compacted_rev log);
  Alcotest.(check int) "length unchanged" 4 (Log.length log);
  Alcotest.(check (list int)) "window unchanged" revs_once
    (List.map (fun (e : int Event.t) -> e.Event.rev) (Log.events log))

(* The pre-index implementation, kept as an executable reference model:
   a newest-first list, [since] and [compact] by full filter. *)
module Naive = struct
  type 'v t = {
    mutable events : 'v Event.t list;  (* newest first *)
    mutable rev : int;
    mutable compacted_rev : int;
  }

  let create () = { events = []; rev = 0; compacted_rev = 0 }

  let append t ~key ~op value =
    t.rev <- t.rev + 1;
    t.events <- Event.make ~rev:t.rev ~key ~op value :: t.events

  let events t = List.rev t.events

  let since t ~rev =
    if rev < t.compacted_rev then Error (`Compacted t.compacted_rev)
    else Ok (List.rev (List.filter (fun (e : 'v Event.t) -> e.Event.rev > rev) t.events))

  let compact t ~before =
    let before = min before t.rev in
    if before > t.compacted_rev then begin
      t.events <- List.filter (fun (e : 'v Event.t) -> e.Event.rev > before) t.events;
      t.compacted_rev <- before
    end
end

let qcheck_indexed_agrees_with_naive =
  (* Arbitrary interleavings of appends and compactions: the indexed
     window and the naive list/filter model must agree on every
     observable. *)
  QCheck.Test.make ~name:"indexed log = naive reference model" ~count:200
    QCheck.(list_of_size Gen.(0 -- 40) (pair (int_range 0 9) (int_range 0 60)))
    (fun ops ->
      let log = Log.create () in
      let naive = Naive.create () in
      List.iter
        (fun (what, arg) ->
          if what = 9 then begin
            let before = arg mod (Log.rev log + 1) in
            Log.compact log ~before;
            Naive.compact naive ~before
          end
          else begin
            let key = Printf.sprintf "k%d" (arg mod 7) in
            let op =
              match what mod 3 with 0 -> Event.Create | 1 -> Event.Update | _ -> Event.Delete
            in
            let value = if op = Event.Delete then None else Some arg in
            ignore (Log.append log ~key ~op value);
            Naive.append naive ~key ~op value
          end)
        ops;
      let same_events a b =
        List.map (fun (e : int Event.t) -> (e.Event.rev, e.Event.key, e.Event.op, e.Event.value)) a
        = List.map
            (fun (e : int Event.t) -> (e.Event.rev, e.Event.key, e.Event.op, e.Event.value))
            b
      in
      Log.rev log = naive.Naive.rev
      && Log.compacted_rev log = naive.Naive.compacted_rev
      && same_events (Log.events log) (Naive.events naive)
      && List.for_all
           (fun rev ->
             match Log.since log ~rev, Naive.since naive ~rev with
             | Ok a, Ok b -> same_events a b
             | Error (`Compacted a), Error (`Compacted b) -> a = b
             | _ -> false)
           (List.init (Log.rev log + 2) Fun.id))

let qcheck_since_partition =
  QCheck.Test.make ~name:"since splits history at rev" ~count:200
    QCheck.(pair (int_range 0 60) (int_range 0 60))
    (fun (n, rev) ->
      let log = Log.create () in
      fill log n;
      match Log.since log ~rev with
      | Ok events -> List.length events = max 0 (n - rev)
      | Error _ -> false)

let suites =
  [
    ( "log",
      [
        Alcotest.test_case "revisions dense" `Quick revisions_dense;
        Alcotest.test_case "state tracks events" `Quick state_tracks_events;
        Alcotest.test_case "since returns suffix" `Quick since_returns_suffix;
        Alcotest.test_case "since zero is everything" `Quick since_zero_is_everything;
        Alcotest.test_case "compaction rejects old since" `Quick compaction_rejects_old_since;
        Alcotest.test_case "compact_keep_last" `Quick compact_keep_last;
        Alcotest.test_case "compact beyond head clamps" `Quick compact_beyond_head_clamps;
        Alcotest.test_case "since at boundary is the window" `Quick since_at_boundary_is_window;
        Alcotest.test_case "since below boundary reports revision" `Quick
          since_below_boundary_reports_revision;
        Alcotest.test_case "double compaction idempotent" `Quick double_compaction_idempotent;
        Qcheck_util.to_alcotest qcheck_since_partition;
        Qcheck_util.to_alcotest qcheck_indexed_agrees_with_naive;
      ] );
  ]
