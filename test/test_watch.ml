(* The in-store watch hub: backlog, filters, compaction, cancellation. *)

let collect () =
  let received = ref [] in
  let deliver e = received := e :: !received in
  (received, deliver)

let revs received = List.rev_map (fun (e : string History.Event.t) -> e.History.Event.rev) !received

let live_streaming () =
  let kv = Etcdlike.Kv.create () in
  let hub = Etcdlike.Watch.create kv in
  let received, deliver = collect () in
  (match Etcdlike.Watch.watch hub ~start_rev:0 ~deliver () with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "watch failed");
  ignore (Etcdlike.Kv.put kv "a" "1");
  ignore (Etcdlike.Kv.put kv "b" "2");
  Alcotest.(check (list int)) "live events" [ 1; 2 ] (revs received)

let backlog_then_live () =
  let kv = Etcdlike.Kv.create () in
  let hub = Etcdlike.Watch.create kv in
  ignore (Etcdlike.Kv.put kv "a" "1");
  ignore (Etcdlike.Kv.put kv "b" "2");
  let received, deliver = collect () in
  (match Etcdlike.Watch.watch hub ~start_rev:1 ~deliver () with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "watch failed");
  ignore (Etcdlike.Kv.put kv "c" "3");
  Alcotest.(check (list int)) "backlog(2) + live(3)" [ 2; 3 ] (revs received)

let prefix_filter () =
  let kv = Etcdlike.Kv.create () in
  let hub = Etcdlike.Watch.create kv in
  let received, deliver = collect () in
  ignore (Etcdlike.Watch.watch hub ~prefix:"pods/" ~start_rev:0 ~deliver ());
  ignore (Etcdlike.Kv.put kv "pods/a" "1");
  ignore (Etcdlike.Kv.put kv "nodes/x" "2");
  ignore (Etcdlike.Kv.put kv "pods/b" "3");
  Alcotest.(check (list int)) "pods only" [ 1; 3 ] (revs received)

let compacted_start_rejected () =
  let kv = Etcdlike.Kv.create () in
  let hub = Etcdlike.Watch.create kv in
  for i = 1 to 10 do
    ignore (Etcdlike.Kv.put kv (Printf.sprintf "k%d" i) "v")
  done;
  Etcdlike.Kv.compact_keep_last kv 2;
  let _, deliver = collect () in
  match Etcdlike.Watch.watch hub ~start_rev:3 ~deliver () with
  | Error (`Compacted 8) -> ()
  | _ -> Alcotest.fail "expected Compacted 8"

let cancel_stops_delivery () =
  let kv = Etcdlike.Kv.create () in
  let hub = Etcdlike.Watch.create kv in
  let received, deliver = collect () in
  (match Etcdlike.Watch.watch hub ~start_rev:0 ~deliver () with
  | Ok handle ->
      ignore (Etcdlike.Kv.put kv "a" "1");
      Etcdlike.Watch.cancel hub handle;
      ignore (Etcdlike.Kv.put kv "b" "2")
  | Error _ -> Alcotest.fail "watch failed");
  Alcotest.(check (list int)) "only first" [ 1 ] (revs received);
  Alcotest.(check int) "no active watchers" 0 (Etcdlike.Watch.active hub)

let no_duplicates_on_fan_out () =
  let kv = Etcdlike.Kv.create () in
  let hub = Etcdlike.Watch.create kv in
  let received, deliver = collect () in
  ignore (Etcdlike.Watch.watch hub ~start_rev:0 ~deliver ());
  let e = Etcdlike.Kv.put kv "a" "1" in
  (* Replaying an already-sent event through fan_out must not re-deliver. *)
  Etcdlike.Watch.fan_out hub e;
  Alcotest.(check (list int)) "delivered once" [ 1 ] (revs received)

let multiple_watchers_independent () =
  let kv = Etcdlike.Kv.create () in
  let hub = Etcdlike.Watch.create kv in
  let r1, d1 = collect () in
  let r2, d2 = collect () in
  ignore (Etcdlike.Watch.watch hub ~prefix:"pods/" ~start_rev:0 ~deliver:d1 ());
  ignore (Etcdlike.Watch.watch hub ~prefix:"nodes/" ~start_rev:0 ~deliver:d2 ());
  ignore (Etcdlike.Kv.put kv "pods/a" "1");
  ignore (Etcdlike.Kv.put kv "nodes/x" "2");
  Alcotest.(check (list int)) "watcher 1" [ 1 ] (revs r1);
  Alcotest.(check (list int)) "watcher 2" [ 2 ] (revs r2);
  Alcotest.(check int) "two active" 2 (Etcdlike.Watch.active hub)

(* Regression: cancelling a watcher from inside a peer's delivery
   callback used to leave it in the in-flight fan-out list, so it
   received the very event it was cancelled against. *)
let cancel_during_fan_out () =
  let kv = Etcdlike.Kv.create () in
  let hub = Etcdlike.Watch.create kv in
  let victim_events = ref 0 in
  let victim = ref None in
  (match
     Etcdlike.Watch.watch hub ~start_rev:0
       ~deliver:(fun _ ->
         match !victim with
         | Some handle ->
             Etcdlike.Watch.cancel hub handle;
             victim := None
         | None -> ())
       ()
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "watch failed");
  (match Etcdlike.Watch.watch hub ~start_rev:0 ~deliver:(fun _ -> incr victim_events) () with
  | Ok handle -> victim := Some handle
  | Error _ -> Alcotest.fail "watch failed");
  ignore (Etcdlike.Kv.put kv "a" "1");
  Alcotest.(check int) "cancelled watcher never sees the in-flight event" 0 !victim_events;
  ignore (Etcdlike.Kv.put kv "b" "2");
  Alcotest.(check int) "nor later ones" 0 !victim_events;
  Alcotest.(check int) "one watcher left" 1 (Etcdlike.Watch.active hub)

(* Regression: a stream replacing itself (cancel + re-watch) from inside
   its own delivery callback — the informer re-list pattern — must not
   corrupt the in-flight fan-out or double-deliver. *)
let reregister_from_own_callback () =
  let kv = Etcdlike.Kv.create () in
  let hub = Etcdlike.Watch.create kv in
  let phase1 = ref [] in
  let phase2 = ref [] in
  let handle = ref None in
  let deliver1 (e : string History.Event.t) =
    phase1 := e.History.Event.rev :: !phase1;
    (match !handle with Some h -> Etcdlike.Watch.cancel hub h | None -> ());
    match
      Etcdlike.Watch.watch hub ~start_rev:e.History.Event.rev
        ~deliver:(fun e -> phase2 := e.History.Event.rev :: !phase2)
        ()
    with
    | Ok h -> handle := Some h
    | Error _ -> Alcotest.fail "re-watch failed"
  in
  (match Etcdlike.Watch.watch hub ~start_rev:0 ~deliver:deliver1 () with
  | Ok h -> handle := Some h
  | Error _ -> Alcotest.fail "watch failed");
  ignore (Etcdlike.Kv.put kv "a" "1");
  ignore (Etcdlike.Kv.put kv "b" "2");
  Alcotest.(check (list int)) "old stream saw only the triggering event" [ 1 ] (List.rev !phase1);
  Alcotest.(check (list int)) "replacement stream continues, no duplicates" [ 2 ]
    (List.rev !phase2);
  Alcotest.(check int) "one watcher live" 1 (Etcdlike.Watch.active hub)

let suites =
  [
    ( "watch",
      [
        Alcotest.test_case "live streaming" `Quick live_streaming;
        Alcotest.test_case "backlog then live" `Quick backlog_then_live;
        Alcotest.test_case "prefix filter" `Quick prefix_filter;
        Alcotest.test_case "compacted start rejected" `Quick compacted_start_rejected;
        Alcotest.test_case "cancel stops delivery" `Quick cancel_stops_delivery;
        Alcotest.test_case "no duplicates on fan_out" `Quick no_duplicates_on_fan_out;
        Alcotest.test_case "multiple watchers independent" `Quick multiple_watchers_independent;
        Alcotest.test_case "cancel during fan_out (regression)" `Quick cancel_during_fan_out;
        Alcotest.test_case "re-register from own callback (regression)" `Quick
          reregister_from_own_callback;
      ] );
  ]
