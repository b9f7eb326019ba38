(* The watch-stream table, driven through the etcd node: live events and
   bookmarks, backlog replay, the prefix filter on replayed events,
   stream replacement and independent streams. Re-registration from a
   delivery callback is in test_servers and replica-pinned streams in
   test_replicated. *)

let setup () =
  let engine = Dsim.Engine.create () in
  let net = Dsim.Network.create engine in
  let etcd = Kube.Etcd.create ~net ~intercept:(History.Intercept.create ()) () in
  Dsim.Network.join net "client";
  (engine, net, etcd)

let run_for engine us = Dsim.Engine.run ~until:(Dsim.Engine.now engine + us) engine

let put etcd key = ignore (Etcdlike.Kv.put (Kube.Etcd.kv etcd) key (Kube.Resource.make_pod key))

(* Opens [stream_id] on etcd; the returned function lists the event
   revisions the stream has delivered so far, oldest first. [bookmarks]
   collects the revisions of its bookmarks, newest first. *)
let watch engine net ?prefix ?(stream_id = "client#all") ?(bookmarks = ref []) ~start_rev () =
  let received = ref [] in
  let started = ref None in
  Kube.Messages.Store.call ~src:(Dsim.Network.peer net "client")
    ~dst:(Dsim.Network.peer net "etcd")
    (Kube.Messages.Watch
       {
         prefix;
         start_rev;
         subscriber = "client";
         stream_id;
         deliver =
           (function
           | Kube.Pipe.Event e -> received := e.History.Event.rev :: !received
           | Kube.Pipe.Bookmark rev -> bookmarks := rev :: !bookmarks
           | Kube.Pipe.Seal _ -> ());
       })
    (fun r -> started := Some r);
  run_for engine 500_000;
  (match !started with
  | Some (Ok (Ok Kube.Messages.Watching)) -> ()
  | _ -> Alcotest.fail "watch refused");
  fun () -> List.rev !received

(* Between events, bookmarks carry the store's revision. *)
let live_streaming () =
  let engine, net, etcd = setup () in
  let bookmarks = ref [] in
  let received = watch engine net ~bookmarks ~start_rev:0 () in
  put etcd "a";
  put etcd "b";
  run_for engine 500_000;
  Alcotest.(check (list int)) "live events" [ 1; 2 ] (received ());
  Alcotest.(check (option int)) "bookmark at the store's revision" (Some 2)
    (List.nth_opt !bookmarks 0)

let backlog_then_live () =
  let engine, net, etcd = setup () in
  put etcd "a";
  put etcd "b";
  let received = watch engine net ~start_rev:1 () in
  put etcd "c";
  run_for engine 500_000;
  Alcotest.(check (list int)) "backlog(2) + live(3)" [ 2; 3 ] (received ())

(* The backlog bypasses the prefix index, so replayed events are
   filtered by the stream itself. *)
let prefix_filter () =
  let engine, net, etcd = setup () in
  put etcd "pods/a";
  put etcd "nodes/x";
  let received = watch engine net ~prefix:"pods/" ~start_rev:0 () in
  put etcd "nodes/y";
  put etcd "pods/b";
  run_for engine 500_000;
  Alcotest.(check (list int)) "pods only, replayed and live" [ 1; 4 ] (received ())

(* A subscriber cancels a stream by replacing it: the old pipe closes
   at once and only the replacement carries later events. *)
let cancel_stops_delivery () =
  let engine, net, etcd = setup () in
  let old_stream = watch engine net ~start_rev:0 () in
  put etcd "a";
  run_for engine 500_000;
  let replacement = watch engine net ~start_rev:1 () in
  put etcd "b";
  run_for engine 500_000;
  Alcotest.(check (list int)) "old stream stopped" [ 1 ] (old_stream ());
  Alcotest.(check (list int)) "replacement carries the rest" [ 2 ] (replacement ());
  Alcotest.(check (list string)) "one stream" [ "client#all" ] (Kube.Etcd.subscribers etcd)

let multiple_watchers_independent () =
  let engine, net, etcd = setup () in
  let pods = watch engine net ~prefix:"pods/" ~stream_id:"client#pods" ~start_rev:0 () in
  let nodes = watch engine net ~prefix:"nodes/" ~stream_id:"client#nodes" ~start_rev:0 () in
  put etcd "pods/a";
  put etcd "nodes/x";
  run_for engine 500_000;
  Alcotest.(check (list int)) "watcher 1" [ 1 ] (pods ());
  Alcotest.(check (list int)) "watcher 2" [ 2 ] (nodes ());
  Alcotest.(check (list string)) "two streams" [ "client#nodes"; "client#pods" ]
    (Kube.Etcd.subscribers etcd)

let suites =
  [
    ( "watch",
      [
        Alcotest.test_case "live streaming" `Quick live_streaming;
        Alcotest.test_case "backlog then live" `Quick backlog_then_live;
        Alcotest.test_case "prefix filter" `Quick prefix_filter;
        Alcotest.test_case "cancel stops delivery" `Quick cancel_stops_delivery;
        Alcotest.test_case "multiple watchers independent" `Quick multiple_watchers_independent;
      ] );
  ]
