(* FIFO watch-stream pipes: ordering, interception, stream breakage. *)

let ev rev key = History.Event.make ~rev ~key ~op:History.Event.Create (Some (Kube.Resource.make_node key))

let setup () =
  let engine = Dsim.Engine.create () in
  let net = Dsim.Network.create engine in
  Dsim.Network.join net "up";
  Dsim.Network.join net "down";
  let intercept = History.Intercept.create () in
  let received = ref [] in
  let pipe =
    Kube.Pipe.create ~net ~intercept
      ~edge:History.Intercept.{ src = "up"; dst = "down" }
      ~deliver:(fun item -> received := item :: !received)
      ()
  in
  (engine, net, intercept, pipe, received)

let revs received =
  List.rev_map
    (function
      | Kube.Pipe.Event e -> e.History.Event.rev
      | Kube.Pipe.Bookmark r -> -r
      | Kube.Pipe.Seal { upto_rev; _ } -> -(1000 + upto_rev))
    !received

let fifo_ordering () =
  let engine, _, _, pipe, received = setup () in
  for i = 1 to 10 do
    Kube.Pipe.send pipe (Kube.Pipe.Event (ev i "k"))
  done;
  Dsim.Engine.run engine;
  Alcotest.(check (list int)) "in order" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] (revs received)

let delay_preserves_fifo () =
  let engine, _, intercept, pipe, received = setup () in
  (* Delay only rev 1; rev 2 must still arrive after it. *)
  History.Intercept.set_policy intercept (fun _ e ->
      if e.History.Event.rev = 1 then History.Intercept.Delay 500_000 else History.Intercept.Pass);
  Kube.Pipe.send pipe (Kube.Pipe.Event (ev 1 "k"));
  Kube.Pipe.send pipe (Kube.Pipe.Event (ev 2 "k"));
  Dsim.Engine.run engine;
  Alcotest.(check (list int)) "still 1 then 2" [ 1; 2 ] (revs received);
  Alcotest.(check bool) "took the delay" true (Dsim.Engine.now engine >= 500_000)

let drop_is_silent_and_stream_survives () =
  let engine, _, intercept, pipe, received = setup () in
  History.Intercept.set_policy intercept (fun _ e ->
      if e.History.Event.rev = 2 then History.Intercept.Drop else History.Intercept.Pass);
  List.iter (fun i -> Kube.Pipe.send pipe (Kube.Pipe.Event (ev i "k"))) [ 1; 2; 3 ];
  Dsim.Engine.run engine;
  Alcotest.(check (list int)) "2 silently missing" [ 1; 3 ] (revs received);
  Alcotest.(check bool) "pipe healthy" false (Kube.Pipe.is_closed pipe)

let bookmarks_bypass_interceptor () =
  let engine, _, intercept, pipe, received = setup () in
  History.Intercept.set_policy intercept (fun _ _ -> History.Intercept.Drop);
  Kube.Pipe.send pipe (Kube.Pipe.Event (ev 1 "k"));
  Kube.Pipe.send pipe (Kube.Pipe.Bookmark 7);
  Dsim.Engine.run engine;
  Alcotest.(check (list int)) "only the bookmark" [ -7 ] (revs received)

let partition_breaks_stream () =
  let engine, net, _, pipe, received = setup () in
  Kube.Pipe.send pipe (Kube.Pipe.Event (ev 1 "k"));
  Dsim.Engine.run engine;
  Dsim.Network.partition net "up" "down";
  Kube.Pipe.send pipe (Kube.Pipe.Event (ev 2 "k"));
  Dsim.Engine.run engine;
  Alcotest.(check (list int)) "only pre-partition" [ 1 ] (revs received);
  Alcotest.(check bool) "stream broken, not leaky" true (Kube.Pipe.is_closed pipe);
  (* Healing does not resurrect a broken stream. *)
  Dsim.Network.heal net "up" "down";
  Kube.Pipe.send pipe (Kube.Pipe.Event (ev 3 "k"));
  Dsim.Engine.run engine;
  Alcotest.(check (list int)) "still only 1" [ 1 ] (revs received)

let subscriber_restart_breaks_stream () =
  let engine, net, _, pipe, received = setup () in
  Dsim.Network.crash net "down";
  Dsim.Network.restart net "down";
  Kube.Pipe.send pipe (Kube.Pipe.Event (ev 1 "k"));
  Dsim.Engine.run engine;
  Alcotest.(check int) "nothing delivered to new incarnation" 0 (List.length !received);
  Alcotest.(check bool) "broken" true (Kube.Pipe.is_closed pipe)

let close_stops_sends () =
  let engine, _, _, pipe, received = setup () in
  Kube.Pipe.close pipe;
  Kube.Pipe.send pipe (Kube.Pipe.Event (ev 1 "k"));
  Dsim.Engine.run engine;
  Alcotest.(check int) "no delivery" 0 (List.length !received)

let suites =
  [
    ( "pipe",
      [
        Alcotest.test_case "fifo ordering" `Quick fifo_ordering;
        Alcotest.test_case "delay preserves fifo" `Quick delay_preserves_fifo;
        Alcotest.test_case "drop is silent; stream survives" `Quick
          drop_is_silent_and_stream_survives;
        Alcotest.test_case "bookmarks bypass interceptor" `Quick bookmarks_bypass_interceptor;
        Alcotest.test_case "partition breaks stream" `Quick partition_breaks_stream;
        Alcotest.test_case "subscriber restart breaks stream" `Quick
          subscriber_restart_breaks_stream;
        Alcotest.test_case "close stops sends" `Quick close_stops_sends;
      ] );
  ]
