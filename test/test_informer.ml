(* The informer: list+watch sync, stream-death recovery, stale-list
   rejection (the 59848 fix), endpoint rotation. *)

let setup ?(apiservers = 1) () =
  let engine = Dsim.Engine.create () in
  let net = Dsim.Network.create engine in
  let intercept = History.Intercept.create () in
  let etcd = Kube.Etcd.create ~net ~intercept () in
  let names = List.init apiservers (fun i -> Printf.sprintf "api-%d" (i + 1)) in
  let apis =
    List.map (fun name -> Kube.Apiserver.create ~net ~intercept ~name ~etcd:"etcd" ()) names
  in
  List.iter Kube.Apiserver.start apis;
  Dsim.Network.join net "comp";
  (engine, net, etcd, names, apis)

let run_for engine us = Dsim.Engine.run ~until:(Dsim.Engine.now engine + us) engine

let syncs_and_streams () =
  let engine, net, etcd, names, _ = setup () in
  ignore (Etcdlike.Kv.put (Kube.Etcd.kv etcd) "pods/a" (Kube.Resource.make_pod "a"));
  let events = ref [] in
  let informer =
    Kube.Informer.create ~net ~owner:"comp" ~endpoints:names ~prefix:"pods/"
      ~on_event:(fun e -> events := e.History.Event.rev :: !events)
      ()
  in
  Kube.Informer.start informer ();
  run_for engine 1_000_000;
  Alcotest.(check bool) "listed existing pod" true
    (History.State.get (Kube.Informer.store informer) "pods/a" <> None);
  ignore (Etcdlike.Kv.put (Kube.Etcd.kv etcd) "pods/b" (Kube.Resource.make_pod "b"));
  ignore (Etcdlike.Kv.put (Kube.Etcd.kv etcd) "nodes/n" (Kube.Resource.make_node "n"));
  run_for engine 500_000;
  Alcotest.(check (list int)) "streamed pod event only" [ 2 ] (List.rev !events);
  Alcotest.(check int) "frontier at 2 or beyond" 2 (min 2 (Kube.Informer.rev informer));
  Alcotest.(check bool) "running" true (Kube.Informer.running informer)

let stop_freezes () =
  let engine, net, etcd, names, _ = setup () in
  let informer = Kube.Informer.create ~net ~owner:"comp" ~endpoints:names ~prefix:"pods/" () in
  Kube.Informer.start informer ();
  run_for engine 1_000_000;
  Kube.Informer.stop informer;
  ignore (Etcdlike.Kv.put (Kube.Etcd.kv etcd) "pods/late" (Kube.Resource.make_pod "late"));
  run_for engine 1_000_000;
  Alcotest.(check bool) "no updates after stop" true
    (History.State.get (Kube.Informer.store informer) "pods/late" = None)

let dead_stream_triggers_relist () =
  let engine, net, etcd, names, _ = setup ~apiservers:2 () in
  let informer = Kube.Informer.create ~net ~owner:"comp" ~endpoints:names ~prefix:"pods/" () in
  Kube.Informer.start informer ();
  run_for engine 1_000_000;
  let relists_before = Kube.Informer.relists informer in
  (* Kill the stream from api-1; bookmarks stop; watchdog must rotate to
     api-2 and re-list, catching the event committed meanwhile. *)
  Dsim.Network.partition net "comp" "api-1";
  ignore (Etcdlike.Kv.put (Kube.Etcd.kv etcd) "pods/during" (Kube.Resource.make_pod "during"));
  run_for engine 3_000_000;
  Alcotest.(check bool) "re-listed" true (Kube.Informer.relists informer > relists_before);
  Alcotest.(check string) "rotated" "api-2" (Kube.Informer.current_endpoint informer);
  Alcotest.(check bool) "caught up" true (History.State.get (Kube.Informer.store informer) "pods/during" <> None)

let monotonic_rejects_stale_list () =
  let engine, net, etcd, names, _ = setup ~apiservers:2 () in
  let informer =
    Kube.Informer.create ~net ~owner:"comp" ~endpoints:names ~prefix:"pods/" ~monotonic:true ()
  in
  Kube.Informer.start informer ();
  run_for engine 1_000_000;
  (* Freeze api-2, commit, then force the informer onto api-2: monotonic
     mode must reject api-2's stale list and end up fresh. *)
  Dsim.Network.partition net "etcd" "api-2";
  ignore (Etcdlike.Kv.put (Kube.Etcd.kv etcd) "pods/new" (Kube.Resource.make_pod "new"));
  run_for engine 500_000;
  Kube.Informer.stop informer;
  Kube.Informer.start informer ~endpoint:1 ();
  run_for engine 3_000_000;
  Alcotest.(check bool) "saw the new pod despite stale endpoint" true
    (History.State.get (Kube.Informer.store informer) "pods/new" <> None)

let non_monotonic_adopts_stale_list () =
  let engine, net, etcd, names, _ = setup ~apiservers:2 () in
  let informer = Kube.Informer.create ~net ~owner:"comp" ~endpoints:names ~prefix:"pods/" () in
  Kube.Informer.start informer ();
  run_for engine 1_000_000;
  Dsim.Network.partition net "etcd" "api-2";
  ignore (Etcdlike.Kv.put (Kube.Etcd.kv etcd) "pods/new" (Kube.Resource.make_pod "new"));
  run_for engine 500_000;
  let frontier_before = Kube.Informer.rev informer in
  Kube.Informer.stop informer;
  Kube.Informer.start informer ~endpoint:1 ();
  run_for engine 500_000;
  (* Time travel: the adopted view is older than what we had. *)
  Alcotest.(check bool) "frontier moved backwards" true
    (Kube.Informer.rev informer < frontier_before);
  Alcotest.(check bool) "stale store misses the pod" true
    (History.State.get (Kube.Informer.store informer) "pods/new" = None)

let suites =
  [
    ( "informer",
      [
        Alcotest.test_case "syncs and streams" `Quick syncs_and_streams;
        Alcotest.test_case "stop freezes" `Quick stop_freezes;
        Alcotest.test_case "dead stream triggers relist" `Quick dead_stream_triggers_relist;
        Alcotest.test_case "monotonic rejects stale list (59848 fix)" `Quick
          monotonic_rejects_stale_list;
        Alcotest.test_case "non-monotonic adopts stale list (time travel)" `Quick
          non_monotonic_adopts_stale_list;
      ] );
  ]
