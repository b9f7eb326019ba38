(* The etcd node and the apiserver, exercised over the simulated network. *)

let setup () =
  let engine = Dsim.Engine.create () in
  let net = Dsim.Network.create engine in
  let intercept = History.Intercept.create () in
  let etcd = Kube.Etcd.create ~net ~intercept () in
  Dsim.Network.join net "client";
  (engine, net, intercept, etcd)

let call engine net req =
  let result = ref None in
  Kube.Messages.Store.call net ~src:"client" ~dst:"etcd" req (fun r -> result := Some r);
  Dsim.Engine.run ~until:(Dsim.Engine.now engine + 2_000_000) engine;
  !result

let etcd_range_and_txn () =
  let engine, net, _, etcd = setup () in
  ignore (Etcdlike.Kv.put (Kube.Etcd.kv etcd) "pods/a" (Kube.Resource.make_pod "a"));
  (match call engine net (Kube.Messages.List { prefix = "pods/"; quorum = true }) with
  | Some (Ok (Ok { Kube.Messages.items; rev })) ->
      Alcotest.(check int) "one item" 1 (List.length items);
      Alcotest.(check int) "rev 1" 1 rev
  | _ -> Alcotest.fail "range failed");
  match
    call engine net
      (Kube.Messages.Txn
         { txn = Kube.Messages.put "pods/b" (Kube.Resource.make_pod "b"); origin = "client"; lease = None })
  with
  | Some (Ok (Ok { Kube.Messages.succeeded = true; rev = 2 })) -> ()
  | _ -> Alcotest.fail "txn failed"

let etcd_watch_streams_via_pipe () =
  let engine, net, _, etcd = setup () in
  let received = ref [] in
  let watch =
    Kube.Messages.Watch
      {
        prefix = Some "pods/";
        start_rev = 0;
        subscriber = "client";
        stream_id = "client#pods";
        deliver =
          (fun item ->
            match item with
            | Kube.Pipe.Event e -> received := e.History.Event.rev :: !received
            | Kube.Pipe.Bookmark _ | Kube.Pipe.Seal _ -> ());
      }
  in
  (match call engine net watch with
  | Some (Ok (Ok Kube.Messages.Watching)) -> ()
  | _ -> Alcotest.fail "watch failed");
  ignore (Etcdlike.Kv.put (Kube.Etcd.kv etcd) "pods/a" (Kube.Resource.make_pod "a"));
  ignore (Etcdlike.Kv.put (Kube.Etcd.kv etcd) "nodes/x" (Kube.Resource.make_node "x"));
  Dsim.Engine.run ~until:(Dsim.Engine.now engine + 1_000_000) engine;
  Alcotest.(check (list int)) "pod event only" [ 1 ] (List.rev !received);
  Alcotest.(check (list string)) "subscribed" [ "client#pods" ] (Kube.Etcd.subscribers etcd)

let etcd_watch_window_compaction () =
  let engine, net, _, etcd = setup () in
  let etcd_kv = Kube.Etcd.kv etcd in
  ignore etcd_kv;
  ignore engine;
  ignore net;
  (* Recreate with a tiny window on a fresh engine for isolation. *)
  let engine = Dsim.Engine.create () in
  let net = Dsim.Network.create engine in
  let intercept = History.Intercept.create () in
  let etcd = Kube.Etcd.create ~net ~intercept ~watch_window:2 () in
  Dsim.Network.join net "client";
  for i = 1 to 6 do
    ignore (Etcdlike.Kv.put (Kube.Etcd.kv etcd) (Printf.sprintf "k%d" i) (Kube.Resource.make_node "n"))
  done;
  let result = ref None in
  Kube.Messages.Store.call net ~src:"client" ~dst:"etcd"
    (Kube.Messages.Watch
       {
         prefix = None;
         start_rev = 1;
         subscriber = "client";
         stream_id = "client#all";
         deliver = (fun _ -> ());
       })
    (fun r -> result := Some r);
  Dsim.Engine.run ~until:2_000_000 engine;
  match !result with
  | Some (Ok (Ok (Kube.Messages.Compacted 4))) -> ()
  | _ -> Alcotest.fail "expected compacted at 4"

(* Apiserver serving from its cache. *)
let api_setup () =
  let engine = Dsim.Engine.create () in
  let net = Dsim.Network.create engine in
  let intercept = History.Intercept.create () in
  let etcd = Kube.Etcd.create ~net ~intercept () in
  let api = Kube.Apiserver.create ~net ~intercept ~name:"api-1" ~etcd:"etcd" () in
  Kube.Apiserver.start api;
  Dsim.Network.join net "client";
  Dsim.Engine.run ~until:100_000 engine;
  (engine, net, etcd, api)

let api_call engine net req =
  let result = ref None in
  Kube.Messages.Store.call net ~src:"client" ~dst:"api-1" req (fun r -> result := Some r);
  Dsim.Engine.run ~until:(Dsim.Engine.now engine + 2_000_000) engine;
  !result

let apiserver_becomes_ready_and_caches () =
  let engine, net, etcd, api = api_setup () in
  Alcotest.(check bool) "ready" true (Kube.Apiserver.ready api);
  ignore (Etcdlike.Kv.put (Kube.Etcd.kv etcd) "pods/a" (Kube.Resource.make_pod "a"));
  Dsim.Engine.run ~until:(Dsim.Engine.now engine + 100_000) engine;
  Alcotest.(check int) "cache caught up" 1 (Kube.Apiserver.rev api);
  match api_call engine net (Kube.Messages.List { prefix = "pods/"; quorum = false }) with
  | Some (Ok (Ok { Kube.Messages.items; _ })) ->
      Alcotest.(check int) "served from cache" 1 (List.length items)
  | _ -> Alcotest.fail "list failed"

let apiserver_stale_when_partitioned () =
  let engine, net, etcd, _api = api_setup () in
  Dsim.Network.partition net "etcd" "api-1";
  ignore (Etcdlike.Kv.put (Kube.Etcd.kv etcd) "pods/late" (Kube.Resource.make_pod "late"));
  Dsim.Engine.run ~until:(Dsim.Engine.now engine + 300_000) engine;
  (* Cached list misses the new pod; quorum read cannot be served. *)
  (match api_call engine net (Kube.Messages.List { prefix = "pods/"; quorum = false }) with
  | Some (Ok (Ok { Kube.Messages.items; _ })) ->
      Alcotest.(check int) "stale cache: no pod" 0 (List.length items)
  | _ -> Alcotest.fail "cached list should still work");
  (* Either the apiserver reports the backend gone, or the whole call
     times out behind it — both are failures to serve a quorum read. *)
  match api_call engine net (Kube.Messages.Get { key = "pods/late"; quorum = true }) with
  | Some (Ok (Error `Unavailable)) | Some (Error _) -> ()
  | _ -> Alcotest.fail "quorum read should fail during partition"

let apiserver_txn_forwarded () =
  let engine, net, etcd, _ = api_setup () in
  (match
     api_call engine net
       (Kube.Messages.Txn
          { txn = Kube.Messages.put "pods/w" (Kube.Resource.make_pod "w"); origin = "client"; lease = None })
   with
  | Some (Ok (Ok { Kube.Messages.succeeded = true; _ })) -> ()
  | _ -> Alcotest.fail "txn failed");
  Alcotest.(check bool) "landed in etcd" true
    (Etcdlike.Kv.get (Kube.Etcd.kv etcd) "pods/w" <> None)

let apiserver_watch_compacted_window () =
  let engine = Dsim.Engine.create () in
  let net = Dsim.Network.create engine in
  let intercept = History.Intercept.create () in
  let etcd = Kube.Etcd.create ~net ~intercept () in
  let api = Kube.Apiserver.create ~net ~intercept ~name:"api-1" ~etcd:"etcd" ~window_size:2 () in
  Kube.Apiserver.start api;
  Dsim.Network.join net "client";
  Dsim.Engine.run ~until:100_000 engine;
  for i = 1 to 6 do
    ignore (Etcdlike.Kv.put (Kube.Etcd.kv etcd) (Printf.sprintf "pods/p%d" i) (Kube.Resource.make_pod "p"))
  done;
  Dsim.Engine.run ~until:400_000 engine;
  let result = ref None in
  Kube.Messages.Store.call net ~src:"client" ~dst:"api-1"
    (Kube.Messages.Watch
       {
         prefix = Some "pods/";
         start_rev = 1;
         subscriber = "client";
         stream_id = "client#pods";
         deliver = (fun _ -> ());
       })
    (fun r -> result := Some r);
  Dsim.Engine.run ~until:1_000_000 engine;
  match !result with
  | Some (Ok (Ok (Kube.Messages.Compacted _))) -> ()
  | _ -> Alcotest.fail "expected window compaction"

let apiserver_restart_relists () =
  let engine, net, etcd, api = api_setup () in
  ignore api;
  ignore (Etcdlike.Kv.put (Kube.Etcd.kv etcd) "pods/a" (Kube.Resource.make_pod "a"));
  Dsim.Engine.run ~until:(Dsim.Engine.now engine + 100_000) engine;
  Dsim.Network.crash net "api-1";
  Alcotest.(check bool) "not ready while down" false (Kube.Apiserver.ready api);
  ignore (Etcdlike.Kv.put (Kube.Etcd.kv etcd) "pods/b" (Kube.Resource.make_pod "b"));
  Dsim.Network.restart net "api-1";
  Dsim.Engine.run ~until:(Dsim.Engine.now engine + 500_000) engine;
  Alcotest.(check bool) "ready again" true (Kube.Apiserver.ready api);
  Alcotest.(check int) "caught up past restart" 2 (Kube.Apiserver.rev api)

(* Regression for the stream table's fan-out: a stream that re-registers
   itself (same stream_id) from inside its own delivery callback replaces
   its table entry while deliveries for it are still in flight. The old
   entry must go silent, the replacement must keep streaming, and the
   fan-out iteration must survive the mutation. Both servers keep their
   subscribers in the one table; run the stream against each. *)
let reregister_from_delivery ~via () =
  let engine = Dsim.Engine.create () in
  let net = Dsim.Network.create engine in
  let intercept = History.Intercept.create () in
  let etcd = Kube.Etcd.create ~net ~intercept () in
  let dst, streams =
    match via with
    | `Etcd -> ("etcd", fun () -> List.length (Kube.Etcd.subscribers etcd))
    | `Apiserver ->
        let api = Kube.Apiserver.create ~net ~intercept ~name:"api-1" ~etcd:"etcd" () in
        Kube.Apiserver.start api;
        ("api-1", fun () -> Kube.Apiserver.subscriber_count api)
  in
  Dsim.Network.join net "client";
  Dsim.Engine.run ~until:100_000 engine;
  let received = ref [] in
  let reregistered = ref false in
  let rec make_watch ~start_rev =
    Kube.Messages.Watch
      {
        prefix = Some "pods/";
        start_rev;
        subscriber = "client";
        stream_id = "client#pods";
        deliver =
          (fun item ->
            match item with
            | Kube.Pipe.Event e ->
                received := e.History.Event.rev :: !received;
                (* Re-subscribe from inside the delivery callback, while
                   this stream's entry is the one being delivered to. *)
                if not !reregistered then begin
                  reregistered := true;
                  Kube.Messages.Store.call net ~src:"client" ~dst
                    (make_watch ~start_rev:e.History.Event.rev)
                    (fun _ -> ())
                end
            | Kube.Pipe.Bookmark _ | Kube.Pipe.Seal _ -> ());
      }
  in
  Kube.Messages.Store.call net ~src:"client" ~dst (make_watch ~start_rev:0) (fun _ -> ());
  Dsim.Engine.run ~until:(Dsim.Engine.now engine + 500_000) engine;
  ignore (Etcdlike.Kv.put (Kube.Etcd.kv etcd) "pods/a" (Kube.Resource.make_pod "a"));
  Dsim.Engine.run ~until:(Dsim.Engine.now engine + 500_000) engine;
  ignore (Etcdlike.Kv.put (Kube.Etcd.kv etcd) "pods/b" (Kube.Resource.make_pod "b"));
  ignore (Etcdlike.Kv.put (Kube.Etcd.kv etcd) "nodes/x" (Kube.Resource.make_node "x"));
  Dsim.Engine.run ~until:(Dsim.Engine.now engine + 1_000_000) engine;
  Alcotest.(check bool) "re-registered" true !reregistered;
  (* rev 1 triggers the re-register; the replacement stream (start_rev 1)
     then carries rev 2; the node event matches neither. No duplicates,
     no lost pod events, exactly one live subscriber. *)
  Alcotest.(check (list int)) "continuous, no duplicates" [ 1; 2 ] (List.rev !received);
  Alcotest.(check int) "single subscriber" 1 (streams ())

(* Lease-driven deletes carry their cause as the revision's origin, on
   both backends, and only for a delete that commits. *)
let replicated = { Kube.Etcd.replicas = 3; read = Replicated.Kv.Leader; read_fallback = `Stale }

let lease_setup ?replication () =
  let engine = Dsim.Engine.create () in
  let net = Dsim.Network.create engine in
  let etcd = Kube.Etcd.create ~net ~intercept:(History.Intercept.create ()) ?replication () in
  Dsim.Network.join net "client";
  (* Long enough for a replicated group to elect its leader. *)
  Dsim.Engine.run ~until:1_000_000 engine;
  (engine, net, etcd)

let leased_lock engine net ~ttl key =
  let lease =
    match call engine net (Kube.Messages.Lease_grant { ttl }) with
    | Some (Ok (Ok id)) -> id
    | _ -> Alcotest.fail "grant failed"
  in
  (match
     call engine net
       (Kube.Messages.Txn
          {
            txn = Kube.Messages.put key (Kube.Resource.make_lock ~holder:"client" key);
            origin = "client";
            lease = Some lease;
          })
   with
  | Some (Ok (Ok { Kube.Messages.succeeded = true; _ })) -> ()
  | _ -> Alcotest.fail "leased txn failed");
  lease

let lease_revoke_labels_delete ?replication () =
  let engine, net, etcd = lease_setup ?replication () in
  let lease = leased_lock engine net ~ttl:10_000_000 "locks/r" in
  (match call engine net (Kube.Messages.Lease_revoke { lease }) with
  | Some (Ok (Ok ())) -> ()
  | _ -> Alcotest.fail "revoke failed");
  Alcotest.(check bool) "key revoked away" true
    (Etcdlike.Kv.get (Kube.Etcd.kv etcd) "locks/r" = None);
  Alcotest.(check int) "the delete is revision 2" 2 (Kube.Etcd.rev etcd);
  Alcotest.(check string) "labelled by the revoke" "lease-revoke" (Kube.Etcd.origin_of_rev etcd 2)

(* The key is deleted before its lease expires: the expiry sweep commits
   nothing, so it must label nothing either. Each [call] runs the engine
   2 s, so the 5 s lease outlives the grant, the leased write and the
   delete, and expires while the delete's call runs. *)
let lease_expiry_of_gone_key_labels_nothing () =
  let engine, net, etcd = lease_setup () in
  let lease = leased_lock engine net ~ttl:5_000_000 "locks/e" in
  (match
     call engine net
       (Kube.Messages.Txn { txn = Kube.Messages.delete "locks/e"; origin = "client"; lease = None })
   with
  | Some (Ok (Ok { Kube.Messages.succeeded = true; rev = 2 })) -> ()
  | _ -> Alcotest.fail "delete failed");
  (match call engine net (Kube.Messages.Lease_keepalive { lease }) with
  | Some (Ok (Ok false)) -> ()
  | _ -> Alcotest.fail "the lease should have expired");
  ignore (Etcdlike.Kv.put (Kube.Etcd.kv etcd) "pods/a" (Kube.Resource.make_pod "a"));
  Alcotest.(check string) "the next revision keeps its own origin" "boot"
    (Kube.Etcd.origin_of_rev etcd 3)

let suites =
  [
    ( "servers",
      [
        Alcotest.test_case "etcd range and txn over rpc" `Quick etcd_range_and_txn;
        Alcotest.test_case "etcd watch streams via pipe" `Quick etcd_watch_streams_via_pipe;
        Alcotest.test_case "etcd watch window compaction" `Quick etcd_watch_window_compaction;
        Alcotest.test_case "apiserver becomes ready and caches" `Quick
          apiserver_becomes_ready_and_caches;
        Alcotest.test_case "apiserver stale when partitioned" `Quick
          apiserver_stale_when_partitioned;
        Alcotest.test_case "apiserver txn forwarded" `Quick apiserver_txn_forwarded;
        Alcotest.test_case "apiserver watch window compaction" `Quick
          apiserver_watch_compacted_window;
        Alcotest.test_case "apiserver restart relists" `Quick apiserver_restart_relists;
        Alcotest.test_case "apiserver re-register from delivery (regression)" `Quick
          (reregister_from_delivery ~via:`Apiserver);
        Alcotest.test_case "etcd re-register from delivery (regression)" `Quick
          (reregister_from_delivery ~via:`Etcd);
        Alcotest.test_case "single etcd: lease revoke labels its delete" `Quick
          lease_revoke_labels_delete;
        Alcotest.test_case "replicated etcd: lease revoke labels its delete" `Quick
          (lease_revoke_labels_delete ~replication:replicated);
        Alcotest.test_case "single etcd: expiry of a gone key labels nothing" `Quick
          lease_expiry_of_gone_key_labels_nothing;
      ] );
  ]
