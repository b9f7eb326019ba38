(* The component write/read client: retries, rotation, quorum reads,
   lease operations. *)

let setup () =
  let engine = Dsim.Engine.create () in
  let net = Dsim.Network.create engine in
  let intercept = History.Intercept.create () in
  let etcd = Kube.Etcd.create ~net ~intercept () in
  let apis =
    List.map
      (fun name ->
        let api = Kube.Apiserver.create ~net ~intercept ~name ~etcd:"etcd" () in
        Kube.Apiserver.start api;
        api)
      [ "api-1"; "api-2" ]
  in
  Dsim.Network.join net "comp";
  let client = Kube.Client.create ~net ~owner:"comp" ~endpoints:[ "api-1"; "api-2" ] () in
  Dsim.Engine.run ~until:100_000 engine;
  (engine, net, etcd, apis, client)

let run_for engine us = Dsim.Engine.run ~until:(Dsim.Engine.now engine + us) engine

let txn_reaches_etcd () =
  let engine, _, etcd, _, client = setup () in
  let result = ref None in
  Kube.Client.txn client (Kube.Messages.put "pods/a" (Kube.Resource.make_pod "a")) (fun r ->
      result := Some r);
  run_for engine 500_000;
  (match !result with
  | Some (Ok { Kube.Messages.succeeded = true; rev }) -> Alcotest.(check int) "rev 1" 1 rev
  | _ -> Alcotest.fail "txn failed");
  Alcotest.(check bool) "in etcd" true (Etcdlike.Kv.get (Kube.Etcd.kv etcd) "pods/a" <> None)

let rotates_past_dead_endpoint () =
  let engine, net, etcd, _, client = setup () in
  Dsim.Network.crash net "api-1";
  Kube.Client.txn_ client (Kube.Messages.put "pods/b" (Kube.Resource.make_pod "b"));
  run_for engine 5_000_000;
  Alcotest.(check bool) "committed via api-2" true
    (Etcdlike.Kv.get (Kube.Etcd.kv etcd) "pods/b" <> None)

let reports_unavailable_when_all_dead () =
  let engine, net, _, _, client = setup () in
  Dsim.Network.crash net "api-1";
  Dsim.Network.crash net "api-2";
  let result = ref None in
  Kube.Client.txn client (Kube.Messages.put "pods/c" (Kube.Resource.make_pod "c")) (fun r ->
      result := Some r);
  run_for engine 10_000_000;
  match !result with
  | Some (Error `Unavailable) -> ()
  | _ -> Alcotest.fail "expected Unavailable"

let quorum_get_reads_truth () =
  let engine, _, etcd, _, client = setup () in
  ignore (Etcdlike.Kv.put (Kube.Etcd.kv etcd) "nodes/n" (Kube.Resource.make_node "n"));
  let result = ref None in
  Kube.Client.get_quorum client "nodes/n" (fun r -> result := Some r);
  run_for engine 500_000;
  match !result with
  | Some (Ok (Some (Kube.Resource.Node _, 1))) -> ()
  | _ -> Alcotest.fail "expected the node at mod rev 1"

let list_quorum_reads_truth () =
  let engine, _, etcd, _, client = setup () in
  ignore (Etcdlike.Kv.put (Kube.Etcd.kv etcd) "pods/x" (Kube.Resource.make_pod "x"));
  ignore (Etcdlike.Kv.put (Kube.Etcd.kv etcd) "pods/y" (Kube.Resource.make_pod "y"));
  let result = ref None in
  Kube.Client.list_quorum client ~prefix:"pods/" (fun r -> result := Some r);
  run_for engine 500_000;
  match !result with
  | Some (Ok items) -> Alcotest.(check int) "two pods" 2 (List.length items)
  | _ -> Alcotest.fail "list failed"

let lease_lifecycle () =
  let engine, _, etcd, _, client = setup () in
  let lease = ref None in
  Kube.Client.lease_grant client ~ttl:1_000_000 (function
    | Ok id -> lease := Some id
    | Error _ -> ());
  run_for engine 300_000;
  let id = Option.get !lease in
  (* Attach a key via a leased txn. *)
  let ok = ref false in
  Kube.Client.txn ~lease:id client
    (Etcdlike.Txn.create_if_absent ~key:"locks/t" (Kube.Resource.make_lock ~holder:"comp" "t"))
    (fun r -> ok := (match r with Ok { Kube.Messages.succeeded = true; _ } -> true | _ -> false));
  run_for engine 300_000;
  Alcotest.(check bool) "acquired" true !ok;
  Alcotest.(check bool) "key exists" true (Etcdlike.Kv.get (Kube.Etcd.kv etcd) "locks/t" <> None);
  (* Keepalive works while alive. *)
  let alive = ref None in
  Kube.Client.lease_keepalive client ~lease:id (function
    | Ok v -> alive := Some v
    | Error _ -> ());
  run_for engine 300_000;
  Alcotest.(check (option bool)) "keepalive ok" (Some true) !alive;
  (* Stop renewing: the store expires the lease and deletes the key. *)
  run_for engine 2_500_000;
  Alcotest.(check bool) "key expired away" true
    (Etcdlike.Kv.get (Kube.Etcd.kv etcd) "locks/t" = None);
  let gone = ref None in
  Kube.Client.lease_keepalive client ~lease:id (function
    | Ok v -> gone := Some v
    | Error _ -> ());
  run_for engine 300_000;
  Alcotest.(check (option bool)) "keepalive reports gone" (Some false) !gone

let lease_revoke_deletes_keys () =
  let engine, _, etcd, _, client = setup () in
  let lease = ref None in
  Kube.Client.lease_grant client ~ttl:10_000_000 (function
    | Ok id -> lease := Some id
    | Error _ -> ());
  run_for engine 300_000;
  let id = Option.get !lease in
  Kube.Client.txn_ ~lease:id client
    (Etcdlike.Txn.create_if_absent ~key:"locks/r" (Kube.Resource.make_lock ~holder:"comp" "r"));
  run_for engine 300_000;
  Kube.Client.lease_revoke client ~lease:id;
  run_for engine 300_000;
  Alcotest.(check bool) "key revoked away" true
    (Etcdlike.Kv.get (Kube.Etcd.kv etcd) "locks/r" = None)

let suites =
  [
    ( "client",
      [
        Alcotest.test_case "txn reaches etcd" `Quick txn_reaches_etcd;
        Alcotest.test_case "rotates past dead endpoint" `Quick rotates_past_dead_endpoint;
        Alcotest.test_case "reports unavailable when all dead" `Quick
          reports_unavailable_when_all_dead;
        Alcotest.test_case "quorum get reads truth" `Quick quorum_get_reads_truth;
        Alcotest.test_case "list quorum reads truth" `Quick list_quorum_reads_truth;
        Alcotest.test_case "lease lifecycle" `Quick lease_lifecycle;
        Alcotest.test_case "lease revoke deletes keys" `Quick lease_revoke_deletes_keys;
      ] );
  ]
