(* The replicated store: Raft-lite under Etcdlike. Leader-read
   convergence, crash-recovery catch-up, injectable follower staleness,
   the full kube stack over the replicated backend, and the qcheck
   differential against the sequential reference model. *)

module RKv = Replicated.Kv

let setup ?(seed = 11L) ?(n = 3) ?read ?fallback ?(canonical = ignore) () =
  let engine = Dsim.Engine.create ~seed () in
  let net = Dsim.Network.create engine in
  let kv : string RKv.t = RKv.create ~net ~n ?read ?fallback ~canonical () in
  RKv.start kv;
  (engine, net, kv)

let replica_rev kv id = Etcdlike.Kv.rev (List.assoc id (RKv.replicas kv))

let replica_revs replicas = List.map (fun (id, store) -> (id, Etcdlike.Kv.rev store)) replicas

(* A routed read: the items under [prefix] and the serving replica's
   revision, [None] when no replica serves [src]. *)
let range kv ~src ~prefix =
  Option.map
    (fun (_, store) -> (Etcdlike.Kv.range store ~prefix, Etcdlike.Kv.rev store))
    (RKv.route kv ~src)

let serving_replica kv ~src = Option.map fst (RKv.route kv ~src)

let run_for engine us = Dsim.Engine.run ~until:(Dsim.Engine.now engine + us) engine

let await ?(timeout = 3_000_000) engine result =
  let deadline = Dsim.Engine.now engine + timeout in
  while !result = None && Dsim.Engine.now engine < deadline do
    run_for engine 10_000
  done;
  match !result with Some r -> r | None -> Alcotest.fail "proposal never resolved"

let put_sync engine kv key value =
  let result = ref None in
  RKv.put kv key value (fun r -> result := Some r);
  match await engine result with
  | Ok e -> e
  | Error `Unavailable -> Alcotest.fail (Printf.sprintf "put %s unavailable" key)

let txn_sync engine kv txn =
  let result = ref None in
  RKv.txn kv txn (fun r -> result := Some r);
  match await engine result with
  | Ok outcome -> outcome
  | Error `Unavailable -> Alcotest.fail "txn unavailable"

let delete_sync engine kv key =
  txn_sync engine kv
    { Etcdlike.Txn.guards = []; success = [ Etcdlike.Txn.Delete key ]; failure = [] }

(* --- basic replication --------------------------------------------- *)

let favored_first_leader () =
  let engine, _, kv = setup () in
  run_for engine 1_000_000;
  Alcotest.(check (option string)) "etcd-1 leads" (Some "etcd-1") (RKv.leader kv)

let leader_commits_and_replicas_converge () =
  let engine, _, kv = setup () in
  run_for engine 1_000_000;
  let e1 = put_sync engine kv "pods/a" "1" in
  Alcotest.(check int) "first committed rev" 1 e1.History.Event.rev;
  ignore (put_sync engine kv "pods/b" "2");
  ignore (delete_sync engine kv "pods/a");
  Alcotest.(check int) "canonical rev" 3 (Etcdlike.Kv.rev (RKv.canonical_store kv));
  (* A couple of heartbeats later every replica has applied everything. *)
  run_for engine 300_000;
  List.iter
    (fun (id, rev) -> Alcotest.(check int) (id ^ " caught up") 3 rev)
    (replica_revs (RKv.replicas kv));
  Alcotest.(check (option string)) "state has b"
    (Some "2")
    (History.State.get (Etcdlike.Kv.state (RKv.canonical_store kv)) "pods/b");
  Alcotest.(check bool) "a deleted" false
    (History.State.mem (Etcdlike.Kv.state (RKv.canonical_store kv)) "pods/a")

let seed_reaches_every_replica () =
  let commits = ref [] in
  let engine, _, kv = setup ~canonical:(fun e -> commits := e.History.Event.rev :: !commits) () in
  let e = RKv.seed kv "nodes/node-1" "n1" in
  Alcotest.(check int) "seed rev" 1 e.History.Event.rev;
  Alcotest.(check (list int)) "canonical stream saw the seed" [ 1 ] !commits;
  List.iter
    (fun (id, rev) -> Alcotest.(check int) (id ^ " seeded") 1 rev)
    (replica_revs (RKv.replicas kv));
  run_for engine 1_000_000;
  ignore (put_sync engine kv "pods/a" "1");
  Alcotest.(check int) "rev continues dense" 2 (Etcdlike.Kv.rev (RKv.canonical_store kv))

let crashed_replica_catches_up_after_restart () =
  let engine, net, kv = setup () in
  run_for engine 1_000_000;
  ignore (put_sync engine kv "pods/a" "1");
  run_for engine 200_000;
  Dsim.Network.crash net "etcd-3";
  ignore (put_sync engine kv "pods/b" "2");
  ignore (put_sync engine kv "pods/c" "3");
  run_for engine 300_000;
  Alcotest.(check int) "etcd-3 frozen while down" 1 (replica_rev kv "etcd-3");
  Dsim.Network.restart net "etcd-3";
  run_for engine 500_000;
  Alcotest.(check int) "etcd-3 caught up" 3 (replica_rev kv "etcd-3");
  (* The shorter log replayed into the same canonical history. *)
  ignore (Raftlite.Group.committed_prefix (RKv.group kv))

let partitioned_follower_serves_stale_reads () =
  let engine, net, kv = setup ~read:(RKv.Follower "etcd-3") () in
  run_for engine 1_000_000;
  ignore (put_sync engine kv "pods/a" "1");
  run_for engine 300_000;
  Dsim.Network.partition net "etcd-3" "etcd-1";
  Dsim.Network.partition net "etcd-3" "etcd-2";
  ignore (put_sync engine kv "pods/b" "2");
  ignore (put_sync engine kv "pods/c" "3");
  (* Still up, still serving — at the pre-partition revision. *)
  let items, rev = Option.get (range kv ~src:"reader" ~prefix:"pods/") in
  Alcotest.(check int) "stale rev" 1 rev;
  Alcotest.(check int) "stale item count" 1 (List.length items);
  Alcotest.(check int) "canonical moved on" 3 (Etcdlike.Kv.rev (RKv.canonical_store kv));
  Dsim.Network.heal net "etcd-3" "etcd-1";
  Dsim.Network.heal net "etcd-3" "etcd-2";
  run_for engine 500_000;
  let _, rev = Option.get (range kv ~src:"reader" ~prefix:"pods/") in
  Alcotest.(check int) "healed view is fresh" 3 rev

let crashed_replica_fallback_policies () =
  let engine, net, kv = setup ~read:(RKv.Follower "etcd-2") ~fallback:`Reject () in
  run_for engine 1_000_000;
  ignore (put_sync engine kv "pods/a" "1");
  Dsim.Network.crash net "etcd-2";
  Alcotest.(check (option string)) "reject: no serving replica" None
    (serving_replica kv ~src:"reader");
  Alcotest.(check bool) "reject: read unavailable" true (range kv ~src:"reader" ~prefix:"" = None);
  let engine, net, kv = setup ~read:(RKv.Follower "etcd-2") ~fallback:`Stale () in
  run_for engine 1_000_000;
  ignore (put_sync engine kv "pods/a" "1");
  Dsim.Network.crash net "etcd-2";
  Alcotest.(check (option string)) "stale: lowest live replica serves" (Some "etcd-1")
    (serving_replica kv ~src:"reader")

let spread_is_sticky_per_source () =
  let _, _, kv = setup ~read:RKv.Spread () in
  let a = serving_replica kv ~src:"api-1" in
  Alcotest.(check (option string)) "sticky" a (serving_replica kv ~src:"api-1");
  Alcotest.(check bool) "some replica" true (a <> None)

let minority_leader_cannot_commit () =
  let engine, net, kv = setup () in
  run_for engine 1_000_000;
  ignore (put_sync engine kv "pods/a" "1");
  (* Isolate the leader with a client: proposals reach it but can never
     commit; the deadline fails them over as an outage. *)
  Dsim.Network.partition net "etcd-1" "etcd-2";
  Dsim.Network.partition net "etcd-1" "etcd-3";
  let result = ref None in
  RKv.txn kv
    { Etcdlike.Txn.guards = []; success = [ Etcdlike.Txn.Put ("pods/b", "2") ]; failure = [] }
    (fun r -> result := Some r);
  (match await ~timeout:4_000_000 engine result with
  | Error `Unavailable -> ()
  | Ok _ ->
      (* The retry loop may legally land the proposal on the majority's
         new leader once one is elected — also fine; what is not fine is
         a commit through the minority leader alone. *)
      Alcotest.(check bool)
        "committed via majority" true
        (Etcdlike.Kv.rev (RKv.canonical_store kv) >= 2));
  Alcotest.(check int) "minority replica did not apply alone" 1 (replica_rev kv "etcd-1")

(* --- qcheck differential vs the sequential reference model --------- *)

type op =
  | Put of string * string
  | Delete of string
  | Cas of string * int * string  (* put_if_unchanged *)
  | Create of string * string  (* create_if_absent *)

let op_gen =
  let open QCheck.Gen in
  let key = map (Printf.sprintf "pods/p%d") (int_range 0 4) in
  let value = map string_of_int (int_range 0 99) in
  frequency
    [
      (4, map2 (fun k v -> Put (k, v)) key value);
      (2, map (fun k -> Delete k) key);
      (2, map3 (fun k r v -> Cas (k, r, v)) key (int_range 0 12) value);
      (2, map2 (fun k v -> Create (k, v)) key value);
    ]

let txn_of_op = function
  | Put (k, v) ->
      { Etcdlike.Txn.guards = []; success = [ Etcdlike.Txn.Put (k, v) ]; failure = [] }
  | Delete k ->
      { Etcdlike.Txn.guards = []; success = [ Etcdlike.Txn.Delete k ]; failure = [] }
  | Cas (k, r, v) -> Etcdlike.Txn.put_if_unchanged ~key:k ~expected_mod_rev:r v
  | Create (k, v) -> Etcdlike.Txn.create_if_absent ~key:k v

(* Leader reads, no faults: a program of transactions through the
   replicated store must agree with the pure sequential model on every
   observable, and the canonical commit stream must replay into the
   model's event list exactly. *)
let replicated_agrees_with_model ops =
  let canonical = ref [] in
  let engine, _, kv = setup ~seed:23L ~canonical:(fun e -> canonical := e :: !canonical) () in
  run_for engine 1_000_000;
  let model = ref Conformance.Model.empty in
  List.iter
    (fun op ->
      let txn = txn_of_op op in
      let outcome = txn_sync engine kv txn in
      let model', expected = Conformance.Model.txn !model txn in
      model := model';
      if outcome.Etcdlike.Txn.succeeded <> expected.Etcdlike.Txn.succeeded then
        QCheck.Test.fail_reportf "outcome disagreement";
      if outcome.Etcdlike.Txn.rev <> expected.Etcdlike.Txn.rev then
        QCheck.Test.fail_reportf "rev disagreement: %d vs model %d" outcome.Etcdlike.Txn.rev
          expected.Etcdlike.Txn.rev)
    ops;
  let leader_read = Option.get (range kv ~src:"reader" ~prefix:"") in
  fst leader_read = Conformance.Model.range !model ~prefix:""
  && Etcdlike.Kv.rev (RKv.canonical_store kv) = Conformance.Model.rev !model
  && List.rev !canonical = Conformance.Model.events !model

let qcheck_differential =
  QCheck.Test.make ~name:"replicated store vs sequential model (leader reads, no faults)"
    ~count:30
    QCheck.(make ~print:(fun l -> string_of_int (List.length l)) (QCheck.Gen.list_size (QCheck.Gen.int_range 1 25) op_gen))
    replicated_agrees_with_model

(* --- the kube stack over the replicated backend -------------------- *)

let replicated_config =
  {
    Kube.Cluster.default_config with
    Kube.Cluster.nodes = 2;
    replication =
      Some { Kube.Etcd.read = RKv.Leader; read_fallback = `Stale };
  }

let kube_stack_over_replicated_store () =
  let cluster = Kube.Cluster.create ~config:replicated_config () in
  let oracle = Sieve.Oracle.attach cluster in
  let hooks = Conformance.Handle.of_kube (Conformance.Hooks.attach cluster) in
  Kube.Cluster.start cluster;
  Kube.Workload.schedule cluster
    (Kube.Workload.rolling_upgrade ~start:1_000_000 ~pod:"p1" ~from_node:"node-1"
       ~to_node:"node-2" ());
  Kube.Cluster.run cluster ~until:8_000_000;
  Conformance.Handle.finish hooks;
  Alcotest.(check (list string)) "oracle clean" []
    (List.map (fun (_, v) -> Sieve.Oracle.describe v) (Sieve.Oracle.violations oracle));
  Alcotest.(check (list string)) "monitor silent" []
    (List.map Conformance.Monitor.describe (Conformance.Handle.violations hooks));
  let truth = Kube.Cluster.truth cluster in
  (match History.State.get truth "pods/p1" with
  | Some (Kube.Resource.Pod p) ->
      Alcotest.(check (option string)) "p1 on node-2" (Some "node-2") p.Kube.Resource.node
  | _ -> Alcotest.fail "p1 missing from truth");
  (* Replicas and apiservers all converge on the canonical history. *)
  List.iter
    (fun (id, rev) ->
      Alcotest.(check int) (id ^ " converged") (Kube.Cluster.truth_rev cluster) rev)
    (replica_revs (Kube.Etcd.replicas (Kube.Cluster.etcd cluster)));
  List.iter
    (fun a ->
      Alcotest.(check int)
        (Kube.Apiserver.name a ^ " converged")
        (Kube.Cluster.truth_rev cluster) (Kube.Apiserver.rev a))
    (Kube.Cluster.apiservers cluster)

(* An etcd watch stream served by a follower (Follower read mode) is
   pinned to it: it sees exactly that follower's applies, lagging with
   it and resuming with it, and heartbeats the follower's frontier until
   the follower goes down. *)
let per_replica_watch_follows_applies () =
  let engine = Dsim.Engine.create ~seed:11L () in
  let net = Dsim.Network.create engine in
  let etcd =
    Kube.Etcd.create ~net ~intercept:(History.Intercept.create ())
      ~replication:
        { Kube.Etcd.read = RKv.Follower "etcd-3"; read_fallback = `Reject }
      ()
  in
  Dsim.Network.join net "client";
  run_for engine 1_000_000;
  let call request =
    let result = ref None in
    Kube.Messages.Store.call ~src:(Dsim.Network.peer net "client")
      ~dst:(Dsim.Network.peer net "etcd") request (fun r -> result := Some r);
    match await engine result with
    | Ok (Ok reply) -> reply
    | Ok (Error `Unavailable) | Error _ -> Alcotest.fail "etcd request failed"
  in
  let seen = ref [] and bookmarks = ref [] in
  (match
     call
       (Kube.Messages.Watch
          {
            prefix = None;
            start_rev = 0;
            subscriber = "client";
            stream_id = "client#all";
            deliver =
              (function
              | Kube.Pipe.Event e -> seen := e.History.Event.rev :: !seen
              | Kube.Pipe.Bookmark rev -> bookmarks := rev :: !bookmarks
              | Kube.Pipe.Seal _ -> ());
          })
   with
  | Kube.Messages.Watching -> ()
  | Kube.Messages.Compacted _ -> Alcotest.fail "watch from 0 compacted");
  let put key =
    let txn = Kube.Messages.put key (Kube.Resource.make_pod key) in
    ignore (call (Kube.Messages.Txn { txn; origin = "client"; lease = None }))
  in
  put "pods/a";
  put "pods/b";
  run_for engine 1_000_000;
  (* Cut replication to etcd-3: its stream stops with it, yet keeps
     heartbeating the stale frontier, so the subscriber cannot tell. *)
  Dsim.Network.partition net "etcd-1" "etcd-3";
  Dsim.Network.partition net "etcd-2" "etcd-3";
  put "pods/c";
  bookmarks := [];
  run_for engine 1_000_000;
  Alcotest.(check int) "the committed history moved on" 3 (Kube.Etcd.rev etcd);
  Alcotest.(check (list int)) "follower stream froze with its replica" [ 1; 2 ] (List.rev !seen);
  Alcotest.(check bool) "frozen stream heartbeats its stale frontier" true
    (!bookmarks <> [] && List.for_all (( = ) 2) !bookmarks);
  (* Replication heals; the pinned stream resumes without re-registering. *)
  Dsim.Network.heal net "etcd-1" "etcd-3";
  Dsim.Network.heal net "etcd-2" "etcd-3";
  run_for engine 2_000_000;
  Alcotest.(check (list int)) "follower stream caught up" [ 1; 2; 3 ] (List.rev !seen);
  Alcotest.(check (option int)) "heartbeat caught up" (Some 3) (List.nth_opt !bookmarks 0);
  (* A crashed replica serves nothing, heartbeats included. *)
  Dsim.Network.crash net "etcd-3";
  run_for engine 100_000;
  bookmarks := [];
  run_for engine 1_000_000;
  Alcotest.(check (list int)) "crashed replica's stream is silent" [] !bookmarks

(* A leased key goes with its lease even when the store loses quorum
   first. With every replica link cut, neither a revoke nor an expiry
   can commit the key's delete: a revoke answers [`Unavailable] and the
   store keeps the lease, and an expiry retries on a later tick. Once
   replication heals, the key is gone within a few seconds. *)
let lease_deletes_survive_lost_quorum () =
  List.iter
    (fun revoke ->
      let name = if revoke then "revoked" else "expired" in
      let engine = Dsim.Engine.create ~seed:11L () in
      let net = Dsim.Network.create engine in
      let etcd =
        Kube.Etcd.create ~net ~intercept:(History.Intercept.create ())
          ~replication:{ Kube.Etcd.read = RKv.Leader; read_fallback = `Reject }
          ()
      in
      Dsim.Network.join net "client";
      run_for engine 1_000_000;
      let send ?timeout request k =
        Kube.Messages.Store.call ~src:(Dsim.Network.peer net "client")
          ~dst:(Dsim.Network.peer net "etcd") ?timeout request k
      in
      let call request =
        let result = ref None in
        send request (fun r -> result := Some r);
        match await engine result with
        | Ok (Ok reply) -> reply
        | Ok (Error `Unavailable) | Error _ -> Alcotest.fail "etcd request failed"
      in
      let lease = call (Kube.Messages.Lease_grant { ttl = 1_000_000 }) in
      let lock = Kube.Resource.make_lock ~holder:"client" "r" in
      ignore
        (call
           (Kube.Messages.Txn
              {
                txn = Etcdlike.Txn.create_if_absent ~key:"locks/r" lock;
                origin = "client";
                lease = Some lease;
              }));
      let held () = Etcdlike.Kv.get (Kube.Etcd.kv etcd) "locks/r" <> None in
      Alcotest.(check bool) (name ^ ": leased key written") true (held ());
      let links = [ ("etcd-1", "etcd-2"); ("etcd-1", "etcd-3"); ("etcd-2", "etcd-3") ] in
      List.iter (fun (a, b) -> Dsim.Network.partition net a b) links;
      let revoked = ref None in
      (* The store answers once the deletes' proposals give up, after
         the default 1 s call timeout. *)
      if revoke then
        send ~timeout:3_000_000 (Kube.Messages.Lease_revoke { lease }) (fun r ->
            revoked := Some r);
      run_for engine 3_000_000;
      if revoke then
        Alcotest.(check bool) (name ^ ": revoke answers unavailable") true
          (!revoked = Some (Ok (Error `Unavailable)));
      Alcotest.(check bool) (name ^ ": key kept while nothing commits") true (held ());
      List.iter (fun (a, b) -> Dsim.Network.heal net a b) links;
      run_for engine 3_000_000;
      Alcotest.(check bool) (name ^ ": key gone after healing") false (held ()))
    [ true; false ]

(* Provenance under replication: a replica's watch push to an apiserver,
   whether that replica applied the revision first or lagged behind, is
   caused by the revision's commit anchor, as under the single store.
   The detail of a first-hop delivery reads "etcd->api-N @REV op key". *)
let replica_pushes_caused_by_their_commit () =
  List.iter
    (fun (case : Sieve.Bugs.case) ->
      List.iter
        (fun (variant, test_of) ->
          let o = Sieve.Runner.run_test (test_of case) in
          let trace = Sieve.Substrate.trace o.Sieve.Runner.live in
          let feed = Sieve.Substrate.commits o.Sieve.Runner.live in
          let name = Printf.sprintf "%s %s" case.Sieve.Bugs.id variant in
          let first_hops =
            List.filter_map
              (fun (e : Dsim.Trace.entry) ->
                match String.split_on_char ' ' e.Dsim.Trace.detail with
                | edge :: rev :: _
                  when String.starts_with ~prefix:"etcd->api-" edge
                       && String.starts_with ~prefix:"@" rev ->
                    Some (e, int_of_string (String.sub rev 1 (String.length rev - 1)))
                | _ -> None)
              (Dsim.Trace.find_all trace ~kind:"pipe.deliver")
          in
          Alcotest.(check bool) (name ^ ": apiservers were served") true (first_hops <> []);
          List.iter
            (fun ((e : Dsim.Trace.entry), rev) ->
              let cause = Option.bind e.Dsim.Trace.cause (fun id -> Dsim.Trace.find trace ~id) in
              Alcotest.(check (option string))
                (Printf.sprintf "%s: #%d caused by an etcd.commit" name e.Dsim.Trace.id)
                (Some "etcd.commit")
                (Option.map (fun (c : Dsim.Trace.entry) -> c.Dsim.Trace.kind) cause);
              Alcotest.(check (option int))
                (Printf.sprintf "%s: #%d caused by the anchor of @%d" name e.Dsim.Trace.id rev)
                (Etcdlike.Commits.anchor feed ~rev) e.Dsim.Trace.cause)
            first_hops)
        [
          ("bug", Sieve.Bugs.test_of_case);
          ("reference", Sieve.Bugs.reference_test_of_case);
          ("fixed", Fixture.fixed_test_of_case);
        ])
    (Sieve.Bugs.replicated ())

let suites =
  [
    ( "replicated",
      [
        Alcotest.test_case "favored first leader" `Quick favored_first_leader;
        Alcotest.test_case "leader commits, replicas converge" `Quick
          leader_commits_and_replicas_converge;
        Alcotest.test_case "seed reaches every replica" `Quick seed_reaches_every_replica;
        Alcotest.test_case "crashed replica catches up" `Quick
          crashed_replica_catches_up_after_restart;
        Alcotest.test_case "partitioned follower serves stale reads" `Quick
          partitioned_follower_serves_stale_reads;
        Alcotest.test_case "crashed replica fallback policies" `Quick
          crashed_replica_fallback_policies;
        Alcotest.test_case "spread is sticky" `Quick spread_is_sticky_per_source;
        Alcotest.test_case "minority leader cannot commit" `Quick minority_leader_cannot_commit;
        Qcheck_util.to_alcotest qcheck_differential;
        Alcotest.test_case "kube stack over replicated store" `Quick
          kube_stack_over_replicated_store;
        Alcotest.test_case "per-replica watch stream follows applies" `Quick
          per_replica_watch_follows_applies;
        Alcotest.test_case "replica pushes are caused by their commit" `Quick
          replica_pushes_caused_by_their_commit;
        Alcotest.test_case "lease deletes survive a lost quorum" `Quick
          lease_deletes_survive_lost_quorum;
      ] );
  ]
