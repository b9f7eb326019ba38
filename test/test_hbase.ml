(* The second infrastructure: ZooKeeper-style ensemble + HBase-style
   master and region servers. Same partial-history patterns, different
   system — the paper's generality claim. *)

let setup ?(replication_lag = 10_000) ?(sync_before_cas = false) ?(relookup = false)
    ?(servers = 2) () =
  let engine = Dsim.Engine.create ~seed:13L () in
  let net = Dsim.Network.create engine in
  let zk = Hbaselike.Zk.create ~net ~replication_lag () in
  let master =
    Hbaselike.Master.create ~net ~name:"master-1" ~zk
      ~regions:[ "r1"; "r2"; "r3"; "r4" ] ~sync_before_cas ()
  in
  let region_servers =
    List.init servers (fun i ->
        Hbaselike.Regionserver.create ~net
          ~name:(Printf.sprintf "rs-%d" (i + 1))
          ~zk ~relookup_on_failure:relookup ())
  in
  Hbaselike.Master.start master;
  List.iter Hbaselike.Regionserver.start region_servers;
  (engine, net, zk, master, region_servers)

let run_to engine t = Dsim.Engine.run ~until:t engine

let zk_replicates_with_lag () =
  let engine = Dsim.Engine.create () in
  let net = Dsim.Network.create engine in
  let zk = Hbaselike.Zk.create ~net ~replication_lag:50_000 () in
  Dsim.Network.join net "client";
  let done_ = ref false in
  Hbaselike.Zk.write zk ~src:"client" ~key:"a" "1" (fun _ -> done_ := true);
  Dsim.Engine.run ~until:10_000 engine;
  Alcotest.(check bool) "written" true !done_;
  (* Follower still behind before the lag elapses... *)
  Alcotest.(check int) "replica behind" 0 (Hbaselike.Zk.follower_rev zk);
  Dsim.Engine.run ~until:100_000 engine;
  Alcotest.(check int) "replica caught up" 1 (Hbaselike.Zk.follower_rev zk)

let zk_sync_read_is_fresh () =
  let engine = Dsim.Engine.create () in
  let net = Dsim.Network.create engine in
  let zk = Hbaselike.Zk.create ~net ~replication_lag:500_000 () in
  Dsim.Network.join net "client";
  Hbaselike.Zk.write zk ~src:"client" ~key:"a" "1" (fun _ -> ());
  Dsim.Engine.run ~until:20_000 engine;
  let stale = ref None and fresh = ref None in
  Hbaselike.Zk.read zk ~src:"client" "a" (function
    | Ok (v, _) -> stale := Some v
    | Error _ -> ());
  Hbaselike.Zk.read zk ~src:"client" ~sync:true "a" (function
    | Ok (v, _) -> fresh := Some v
    | Error _ -> ());
  Dsim.Engine.run ~until:100_000 engine;
  Alcotest.(check (option (option string))) "cached read misses" (Some None) !stale;
  Alcotest.(check (option (option string))) "synced read sees it" (Some (Some "1")) !fresh

(* Regression: a sync pull from below the leader's compaction frontier
   used to be answered with an empty event list, so the lagging follower
   concluded it was caught up and served stale (here: empty) state. The
   leader must answer with a snapshot, and the follower must resync.
   Parameterized over [hub_order]: the replication stream and the watch
   notifier are both leader commit listeners, and semantics must not
   depend on which one sees a commit first. *)
let zk_compaction_pull_forces_resync ~hub_order () =
  let engine = Dsim.Engine.create () in
  let net = Dsim.Network.create engine in
  (* Replication lag far beyond the test horizon: the follower only ever
     catches up through sync pulls. *)
  let zk =
    Hbaselike.Zk.create ~net ~replication_lag:100_000_000 ~compaction_window:2 ~hub_order ()
  in
  Dsim.Network.join net "client";
  for i = 1 to 6 do
    Hbaselike.Zk.write zk ~src:"client" ~key:(Printf.sprintf "k%d" i)
      (Printf.sprintf "v%d" i)
      (fun _ -> ())
  done;
  Dsim.Engine.run ~until:50_000 engine;
  Alcotest.(check int) "follower has applied nothing" 0 (Hbaselike.Zk.follower_rev zk);
  let synced = ref None in
  (* k1's event is compacted away at the leader (window 2 keeps only the
     last two), so event catch-up cannot reconstruct it. *)
  Hbaselike.Zk.read zk ~src:"client" ~sync:true "k1" (function
    | Ok (v, _) -> synced := Some v
    | Error _ -> ());
  Dsim.Engine.run ~until:150_000 engine;
  Alcotest.(check (option (option string)))
    "sync read past compaction serves the snapshot value" (Some (Some "v1")) !synced;
  Alcotest.(check int) "exactly one full resync" 1 (Hbaselike.Zk.follower_resyncs zk);
  (* Now genuinely caught up: the next sync pull is an ordinary
     event-stream catch-up, not another state transfer. *)
  let again = ref None in
  Hbaselike.Zk.read zk ~src:"client" ~sync:true "k6" (function
    | Ok (v, _) -> again := Some v
    | Error _ -> ());
  Dsim.Engine.run ~until:300_000 engine;
  Alcotest.(check (option (option string))) "subsequent sync read fresh" (Some (Some "v6")) !again;
  Alcotest.(check int) "no second resync" 1 (Hbaselike.Zk.follower_resyncs zk)

let zk_cas_guards () =
  let engine = Dsim.Engine.create () in
  let net = Dsim.Network.create engine in
  let zk = Hbaselike.Zk.create ~net () in
  Dsim.Network.join net "client";
  Hbaselike.Zk.write zk ~src:"client" ~key:"a" "1" (fun _ -> ());
  Dsim.Engine.run ~until:20_000 engine;
  let stale_cas = ref None and fresh_cas = ref None in
  Hbaselike.Zk.cas zk ~src:"client" ~key:"a" ~expected_mod_rev:0 (Some "2") (function
    | Ok ok -> stale_cas := Some ok
    | Error _ -> ());
  Hbaselike.Zk.cas zk ~src:"client" ~key:"a" ~expected_mod_rev:1 (Some "2") (function
    | Ok ok -> fresh_cas := Some ok
    | Error _ -> ());
  Dsim.Engine.run ~until:100_000 engine;
  Alcotest.(check (option bool)) "stale rejected" (Some false) !stale_cas;
  Alcotest.(check (option bool)) "fresh accepted" (Some true) !fresh_cas

let master_assigns_all_regions () =
  let engine, _, zk, master, _ = setup () in
  run_to engine 3_000_000;
  let kv = Hbaselike.Zk.leader_kv zk in
  List.iter
    (fun region ->
      match Etcdlike.Kv.get kv ("region/" ^ region) with
      | Some (server, _) ->
          Alcotest.(check bool) (region ^ " on a live server") true
            (List.mem server [ "rs-1"; "rs-2" ])
      | None -> Alcotest.fail (region ^ " unassigned"))
    [ "r1"; "r2"; "r3"; "r4" ];
  Alcotest.(check bool) "some transitions happened" true (Hbaselike.Master.transitions master >= 4)

let hbase_3136_stale_cas_failures () =
  (* High replication lag + no sync: region transitions keep CASing
     against stale reads and fail; with sync-before-CAS they succeed at
     the cost of extra leader traffic (HBASE-3137). *)
  let failures_with ~sync =
    let engine, _, zk, master, _ = setup ~replication_lag:400_000 ~sync_before_cas:sync () in
    run_to engine 6_000_000;
    (Hbaselike.Master.cas_failures master, Hbaselike.Master.transitions master,
     Hbaselike.Zk.leader_ops zk)
  in
  let buggy_failures, buggy_transitions, buggy_load = failures_with ~sync:false in
  let fixed_failures, fixed_transitions, fixed_load = failures_with ~sync:true in
  Alcotest.(check bool)
    (Printf.sprintf "stale CAS fails often (%d failures)" buggy_failures)
    true (buggy_failures > 5);
  Alcotest.(check bool) "fixed mode converges" true (fixed_transitions >= 4);
  Alcotest.(check bool)
    (Printf.sprintf "fixed mode barely fails (%d vs %d)" fixed_failures buggy_failures)
    true
    (fixed_failures * 3 < buggy_failures);
  Alcotest.(check bool)
    (Printf.sprintf "3137 regression: leader load %d -> %d" buggy_load fixed_load)
    true (fixed_load > buggy_load);
  Alcotest.(check bool) "buggy mode still eventually assigns" true (buggy_transitions >= 4)

let hbase_5755_stale_master_cache () =
  let engine, net, zk, _, region_servers = setup ~servers:1 () in
  run_to engine 2_000_000;
  let rs = List.hd region_servers in
  Alcotest.(check (option string)) "found master-1" (Some "master-1")
    (Hbaselike.Regionserver.cached_master rs);
  (* Fail the master over: master-1 dies, master-2 takes its place and
     publishes itself in ZooKeeper. *)
  Dsim.Network.crash net "master-1";
  let master2 =
    Hbaselike.Master.create ~net ~name:"master-2" ~zk ~regions:[ "r1"; "r2"; "r3"; "r4" ] ()
  in
  Hbaselike.Master.start master2;
  run_to engine 8_000_000;
  (* The bug: the cached address is never re-resolved; the server hammers
     the corpse forever. *)
  Alcotest.(check (option string)) "still pointing at the corpse" (Some "master-1")
    (Hbaselike.Regionserver.cached_master rs);
  Alcotest.(check bool)
    (Printf.sprintf "looking for master forever (%d consecutive failures)"
       (Hbaselike.Regionserver.consecutive_failures rs))
    true
    (Hbaselike.Regionserver.consecutive_failures rs > 10)

let hbase_5755_fix_relookup () =
  let engine, net, zk, _, region_servers = setup ~servers:1 ~relookup:true () in
  run_to engine 2_000_000;
  let rs = List.hd region_servers in
  Dsim.Network.crash net "master-1";
  let master2 =
    Hbaselike.Master.create ~net ~name:"master-2" ~zk ~regions:[ "r1"; "r2"; "r3"; "r4" ] ()
  in
  Hbaselike.Master.start master2;
  run_to engine 8_000_000;
  Alcotest.(check (option string)) "re-resolved to master-2" (Some "master-2")
    (Hbaselike.Regionserver.cached_master rs);
  Alcotest.(check int) "heartbeats flowing again" 0
    (Hbaselike.Regionserver.consecutive_failures rs)

(* --- qcheck differential: Zk op programs vs the sequential model ----

   Random client programs — writes, guarded CAS (fresh and deliberately
   stale), deletes, follower reads (cached and sync), one-shot watch
   arms — run against the fixed-era stack ([follower_leader_revs], so
   read revisions live in the leader's numbering) and are checked
   op-by-op against {!Conformance.Model}, the pure sequential reference.
   Each op quiesces before the next, which is what makes the sequential
   model exact. The conformance monitor mirrors the leader's commits the
   whole time and must stay silent: the fixed era has no partial-history
   defect for it to find.

   Two replication regimes: [`Streamed] (short lag, no compaction — the
   follower catches up through the event stream) and [`Pulled] (lag
   beyond the horizon plus an aggressive compaction window — the
   follower catches up only through sync pulls, routinely crossing the
   compaction frontier and forcing full-state resyncs). *)

let run_zk_program ~regime ops =
  let engine = Dsim.Engine.create ~seed:7L () in
  let net = Dsim.Network.create engine in
  let zk =
    match regime with
    | `Streamed -> Hbaselike.Zk.create ~net ~replication_lag:10_000 ~follower_leader_revs:true ()
    | `Pulled ->
        Hbaselike.Zk.create ~net ~replication_lag:100_000_000 ~compaction_window:3
          ~follower_leader_revs:true ()
  in
  Dsim.Network.join net "client";
  let monitor =
    Conformance.Monitor.create ~track_divergence:false ~on_violation:(fun _ -> ()) ()
  in
  Etcdlike.Kv.on_commit (Hbaselike.Zk.leader_kv zk) (Conformance.Monitor.note_commit monitor);
  let stream = Hbaselike.Zk.follower_name ^ "<-" ^ Hbaselike.Zk.leader_name in
  Hbaselike.Zk.on_follower_apply zk (fun e ->
      Conformance.Monitor.observe_event monitor ~stream e);
  Hbaselike.Zk.on_follower_resync zk (fun rev ->
      Conformance.Monitor.observe_reset monitor ~stream ~rev (Hbaselike.Zk.observed_state zk));
  let model = ref Conformance.Model.empty in
  let agreed = ref true in
  let now = ref 0 in
  let quiesce () =
    now := !now + 50_000;
    Dsim.Engine.run ~until:!now engine
  in
  let vc = ref 0 in
  let fresh_value () =
    incr vc;
    Printf.sprintf "v%d" !vc
  in
  let expect_read key =
    match Conformance.Model.get !model key with Some (v, r) -> (Some v, r) | None -> (None, 0)
  in
  List.iter
    (fun (kind, k) ->
      let key = Printf.sprintf "k%d" k in
      match kind with
      | 0 ->
          let v = fresh_value () in
          let replied = ref false in
          Hbaselike.Zk.write zk ~src:"client" ~key v (fun r -> replied := r = Ok ());
          model := fst (Conformance.Model.put !model key v);
          quiesce ();
          if not !replied then agreed := false
      | (1 | 2 | 3) as c ->
          (* CAS: fresh put, stale put (guard must reject), fresh delete. *)
          let current = match Conformance.Model.get !model key with Some (_, r) -> r | None -> 0 in
          let expected = if c = 2 then current + 1 else current in
          let value = if c = 3 then None else Some (fresh_value ()) in
          let replied = ref None in
          Hbaselike.Zk.cas zk ~src:"client" ~key ~expected_mod_rev:expected value (fun r ->
              replied := Some r);
          let txn =
            match value with
            | Some v -> Etcdlike.Txn.put_if_unchanged ~key ~expected_mod_rev:expected v
            | None -> Etcdlike.Txn.delete_if_unchanged ~key ~expected_mod_rev:expected
          in
          let m, outcome = Conformance.Model.txn !model txn in
          model := m;
          quiesce ();
          if !replied <> Some (Ok outcome.Etcdlike.Txn.succeeded) then agreed := false;
          if c = 2 && outcome.Etcdlike.Txn.succeeded then agreed := false
      | (4 | 5) as c ->
          (* Follower read. Under [`Pulled] only sync reads are modelable
             (a cached read is honestly stale there — the monitor's
             territory, not the sequential model's). *)
          let sync = c = 5 || regime = `Pulled in
          let replied = ref None in
          Hbaselike.Zk.read zk ~src:"client" ~sync key (fun r -> replied := Some r);
          quiesce ();
          if !replied <> Some (Ok (expect_read key)) then agreed := false
      | _ ->
          (* getData(watch=true): the arm reply carries the leader's
             current value and per-key mod-revision. *)
          let replied = ref None in
          Hbaselike.Zk.arm_watch zk ~src:"client" key (fun r -> replied := Some r);
          quiesce ();
          if !replied <> Some (Ok (expect_read key)) then agreed := false)
    ops;
  (* Force a final catch-up so the replica's terminal state is checkable
     under both regimes, then compare every observable. *)
  let final = ref None in
  Hbaselike.Zk.read zk ~src:"client" ~sync:true "k0" (fun r -> final := Some r);
  quiesce ();
  if !final <> Some (Ok (expect_read "k0")) then agreed := false;
  let leader_ok =
    History.State.bindings (Etcdlike.Kv.state (Hbaselike.Zk.leader_kv zk))
    = Conformance.Model.bindings !model
    && Etcdlike.Kv.rev (Hbaselike.Zk.leader_kv zk) = Conformance.Model.rev !model
  in
  (* Follower bindings compare value-by-value: its revision column is
     local numbering by design (the fl_revs side-table is what serves
     leader revisions to readers). *)
  let follower_ok =
    List.map (fun (k, (v, _)) -> (k, v))
      (History.State.bindings (Etcdlike.Kv.state (Hbaselike.Zk.follower_kv zk)))
    = List.map (fun (k, (v, _)) -> (k, v)) (Conformance.Model.bindings !model)
    && Hbaselike.Zk.follower_caught_up_to zk = Conformance.Model.rev !model
  in
  Conformance.Monitor.check_state monitor
    ~subject:(Hbaselike.Zk.follower_name)
    ~rev:(Hbaselike.Zk.follower_caught_up_to zk)
    (Hbaselike.Zk.observed_state zk);
  let silent = Conformance.Monitor.violations monitor = [] in
  !agreed && leader_ok && follower_ok && silent

let gen_zk_program = QCheck.(list_of_size Gen.(1 -- 25) (pair (int_bound 6) (int_bound 3)))

let qcheck_zk_streamed_agrees_with_model =
  QCheck.Test.make ~name:"zk op programs agree with the sequential model (streamed)" ~count:60
    gen_zk_program
    (fun ops -> run_zk_program ~regime:`Streamed ops)

let qcheck_zk_pulled_agrees_with_model =
  QCheck.Test.make ~name:"zk op programs agree with the sequential model (pulled, resyncs)"
    ~count:60 gen_zk_program
    (fun ops -> run_zk_program ~regime:`Pulled ops)

let suites =
  [
    ( "hbase",
      [
        Alcotest.test_case "zk replicates with lag" `Quick zk_replicates_with_lag;
        Alcotest.test_case "zk sync read is fresh" `Quick zk_sync_read_is_fresh;
        Alcotest.test_case "zk compaction pull forces resync (replication-first hub)" `Quick
          (zk_compaction_pull_forces_resync ~hub_order:Hbaselike.Zk.Replication_first);
        Alcotest.test_case "zk compaction pull forces resync (watches-first hub)" `Quick
          (zk_compaction_pull_forces_resync ~hub_order:Hbaselike.Zk.Watches_first);
        Qcheck_util.to_alcotest qcheck_zk_streamed_agrees_with_model;
        Qcheck_util.to_alcotest qcheck_zk_pulled_agrees_with_model;
        Alcotest.test_case "zk cas guards" `Quick zk_cas_guards;
        Alcotest.test_case "master assigns all regions" `Quick master_assigns_all_regions;
        Alcotest.test_case "HBASE-3136: stale CAS failures (+3137 cost)" `Quick
          hbase_3136_stale_cas_failures;
        Alcotest.test_case "HBASE-5755: stale master cache loops forever" `Quick
          hbase_5755_stale_master_cache;
        Alcotest.test_case "HBASE-5755 fix: re-lookup on failure" `Quick hbase_5755_fix_relookup;
      ] );
  ]
