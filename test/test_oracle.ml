(* Oracle detection logic, driven by targeted perturbations. *)

let case_runs ~config ~workload ~horizon strategy =
  Sieve.Runner.run_test (Sieve.Runner.base_test ~config ~workload ~horizon strategy)

let violation_metadata () =
  let v = Sieve.Oracle.Duplicate_pod { pod = "p"; kubelets = [ "a"; "b" ] } in
  Alcotest.(check string) "bug id" "K8s-59848" (Sieve.Oracle.bug_id v);
  Alcotest.(check string) "key" "dup:p" (Sieve.Oracle.key v);
  Alcotest.(check bool) "describe" true (String.length (Sieve.Oracle.describe v) > 0);
  Alcotest.(check string) "livelock id" "K8s-56261"
    (Sieve.Oracle.bug_id (Sieve.Oracle.Scheduler_livelock { pod = "p"; node = "n"; failures = 9 }));
  Alcotest.(check string) "leak id" "CA-398"
    (Sieve.Oracle.bug_id (Sieve.Oracle.Pvc_leak { pvc = "v"; owner_pod = "p" }));
  Alcotest.(check string) "decom id" "CA-400"
    (Sieve.Oracle.bug_id (Sieve.Oracle.Wrong_decommission { dc = "d"; marked = 1; live_max = 2 }));
  Alcotest.(check string) "claim id" "CA-402"
    (Sieve.Oracle.bug_id (Sieve.Oracle.Live_claim_deleted { pvc = "v"; owner_pod = "p" }))

let clean_run_no_violations () =
  let outcome =
    case_runs ~config:Kube.Cluster.default_config
      ~workload:(Kube.Workload.pod_churn ~n:3 ())
      ~horizon:8_000_000 Sieve.Strategy.No_perturbation
  in
  Alcotest.(check int) "clean" 0 (List.length outcome.Sieve.Runner.violations)

let transient_duplicate_not_flagged () =
  (* A short partition makes kubelet-1 miss a deletion; the duplicate
     self-heals when the stream watchdog re-lists. The oracle must stay
     quiet: this is degradation, not the 59848 safety bug. *)
  let config = { Kube.Cluster.default_config with Kube.Cluster.nodes = 2 } in
  let outcome =
    case_runs ~config
      ~workload:
        (Kube.Workload.rolling_upgrade ~start:1_000_000 ~pod:"p1" ~from_node:"node-1"
           ~to_node:"node-2" ())
      ~horizon:8_000_000
      (Sieve.Strategy.Partition_window
         { a = "kubelet-1"; b = "api-1"; from = 2_900_000; until = 3_600_000 })
  in
  Alcotest.(check int) "quiet" 0 (List.length outcome.Sieve.Runner.violations)

let persistent_duplicate_flagged () =
  let case = Sieve.Bugs.k8s_59848 () in
  let outcome = Sieve.Runner.run_test (Sieve.Bugs.test_of_case case) in
  match Sieve.Runner.(outcome.violations) with
  | (_, Sieve.Oracle.Duplicate_pod { pod = "p1"; kubelets }) :: _ ->
      Alcotest.(check (list string)) "both kubelets" [ "kubelet-1"; "kubelet-2" ] kubelets
  | _ -> Alcotest.fail "expected duplicate pod violation"

let livelock_requires_missing_node () =
  (* Bind failures against a node that still exists must not count. *)
  let outcome =
    case_runs ~config:Kube.Cluster.default_config
      ~workload:(Kube.Workload.pod_churn ~n:3 ())
      ~horizon:8_000_000 Sieve.Strategy.No_perturbation
  in
  let is_livelock = function Sieve.Oracle.Scheduler_livelock _ -> true | _ -> false in
  Alcotest.(check bool) "no livelock" false
    (List.exists (fun (_, v) -> is_livelock v) outcome.Sieve.Runner.violations)

let leak_needs_grace_period () =
  (* The mark is hidden from volumectl, so the leak is real — but it must
     only be reported after the grace period, not instantly. *)
  let case = Sieve.Bugs.ca_398 () in
  let outcome = Sieve.Runner.run_test (Sieve.Bugs.test_of_case case) in
  match
    List.find_opt
      (fun (_, v) -> match v with Sieve.Oracle.Pvc_leak _ -> true | _ -> false)
      outcome.Sieve.Runner.violations
  with
  | Some (time, _) ->
      (* Pod finalized around 3.5 s; grace is 2 s. *)
      Alcotest.(check bool) "after grace" true (time >= 5_000_000)
  | None -> Alcotest.fail "expected leak"

let violations_deduplicated () =
  let case = Sieve.Bugs.k8s_56261 () in
  let outcome = Sieve.Runner.run_test (Sieve.Bugs.test_of_case case) in
  let keys =
    List.map (fun (_, v) -> Sieve.Oracle.key v) outcome.Sieve.Runner.violations
  in
  Alcotest.(check (list string)) "unique keys" (List.sort_uniq compare keys)
    (List.sort compare keys)

let legitimate_claim_deletion_not_flagged () =
  (* Scale down deletes the decommissioned member's claim: legal. *)
  let outcome =
    case_runs ~config:Kube.Cluster.default_config
      ~workload:
        (Kube.Workload.cassandra_scale ~start:1_000_000 ~dc:"dc"
           ~steps:[ (0, 2); (3_000_000, 1) ]
           ())
      ~horizon:10_000_000 Sieve.Strategy.No_perturbation
  in
  Alcotest.(check int) "quiet" 0 (List.length outcome.Sieve.Runner.violations)

(* The ledger both substrates' oracles share anchors a violation at its
   cause: about a key, the last commit to that key, else the most recent
   commit; about nothing, the live frontier. A repeated dedup key is
   neither traced nor counted again. *)
let ledger_anchor_precedence () =
  let engine = Dsim.Engine.create () in
  let feed = Etcdlike.Commits.create engine ~actor:"test" ~kind:"store.commit" in
  let ledger = Sieve.Oracle.ledger engine (Etcdlike.Commits.view feed) in
  (* An entry caused by the frontier becomes the new frontier. *)
  let emit kind detail =
    let cause = Option.value (Dsim.Engine.current_cause engine) ~default:Dsim.Trace.no_cause in
    let id =
      Dsim.Trace.emit (Dsim.Engine.trace engine) ~time:0 ~actor:"test" ~kind ~cause detail
    in
    Dsim.Engine.set_cause engine (Some id);
    id
  in
  (* The feed's anchor is the commit's entry, and becomes the frontier. *)
  let commit rev key =
    Etcdlike.Commits.commit feed (History.Event.make ~rev ~key ~op:History.Event.Create (Some ()));
    Option.get (Dsim.Engine.current_cause engine)
  in
  let a = commit 1 "a" in
  let b = commit 2 "b" in
  let frontier = emit "test.step" "" in
  let leak pvc = Sieve.Oracle.Pvc_leak { pvc; owner_pod = "p" } in
  Sieve.Oracle.report ~about:"a" ledger (leak "1");
  Sieve.Oracle.report ~about:"zzz" ledger (leak "2");
  Sieve.Oracle.report ledger (leak "3");
  Sieve.Oracle.report ~about:"a" ledger (leak "3");
  let causes =
    List.map
      (fun (e : Dsim.Trace.entry) -> e.Dsim.Trace.cause)
      (Dsim.Trace.find_all (Dsim.Engine.trace engine) ~kind:"oracle.violation")
  in
  Alcotest.(check (list (option int)))
    "anchored at a's commit, the latest commit, the frontier" [ Some a; Some b; Some frontier ]
    causes;
  Alcotest.(check int) "found once per key" 3 (List.length (Sieve.Oracle.found ledger));
  Alcotest.(check int) "counted once per key" 3
    (Dsim.Metrics.count (Dsim.Engine.metrics engine) "oracle.violations")

let suites =
  [
    ( "oracle",
      [
        Alcotest.test_case "violation metadata" `Quick violation_metadata;
        Alcotest.test_case "clean run has no violations" `Quick clean_run_no_violations;
        Alcotest.test_case "transient duplicate not flagged" `Quick
          transient_duplicate_not_flagged;
        Alcotest.test_case "persistent duplicate flagged" `Quick persistent_duplicate_flagged;
        Alcotest.test_case "livelock requires missing node" `Quick livelock_requires_missing_node;
        Alcotest.test_case "leak needs grace period" `Quick leak_needs_grace_period;
        Alcotest.test_case "violations deduplicated" `Quick violations_deduplicated;
        Alcotest.test_case "ledger anchor precedence" `Quick ledger_anchor_precedence;
        Alcotest.test_case "legitimate claim deletion not flagged" `Quick
          legitimate_claim_deletion_not_flagged;
      ] );
  ]
