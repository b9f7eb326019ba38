(* The epoch-seal protocol (Section 6.2 in vivo): silent event loss
   becomes a detected integrity failure and is healed by an immediate
   re-list. *)

let sealed config = { config with Kube.Cluster.api_epoch_seal = Some 5 }

let run case config =
  Sieve.Runner.run_test
    (Sieve.Runner.base_test ~config
       ~workload:(Sieve.Bugs.kube_workload case)
       ~horizon:case.Sieve.Bugs.horizon case.Sieve.Bugs.sieve_strategy)

let hit case (o : Sieve.Runner.outcome) =
  List.exists (fun (_, v) -> case.Sieve.Bugs.matches v) o.Sieve.Runner.violations

let seal_detects_and_heals_dropped_event () =
  (* Straight 56261 setup under seals: the dropped node-deletion is
     detected within an epoch and the scheduler re-lists. *)
  let case = Sieve.Bugs.k8s_56261 () in
  let outcome = run case (sealed (Sieve.Bugs.kube_config case)) in
  Alcotest.(check bool) "bug closed" false (hit case outcome);
  let scheduler = Kube.Cluster.scheduler (Sieve.Runner.kube_cluster outcome) in
  Alcotest.(check bool) "a gap was detected" true
    (Kube.Informer.gaps_detected (Kube.Scheduler.nodes_informer scheduler) >= 1)

let seals_close_gap_bugs () =
  List.iter
    (fun id ->
      let case = Option.get (Sieve.Bugs.find id) in
      Alcotest.(check bool) (id ^ " closed by seals") false
        (hit case (run case (sealed (Sieve.Bugs.kube_config case)))))
    [ "K8s-56261"; "CA-398"; "CA-400"; "CA-402"; "EXT-NC"; "EXT-DEP" ]

let seals_do_not_fix_staleness_or_time_travel () =
  (* Seals prove completeness, not freshness: a frozen apiserver seals
     its own stale stream consistently, and delayed events arrive before
     their seal (FIFO). *)
  List.iter
    (fun id ->
      let case = Option.get (Sieve.Bugs.find id) in
      Alcotest.(check bool) (id ^ " rightly still reproduces") true
        (hit case (run case (sealed (Sieve.Bugs.kube_config case)))))
    [ "K8s-59848"; "EXT-RS" ]

let no_false_positives_in_calm_runs () =
  let config = sealed Kube.Cluster.default_config in
  let cluster = Kube.Cluster.create ~config () in
  let oracle = Sieve.Oracle.attach cluster in
  Kube.Cluster.start cluster;
  Kube.Workload.schedule cluster (Kube.Workload.pod_churn ~n:4 ());
  Kube.Cluster.run cluster ~until:9_000_000;
  Alcotest.(check int) "no violations" 0 (List.length (Sieve.Oracle.violations oracle));
  List.iter
    (fun k ->
      Alcotest.(check int)
        (Kube.Kubelet.name k ^ ": no spurious gaps")
        0
        (Kube.Informer.gaps_detected (Kube.Kubelet.informer k)))
    (Kube.Cluster.kubelets cluster)

let delays_do_not_trip_seals () =
  (* FIFO means a delayed event still precedes its seal: staleness is not
     misreported as loss. *)
  let config = sealed Kube.Cluster.default_config in
  let cluster = Kube.Cluster.create ~config () in
  Sieve.Strategy.apply cluster
    (Sieve.Strategy.staleness ~dst:"kubelet-1" ~from:0 ~until:9_000_000 ~extra:400_000 ());
  Kube.Cluster.start cluster;
  Kube.Workload.schedule cluster (Kube.Workload.pod_churn ~n:4 ());
  Kube.Cluster.run cluster ~until:9_000_000;
  let kubelet_1 = List.hd (Kube.Cluster.kubelets cluster) in
  Alcotest.(check int) "no gaps reported under pure delay" 0
    (Kube.Informer.gaps_detected (Kube.Kubelet.informer kubelet_1))

(* A seal every 0 or fewer revisions has no meaning: the apiserver
   refuses it up front instead of dividing by zero on the first commit. *)
let non_positive_granularity_rejected () =
  let net = Dsim.Network.create (Dsim.Engine.create ()) in
  let intercept = History.Intercept.create () in
  List.iter
    (fun g ->
      Alcotest.check_raises
        (Printf.sprintf "epoch_seal %d" g)
        (Invalid_argument "Apiserver.create: epoch_seal must be positive")
        (fun () ->
          ignore (Kube.Apiserver.create ~net ~intercept ~name:"api-1" ~etcd:"etcd" ~epoch_seal:g ())))
    [ 0; -2 ]

let suites =
  [
    ( "seals",
      [
        Alcotest.test_case "seal detects and heals a dropped event" `Quick
          seal_detects_and_heals_dropped_event;
        Alcotest.test_case "seals close all observability-gap bugs" `Slow seals_close_gap_bugs;
        Alcotest.test_case "seals do not fix staleness/time travel" `Slow
          seals_do_not_fix_staleness_or_time_travel;
        Alcotest.test_case "no false positives in calm runs" `Quick
          no_false_positives_in_calm_runs;
        Alcotest.test_case "delays do not trip seals" `Quick delays_do_not_trip_seals;
        Alcotest.test_case "non-positive granularity rejected" `Quick
          non_positive_granularity_rejected;
      ] );
  ]
