(* Strategy construction, classification, and interceptor compilation. *)

let ev rev key op = History.Event.make ~rev ~key ~op (Some (Kube.Resource.make_node "n"))

let pattern_classification () =
  let check name expected strategy =
    Alcotest.(check bool) name true (Sieve.Strategy.pattern strategy = expected)
  in
  check "none" `None Sieve.Strategy.No_perturbation;
  check "staleness/delay" `Staleness
    (Sieve.Strategy.staleness ~dst:"c" ~from:0 ~until:10 ~extra:5 ());
  check "staleness/partition" `Staleness
    (Sieve.Strategy.Partition_window { a = "x"; b = "y"; from = 0; until = 1 });
  check "obs gap" `Obs_gap (Sieve.Strategy.observability_gap ~dst:"c" ~from:0 ~until:10 ());
  check "crash alone" `Time_travel
    (Sieve.Strategy.Crash_restart { victim = "c"; at = 0; downtime = 1 });
  check "time travel combo" `Time_travel
    (Sieve.Strategy.time_travel ~stale_api:"api-2" ~victim:"c" ~stale_from:0 ~crash_at:5 ());
  check "mixed" `Mixed
    (Sieve.Strategy.Combo
       [
         Sieve.Strategy.observability_gap ~dst:"c" ~from:0 ~until:1 ();
         Sieve.Strategy.staleness ~dst:"c" ~from:0 ~until:1 ~extra:1 ();
       ])

let describe_is_total () =
  let strategies =
    [
      Sieve.Strategy.No_perturbation;
      Sieve.Strategy.staleness ~src:"etcd" ~dst:"api-1" ~from:0 ~until:10 ~extra:5 ();
      Sieve.Strategy.observability_gap ~dst:"c" ~key_prefix:"pods/" ~op:History.Event.Delete
        ~limit:1 ~from:0 ~until:10 ();
      Sieve.Strategy.time_travel ~stale_api:"api-2" ~victim:"kubelet-1" ~stale_from:0 ~crash_at:5
        ~downtime:2 ~heal_at:100 ();
    ]
  in
  List.iter
    (fun s -> Alcotest.(check bool) "non-empty" true (Sieve.Strategy.describe s <> ""))
    strategies

(* Compile a strategy onto a cluster and probe the interceptor directly. *)
let decide cluster edge event =
  History.Intercept.decide (Kube.Cluster.intercept cluster) edge event

let drop_rule_matches_scope () =
  let cluster = Kube.Cluster.create () in
  Sieve.Strategy.apply cluster
    (Sieve.Strategy.observability_gap ~dst:"scheduler" ~key_prefix:"nodes/"
       ~op:History.Event.Delete ~from:0 ~until:1_000_000 ());
  let to_scheduler = History.Intercept.{ src = "api-1"; dst = "scheduler" } in
  let to_kubelet = History.Intercept.{ src = "api-1"; dst = "kubelet-1" } in
  Alcotest.(check bool) "drops matching" true
    (decide cluster to_scheduler (ev 1 "nodes/n" History.Event.Delete) = History.Intercept.Drop);
  Alcotest.(check bool) "passes other op" true
    (decide cluster to_scheduler (ev 2 "nodes/n" History.Event.Create) = History.Intercept.Pass);
  Alcotest.(check bool) "passes other key" true
    (decide cluster to_scheduler (ev 3 "pods/p" History.Event.Delete) = History.Intercept.Pass);
  Alcotest.(check bool) "passes other dst" true
    (decide cluster to_kubelet (ev 4 "nodes/n" History.Event.Delete) = History.Intercept.Pass)

let limit_caps_matches () =
  let cluster = Kube.Cluster.create () in
  Sieve.Strategy.apply cluster
    (Sieve.Strategy.observability_gap ~dst:"c" ~limit:2 ~from:0 ~until:1_000_000 ());
  let edge = History.Intercept.{ src = "api-1"; dst = "c" } in
  Alcotest.(check bool) "1st dropped" true
    (decide cluster edge (ev 1 "k" History.Event.Create) = History.Intercept.Drop);
  Alcotest.(check bool) "2nd dropped" true
    (decide cluster edge (ev 2 "k" History.Event.Create) = History.Intercept.Drop);
  Alcotest.(check bool) "3rd passes" true
    (decide cluster edge (ev 3 "k" History.Event.Create) = History.Intercept.Pass)

let window_respected () =
  let cluster = Kube.Cluster.create () in
  Sieve.Strategy.apply cluster
    (Sieve.Strategy.staleness ~dst:"c" ~from:100_000 ~until:200_000 ~extra:50_000 ());
  let edge = History.Intercept.{ src = "api-1"; dst = "c" } in
  (* Engine clock is 0: outside the window, rule dormant. *)
  Alcotest.(check bool) "before window passes" true
    (decide cluster edge (ev 1 "k" History.Event.Create) = History.Intercept.Pass);
  ignore
    (Dsim.Engine.schedule_at (Kube.Cluster.engine cluster) ~time:150_000 (fun () ->
         Alcotest.(check bool) "inside window delays" true
           (decide cluster edge (ev 2 "k" History.Event.Create) = History.Intercept.Delay 50_000)));
  Kube.Cluster.run cluster ~until:150_000

let faults_scheduled () =
  let cluster = Kube.Cluster.create () in
  Kube.Cluster.start cluster;
  Sieve.Strategy.apply cluster
    (Sieve.Strategy.Combo
       [
         Sieve.Strategy.Crash_restart { victim = "kubelet-1"; at = 100_000; downtime = 50_000 };
         Sieve.Strategy.Partition_window { a = "etcd"; b = "api-2"; from = 80_000; until = 120_000 };
       ]);
  let net = Kube.Cluster.net cluster in
  Kube.Cluster.run cluster ~until:110_000;
  Alcotest.(check bool) "victim down" false (Dsim.Network.is_up net "kubelet-1");
  Alcotest.(check bool) "link cut" true (Dsim.Network.partitioned net "etcd" "api-2");
  Kube.Cluster.run cluster ~until:200_000;
  Alcotest.(check bool) "victim back" true (Dsim.Network.is_up net "kubelet-1");
  Alcotest.(check bool) "link healed" false (Dsim.Network.partitioned net "etcd" "api-2")

let suites =
  [
    ( "strategy",
      [
        Alcotest.test_case "pattern classification" `Quick pattern_classification;
        Alcotest.test_case "describe is total" `Quick describe_is_total;
        Alcotest.test_case "drop rule matches scope" `Quick drop_rule_matches_scope;
        Alcotest.test_case "limit caps matches" `Quick limit_caps_matches;
        Alcotest.test_case "window respected" `Quick window_respected;
        Alcotest.test_case "faults scheduled" `Quick faults_scheduled;
      ] );
  ]
