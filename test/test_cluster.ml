(* Cluster assembly and steady-state convergence. *)

let default_boot () =
  let cluster = Kube.Cluster.create () in
  Kube.Cluster.start cluster;
  cluster

let topology_matches_config () =
  let config = { Kube.Cluster.default_config with Kube.Cluster.nodes = 4 } in
  let cluster = Kube.Cluster.create ~config () in
  Alcotest.(check (list string)) "apiservers" [ "api-1"; "api-2" ]
    (Kube.Cluster.apiserver_names cluster);
  Alcotest.(check (list string)) "nodes" [ "node-1"; "node-2"; "node-3"; "node-4" ]
    (Kube.Cluster.node_names cluster);
  Alcotest.(check int) "kubelets" 4 (List.length (Kube.Cluster.kubelets cluster))

let start_seeds_nodes () =
  let cluster = default_boot () in
  Kube.Cluster.run cluster ~until:100_000;
  Alcotest.(check int) "node objects committed" 3
    (List.length
       (History.State.bindings_with_prefix (Kube.Cluster.truth cluster) ~prefix:"nodes/"))

let disabled_components_absent () =
  let config = { Kube.Cluster.default_config with Kube.Cluster.with_operator = false } in
  let cluster = Kube.Cluster.create ~config () in
  Alcotest.(check bool) "no operator" true (Kube.Cluster.operator cluster = None);
  Kube.Cluster.start cluster;
  (* 3 kubelets, then the scheduler's and the volume controller's 2 each. *)
  Alcotest.(check int) "no operator informers" 7 (List.length (Kube.Cluster.informers cluster))

let apiservers_converge_to_truth () =
  let cluster = default_boot () in
  Kube.Workload.schedule cluster (Kube.Workload.pod_churn ~n:2 ());
  Kube.Cluster.run cluster ~until:9_000_000;
  let rev = Kube.Cluster.truth_rev cluster in
  List.iter
    (fun api ->
      Alcotest.(check bool)
        (Printf.sprintf "%s caught up (rev %d vs %d)" (Kube.Apiserver.name api)
           (Kube.Apiserver.rev api) rev)
        true
        (Kube.Apiserver.rev api >= rev - 1))
    (Kube.Cluster.apiservers cluster)

let unperturbed_run_is_quiet () =
  (* No faults, busy workload: the trace must contain no stream deaths,
     no resyncs beyond the initial lists, no pipe breaks. *)
  let cluster = default_boot () in
  Kube.Workload.schedule cluster (Kube.Workload.pod_churn ~n:4 ());
  Kube.Cluster.run cluster ~until:9_000_000;
  let trace = Kube.Cluster.trace cluster in
  Alcotest.(check int) "no dead streams" 0
    (List.length (Dsim.Trace.find_all trace ~kind:"informer.stream-dead"));
  Alcotest.(check int) "no broken pipes" 0
    (List.length (Dsim.Trace.find_all trace ~kind:"pipe.broken"));
  Alcotest.(check int) "no apiserver resyncs" 0
    (List.length (Dsim.Trace.find_all trace ~kind:"api.resync"))

let deterministic_cluster_runs () =
  let digest () =
    let cluster = default_boot () in
    Kube.Workload.schedule cluster (Kube.Workload.pod_churn ~n:3 ());
    Kube.Cluster.run cluster ~until:6_000_000;
    ( Kube.Cluster.truth_rev cluster,
      List.map
        (fun e -> (e.Dsim.Trace.time, e.Dsim.Trace.kind, e.Dsim.Trace.detail))
        (Dsim.Trace.entries (Kube.Cluster.trace cluster)) )
  in
  let a = digest () and b = digest () in
  Alcotest.(check int) "same final rev" (fst a) (fst b);
  Alcotest.(check bool) "identical traces" true (snd a = snd b)

let different_seeds_differ () =
  let rev_with seed =
    let config = { Kube.Cluster.default_config with Kube.Cluster.seed } in
    let cluster = Kube.Cluster.create ~config () in
    Kube.Cluster.start cluster;
    Kube.Workload.schedule cluster (Kube.Workload.pod_churn ~n:3 ());
    Kube.Cluster.run cluster ~until:6_000_000;
    List.map
      (fun e -> e.Dsim.Trace.time)
      (Dsim.Trace.entries (Kube.Cluster.trace cluster))
  in
  Alcotest.(check bool) "timings shift with seed" true (rev_with 1L <> rev_with 77L)

let suites =
  [
    ( "cluster",
      [
        Alcotest.test_case "topology matches config" `Quick topology_matches_config;
        Alcotest.test_case "start seeds nodes" `Quick start_seeds_nodes;
        Alcotest.test_case "disabled components absent" `Quick disabled_components_absent;
        Alcotest.test_case "apiservers converge to truth" `Quick apiservers_converge_to_truth;
        Alcotest.test_case "unperturbed run is quiet" `Quick unperturbed_run_is_quiet;
        Alcotest.test_case "deterministic cluster runs" `Quick deterministic_cluster_runs;
        Alcotest.test_case "different seeds differ" `Quick different_seeds_differ;
      ] );
  ]
