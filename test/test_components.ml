(* Component behaviour on a full cluster: kubelet lifecycle, scheduler
   binding and eviction, volume release, operator scaling. *)

let boot ?(config = Kube.Cluster.default_config) () =
  let cluster = Kube.Cluster.create ~config () in
  Kube.Cluster.start cluster;
  cluster

let run_to cluster t = Kube.Cluster.run cluster ~until:t

let truth_pod cluster name =
  match History.State.get (Kube.Cluster.truth cluster) (Kube.Resource.pod_key name) with
  | Some (Kube.Resource.Pod p) -> Some p
  | _ -> None

let kubelet_runs_pinned_pod () =
  let cluster = boot () in
  ignore
    (Dsim.Engine.schedule_at (Kube.Cluster.engine cluster) ~time:1_000_000 (fun () ->
         Kube.Workload.create_pod ~node:"node-1" cluster "p"));
  run_to cluster 2_000_000;
  match Kube.Cluster.kubelet_for_node cluster "node-1" with
  | Some k ->
      Alcotest.(check bool) "running" true (Kube.Kubelet.is_running k "p");
      Alcotest.(check int) "one start" 1 (Kube.Kubelet.starts k);
      (match truth_pod cluster "p" with
      | Some p ->
          Alcotest.(check bool) "status Running" true (p.Kube.Resource.phase = Kube.Resource.Running)
      | None -> Alcotest.fail "pod missing")
  | None -> Alcotest.fail "kubelet missing"

let scheduler_binds_pending_pod () =
  let cluster = boot () in
  ignore
    (Dsim.Engine.schedule_at (Kube.Cluster.engine cluster) ~time:1_000_000 (fun () ->
         Kube.Workload.create_pod cluster "floating"));
  run_to cluster 3_000_000;
  match truth_pod cluster "floating" with
  | Some p ->
      Alcotest.(check bool) "bound somewhere" true (p.Kube.Resource.node <> None);
      let node = Option.get p.Kube.Resource.node in
      (match Kube.Cluster.kubelet_for_node cluster node with
      | Some k -> Alcotest.(check bool) "its kubelet runs it" true (Kube.Kubelet.is_running k "floating")
      | None -> Alcotest.fail "no kubelet for chosen node")
  | None -> Alcotest.fail "pod missing"

(* One scheduling pass over a batch: five pods created at one instant,
   on three nodes of which node-2 already runs a pod. Each pick takes
   the least loaded cached node, counts the binds the pass has already
   issued, and breaks ties by node name. *)
let scheduler_spreads_batch_in_one_pass () =
  let cluster = boot () in
  let engine = Kube.Cluster.engine cluster in
  ignore
    (Dsim.Engine.schedule_at engine ~time:1_000_000 (fun () ->
         Kube.Workload.create_pod ~node:"node-2" cluster "held"));
  ignore
    (Dsim.Engine.schedule_at engine ~time:2_050_000 (fun () ->
         List.iter (Kube.Workload.create_pod cluster) [ "b0"; "b1"; "b2"; "b3"; "b4" ]));
  run_to cluster 3_000_000;
  let binds = Dsim.Trace.find_all (Kube.Cluster.trace cluster) ~kind:"sched.bind" in
  Alcotest.(check (list string))
    "bindings"
    [ "b0 -> node-1"; "b1 -> node-3"; "b2 -> node-1"; "b3 -> node-2"; "b4 -> node-3" ]
    (List.sort String.compare (List.map (fun e -> e.Dsim.Trace.detail) binds));
  let times = List.map (fun e -> e.Dsim.Trace.time) binds in
  Alcotest.(check bool)
    "all five issued by one pass (replies within one 100 ms period)" true
    (List.fold_left max 0 times - List.fold_left min max_int times < 100_000)

let graceful_delete_finalizes () =
  let cluster = boot () in
  let engine = Kube.Cluster.engine cluster in
  ignore
    (Dsim.Engine.schedule_at engine ~time:1_000_000 (fun () ->
         Kube.Workload.create_pod ~node:"node-1" cluster "doomed"));
  ignore
    (Dsim.Engine.schedule_at engine ~time:2_000_000 (fun () ->
         Kube.Workload.mark_pod_deleted cluster "doomed"));
  run_to cluster 4_000_000;
  Alcotest.(check bool) "object removed" true (truth_pod cluster "doomed" = None);
  match Kube.Cluster.kubelet_for_node cluster "node-1" with
  | Some k -> Alcotest.(check bool) "stopped" false (Kube.Kubelet.is_running k "doomed")
  | None -> Alcotest.fail "kubelet missing"

let migration_moves_execution () =
  let cluster = boot () in
  Kube.Workload.schedule cluster
    (Kube.Workload.rolling_upgrade ~start:1_000_000 ~pod:"m" ~from_node:"node-1"
       ~to_node:"node-2" ());
  run_to cluster 6_000_000;
  let k1 = Option.get (Kube.Cluster.kubelet_for_node cluster "node-1") in
  let k2 = Option.get (Kube.Cluster.kubelet_for_node cluster "node-2") in
  Alcotest.(check bool) "left node-1" false (Kube.Kubelet.is_running k1 "m");
  Alcotest.(check bool) "arrived node-2" true (Kube.Kubelet.is_running k2 "m")

let fixed_scheduler_evicts_deleted_node () =
  let config = { Kube.Cluster.default_config with Kube.Cluster.scheduler_fixed = true } in
  let cluster = boot ~config () in
  (* Hide the node deletion from the scheduler, as the Sieve strategy
     would: the fixed scheduler must recover via bind-failure eviction. *)
  History.Intercept.set_policy (Kube.Cluster.intercept cluster) (fun edge e ->
      if
        String.equal edge.History.Intercept.dst "scheduler"
        && String.equal e.History.Event.key "nodes/node-2"
        && e.History.Event.op = History.Event.Delete
      then History.Intercept.Drop
      else History.Intercept.Pass);
  Kube.Workload.schedule cluster (Kube.Workload.node_churn ~start:1_500_000 ~node:"node-2" ~pods_after:6 ());
  run_to cluster 8_000_000;
  let scheduler = Kube.Cluster.scheduler cluster in
  Alcotest.(check bool) "node evicted from cache" false
    (List.mem "node-2" (Kube.Scheduler.cached_nodes scheduler));
  (* All pods eventually land on surviving nodes. *)
  List.iter
    (fun i ->
      match truth_pod cluster (Printf.sprintf "post-%d" i) with
      | Some p ->
          Alcotest.(check bool) "bound to a live node" true
            (match p.Kube.Resource.node with Some n -> n <> "node-2" | None -> false)
      | None -> Alcotest.fail "pod missing")
    [ 0; 1; 2; 3; 4; 5 ]

let volume_controller_releases_on_mark () =
  let cluster = boot () in
  Kube.Workload.schedule cluster
    (Kube.Workload.pods_with_claims ~start:1_000_000 ~lifetime:1_500_000 ~n:1 ());
  run_to cluster 6_000_000;
  Alcotest.(check bool) "claim released" false
    (History.State.mem (Kube.Cluster.truth cluster) (Kube.Resource.pvc_key "vol-0"));
  let v = Kube.Cluster.volume_controller cluster in
  Alcotest.(check int) "one release" 1 (Kube.Volume_controller.releases v)

let operator_scales_up_and_down () =
  let cluster = boot () in
  Kube.Workload.schedule cluster
    (Kube.Workload.cassandra_scale ~start:1_000_000 ~dc:"dc"
       ~steps:[ (0, 3); (4_000_000, 1) ]
       ());
  run_to cluster 12_000_000;
  let truth = Kube.Cluster.truth cluster in
  let members =
    History.State.bindings_with_prefix truth ~prefix:"pods/dc-" |> List.length
  in
  Alcotest.(check int) "scaled down to 1" 1 members;
  Alcotest.(check bool) "member 0 survives" true
    (History.State.mem truth (Kube.Resource.pod_key "dc-0"));
  (* Decommissions took the highest ordinals first. *)
  let operator = Option.get (Kube.Cluster.operator cluster) in
  Alcotest.(check (list (pair string int))) "decommission order"
    [ ("dc", 2); ("dc", 1) ]
    (Kube.Cassandra_operator.decommissions operator);
  (* Claims of decommissioned members were garbage collected. *)
  Alcotest.(check bool) "data-dc-2 gone" false
    (History.State.mem truth (Kube.Resource.pvc_key "data-dc-2"));
  Alcotest.(check bool) "data-dc-0 kept" true
    (History.State.mem truth (Kube.Resource.pvc_key "data-dc-0"))

let crashed_kubelet_keeps_containers () =
  let cluster = boot () in
  let engine = Kube.Cluster.engine cluster in
  let net = Kube.Cluster.net cluster in
  ignore
    (Dsim.Engine.schedule_at engine ~time:1_000_000 (fun () ->
         Kube.Workload.create_pod ~node:"node-1" cluster "p"));
  ignore (Dsim.Engine.schedule_at engine ~time:2_000_000 (fun () -> Dsim.Network.crash net "kubelet-1"));
  run_to cluster 2_500_000;
  let k1 = Option.get (Kube.Cluster.kubelet_for_node cluster "node-1") in
  Alcotest.(check bool) "containers survive the kubelet" true (Kube.Kubelet.is_running k1 "p");
  ignore (Dsim.Engine.schedule_at engine ~time:2_600_000 (fun () -> Dsim.Network.restart net "kubelet-1"));
  run_to cluster 5_000_000;
  Alcotest.(check bool) "still running after restart reconcile" true
    (Kube.Kubelet.is_running k1 "p")

let suites =
  [
    ( "components",
      [
        Alcotest.test_case "kubelet runs pinned pod" `Quick kubelet_runs_pinned_pod;
        Alcotest.test_case "scheduler binds pending pod" `Quick scheduler_binds_pending_pod;
        Alcotest.test_case "scheduler spreads a batch in one pass" `Quick
          scheduler_spreads_batch_in_one_pass;
        Alcotest.test_case "graceful delete finalizes" `Quick graceful_delete_finalizes;
        Alcotest.test_case "migration moves execution" `Quick migration_moves_execution;
        Alcotest.test_case "fixed scheduler evicts deleted node" `Quick
          fixed_scheduler_evicts_deleted_node;
        Alcotest.test_case "volume controller releases on mark" `Quick
          volume_controller_releases_on_mark;
        Alcotest.test_case "operator scales up and down" `Quick operator_scales_up_and_down;
        Alcotest.test_case "crashed kubelet keeps containers" `Quick
          crashed_kubelet_keeps_containers;
      ] );
  ]
