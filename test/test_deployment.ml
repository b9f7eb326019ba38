(* Deployment controller: two-level rollouts through the store, the
   zero-downtime invariant, and orphan cleanup. *)

let boot () =
  let config =
    {
      Kube.Cluster.default_config with
      Kube.Cluster.with_replicaset = true;
      with_deployment = true;
    }
  in
  let cluster = Kube.Cluster.create ~config () in
  Kube.Cluster.start cluster;
  cluster

let running_pods cluster =
  History.State.fold
    (fun _ (v, _) acc ->
      match v with
      | Kube.Resource.Pod
          { Kube.Resource.phase = Kube.Resource.Running; deletion_timestamp = None; _ } ->
          acc + 1
      | _ -> acc)
    (Kube.Cluster.truth cluster) 0

let generation_pods cluster dep generation =
  History.State.bindings_with_prefix (Kube.Cluster.truth cluster) ~prefix:"pods/"
  |> List.filter (fun (key, _) ->
         let p = Printf.sprintf "pods/%s-g%d-" dep generation in
         String.length key >= String.length p && String.sub key 0 (String.length p) = p)
  |> List.length

let initial_rollout_reaches_replicas () =
  let cluster = boot () in
  Kube.Workload.schedule cluster
    (Kube.Workload.deployment_rollout ~start:1_000_000 ~dep:"web" ~replicas:3 ~generations:1
       ~gap:0 ());
  Kube.Cluster.run cluster ~until:6_000_000;
  Alcotest.(check int) "three g1 pods" 3 (generation_pods cluster "web" 1);
  Alcotest.(check int) "three running" 3 (running_pods cluster)

let rolling_update_replaces_generation () =
  let cluster = boot () in
  Kube.Workload.schedule cluster
    (Kube.Workload.deployment_rollout ~start:1_000_000 ~dep:"web" ~replicas:3 ~generations:2
       ~gap:5_000_000 ());
  Kube.Cluster.run cluster ~until:14_000_000;
  Alcotest.(check int) "g1 drained" 0 (generation_pods cluster "web" 1);
  Alcotest.(check int) "g2 serving" 3 (generation_pods cluster "web" 2);
  (* The old generation's ReplicaSet object is retired. *)
  Alcotest.(check bool) "g1 rset gone" false
    (History.State.mem (Kube.Cluster.truth cluster) (Kube.Resource.rset_key "web-g1"));
  let d = Option.get (Kube.Cluster.deployment cluster) in
  Alcotest.(check int) "one rollout recorded" 1 (Kube.Deployment.rollouts_completed d)

let rollout_has_zero_downtime () =
  let cluster = boot () in
  Kube.Workload.schedule cluster
    (Kube.Workload.deployment_rollout ~start:1_000_000 ~dep:"web" ~replicas:3 ~generations:3
       ~gap:5_000_000 ());
  let min_running = ref max_int in
  Dsim.Engine.every (Kube.Cluster.engine cluster) ~period:100_000 (fun () ->
      (* After the initial ramp, availability must never dip. *)
      if Dsim.Engine.now (Kube.Cluster.engine cluster) > 3_000_000 then
        min_running := min !min_running (running_pods cluster);
      true);
  Kube.Cluster.run cluster ~until:16_000_000;
  Alcotest.(check bool)
    (Printf.sprintf "never below 3 running (min %d)" !min_running)
    true (!min_running >= 3)

let orphan_pods_collected () =
  (* Deleting an rset object directly leaves its pods ownerless; the
     ReplicaSet controller's GC reaps them after the strike window. *)
  let config =
    { Kube.Cluster.default_config with Kube.Cluster.with_replicaset = true }
  in
  let cluster = Kube.Cluster.create ~config () in
  Kube.Cluster.start cluster;
  Kube.Workload.schedule cluster
    (Kube.Workload.replicaset_scale ~start:1_000_000 ~rs:"solo" ~steps:[ (0, 2) ] ());
  ignore
    (Dsim.Engine.schedule_at (Kube.Cluster.engine cluster) ~time:3_000_000 (fun () ->
         Kube.Client.txn_ (Kube.Cluster.user cluster)
           (Kube.Messages.delete (Kube.Resource.rset_key "solo"))));
  Kube.Cluster.run cluster ~until:9_000_000;
  Alcotest.(check int) "orphans reaped" 0
    (List.length
       (History.State.bindings_with_prefix (Kube.Cluster.truth cluster) ~prefix:"pods/solo-"))

let controller_crash_mid_rollout_recovers () =
  let cluster = boot () in
  Kube.Workload.schedule cluster
    (Kube.Workload.deployment_rollout ~start:1_000_000 ~dep:"web" ~replicas:3 ~generations:2
       ~gap:4_000_000 ());
  let net = Kube.Cluster.net cluster in
  ignore
    (Dsim.Engine.schedule_at (Kube.Cluster.engine cluster) ~time:5_500_000 (fun () ->
         Dsim.Network.crash net "depctl"));
  ignore
    (Dsim.Engine.schedule_at (Kube.Cluster.engine cluster) ~time:6_500_000 (fun () ->
         Dsim.Network.restart net "depctl"));
  Kube.Cluster.run cluster ~until:16_000_000;
  Alcotest.(check int) "g2 serving despite the crash" 3 (generation_pods cluster "web" 2);
  Alcotest.(check int) "g1 drained" 0 (generation_pods cluster "web" 1)

let suites =
  [
    ( "deployment",
      [
        Alcotest.test_case "initial rollout reaches replicas" `Quick
          initial_rollout_reaches_replicas;
        Alcotest.test_case "rolling update replaces generation" `Quick
          rolling_update_replaces_generation;
        Alcotest.test_case "rollout has zero downtime" `Quick rollout_has_zero_downtime;
        Alcotest.test_case "orphan pods collected" `Quick orphan_pods_collected;
        Alcotest.test_case "controller crash mid-rollout recovers" `Quick
          controller_crash_mid_rollout_recovers;
      ] );
  ]
