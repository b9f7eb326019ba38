(* ReplicaSet controller: scale up/down, replacement, expectations. *)

let boot ?(expectations = false) () =
  let config =
    {
      Kube.Cluster.default_config with
      Kube.Cluster.with_replicaset = true;
      replicaset_fixed = expectations;
    }
  in
  let cluster = Kube.Cluster.create ~config () in
  Kube.Cluster.start cluster;
  cluster

let live_members cluster rs =
  History.State.fold
    (fun _ (v, _) acc ->
      match v with
      | Kube.Resource.Pod p
        when p.Kube.Resource.owner = Some (Kube.Resource.rset_key rs)
             && p.Kube.Resource.deletion_timestamp = None
             && p.Kube.Resource.phase <> Kube.Resource.Failed ->
          acc + 1
      | _ -> acc)
    (Kube.Cluster.truth cluster) 0

let maintains_replicas () =
  let cluster = boot () in
  Kube.Workload.schedule cluster
    (Kube.Workload.replicaset_scale ~start:1_000_000 ~rs:"web" ~steps:[ (0, 3) ] ());
  Kube.Cluster.run cluster ~until:5_000_000;
  Alcotest.(check int) "three live pods" 3 (live_members cluster "web");
  (* All scheduled and running. *)
  let running =
    List.concat_map Kube.Kubelet.running (Kube.Cluster.kubelets cluster)
    |> List.filter (fun pod -> String.length pod >= 4 && String.sub pod 0 4 = "web-")
  in
  Alcotest.(check int) "three running" 3 (List.length running)

let scales_down () =
  let cluster = boot () in
  Kube.Workload.schedule cluster
    (Kube.Workload.replicaset_scale ~start:1_000_000 ~rs:"web" ~steps:[ (0, 4); (3_000_000, 1) ] ());
  Kube.Cluster.run cluster ~until:8_000_000;
  Alcotest.(check int) "one survivor" 1 (live_members cluster "web");
  let rs = Option.get (Kube.Cluster.replicaset cluster) in
  Alcotest.(check bool) "recorded deletions" true (Kube.Replicaset.deletes rs >= 3)

let replaces_deleted_pod () =
  let cluster = boot () in
  Kube.Workload.schedule cluster
    (Kube.Workload.replicaset_scale ~start:1_000_000 ~rs:"web" ~steps:[ (0, 2) ] ());
  ignore
    (Dsim.Engine.schedule_at (Kube.Cluster.engine cluster) ~time:3_000_000 (fun () ->
         Kube.Workload.mark_pod_deleted cluster "web-0"));
  Kube.Cluster.run cluster ~until:7_000_000;
  Alcotest.(check int) "still two live pods" 2 (live_members cluster "web");
  Alcotest.(check bool) "web-0 was replaced (fresh name)" false
    (History.State.mem (Kube.Cluster.truth cluster) (Kube.Resource.pod_key "web-0"))

let stale_view_overprovisions () =
  (* Without expectations, a lagging pod view causes creation bursts. *)
  let cluster = boot () in
  Sieve.Strategy.apply cluster
    (Sieve.Strategy.staleness ~dst:"rsctl" ~key_prefix:"pods/" ~from:900_000 ~until:2_400_000
       ~extra:1_500_000 ());
  Kube.Workload.schedule cluster
    (Kube.Workload.replicaset_scale ~start:1_000_000 ~rs:"web" ~steps:[ (0, 3) ] ());
  Kube.Cluster.run cluster ~until:2_300_000;
  Alcotest.(check bool)
    (Printf.sprintf "over-provisioned mid-run (%d live)" (live_members cluster "web"))
    true
    (live_members cluster "web" > 6);
  (* ... and self-heals once the view catches up. *)
  Kube.Cluster.run cluster ~until:7_000_000;
  Alcotest.(check int) "converged back to 3" 3 (live_members cluster "web")

let expectations_prevent_overprovision () =
  let cluster = boot ~expectations:true () in
  Sieve.Strategy.apply cluster
    (Sieve.Strategy.staleness ~dst:"rsctl" ~key_prefix:"pods/" ~from:900_000 ~until:2_400_000
       ~extra:1_500_000 ());
  Kube.Workload.schedule cluster
    (Kube.Workload.replicaset_scale ~start:1_000_000 ~rs:"web" ~steps:[ (0, 3) ] ());
  Kube.Cluster.run cluster ~until:7_000_000;
  let rs = Option.get (Kube.Cluster.replicaset cluster) in
  Alcotest.(check int) "exactly three creations ever" 3 (Kube.Replicaset.creates rs);
  Alcotest.(check int) "three live" 3 (live_members cluster "web")

let failed_pods_replaced () =
  (* A Failed pod does not count as live; the controller replaces it. *)
  let config =
    {
      Kube.Cluster.default_config with
      Kube.Cluster.with_replicaset = true;
      with_node_controller = true;
    }
  in
  let cluster = Kube.Cluster.create ~config () in
  Kube.Cluster.start cluster;
  Kube.Workload.schedule cluster
    (Kube.Workload.replicaset_scale ~start:1_000_000 ~rs:"web" ~steps:[ (0, 2) ] ());
  (* Delete a node under a running pod: the node controller fails the
     pod, the ReplicaSet replaces it elsewhere. *)
  ignore
    (Dsim.Engine.schedule_at (Kube.Cluster.engine cluster) ~time:3_000_000 (fun () ->
         match
           History.State.get (Kube.Cluster.truth cluster) (Kube.Resource.pod_key "web-0")
         with
         | Some (Kube.Resource.Pod { Kube.Resource.node = Some n; _ }) ->
             Kube.Workload.delete_node cluster n
         | _ -> ()));
  Kube.Cluster.run cluster ~until:9_000_000;
  Alcotest.(check int) "two live replicas again" 2 (live_members cluster "web")

(* The orphan strikes die with the process: a restarted controller
   counts a pod's ownerless sightings from zero, so a pod one strike short
   of collection before the crash gets five fresh passes after it. The
   pass runs every 150 ms from time 0; the pod commits at 1.0 s, so the
   passes at 1.05, 1.2, 1.35 and 1.5 s give it four strikes. *)
let restart_forgets_orphan_strikes () =
  let cluster = boot () in
  let net = Kube.Cluster.net cluster in
  let at time f = ignore (Dsim.Engine.schedule_at (Kube.Cluster.engine cluster) ~time f) in
  at 1_000_000 (fun () ->
      ignore
        (Etcdlike.Kv.put
           (Kube.Etcd.kv (Kube.Cluster.etcd cluster))
           (Kube.Resource.pod_key "stray")
           (Kube.Resource.make_pod ~owner:(Kube.Resource.rset_key "gone") "stray")));
  let rs = Option.get (Kube.Cluster.replicaset cluster) in
  Kube.Cluster.run cluster ~until:1_550_000;
  Alcotest.(check int) "four strikes do not collect it" 0 (Kube.Replicaset.deletes rs);
  at 1_560_000 (fun () -> Dsim.Network.crash net "rsctl");
  at 1_600_000 (fun () -> Dsim.Network.restart net "rsctl");
  (* Four passes after the restart: 1.65, 1.8, 1.95 and 2.1 s. *)
  Kube.Cluster.run cluster ~until:2_150_000;
  Alcotest.(check int) "the orphan survives four passes of the restarted controller" 0
    (Kube.Replicaset.deletes rs);
  Kube.Cluster.run cluster ~until:2_300_000;
  Alcotest.(check int) "the fifth collects it" 1 (Kube.Replicaset.deletes rs)

let suites =
  [
    ( "replicaset",
      [
        Alcotest.test_case "maintains replicas" `Quick maintains_replicas;
        Alcotest.test_case "scales down" `Quick scales_down;
        Alcotest.test_case "replaces deleted pod" `Quick replaces_deleted_pod;
        Alcotest.test_case "stale view over-provisions (then heals)" `Quick
          stale_view_overprovisions;
        Alcotest.test_case "expectations prevent over-provisioning" `Quick
          expectations_prevent_overprovision;
        Alcotest.test_case "failed pods replaced (node loss failover)" `Quick
          failed_pods_replaced;
        Alcotest.test_case "restart forgets orphan strikes" `Quick
          restart_forgets_orphan_strikes;
      ] );
  ]
