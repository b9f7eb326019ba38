(* System-level properties under *adversarial* interception (not just
   faults): whatever the interceptor does to notification streams, some
   invariants must hold because they are enforced by guarded writes and
   ground-truth checks, not by views. *)

let random_policy seed =
  (* A deterministic pseudo-random pass/drop/delay policy over events. *)
  let rng = Dsim.Rng.create (Int64.of_int (7 + abs seed)) in
  fun (_ : History.Intercept.edge) (_ : Kube.Resource.value History.Event.t) ->
    let roll = Dsim.Rng.int rng 10 in
    if roll < 6 then History.Intercept.Pass
    else if roll < 8 then History.Intercept.Drop
    else History.Intercept.Delay (Dsim.Rng.int rng 800_000)

let run_adversarial seed =
  let config = { Kube.Cluster.default_config with Kube.Cluster.seed = Int64.of_int (1 + abs seed) } in
  let cluster = Kube.Cluster.create ~config () in
  History.Intercept.set_policy (Kube.Cluster.intercept cluster) (random_policy seed);
  Kube.Cluster.start cluster;
  Kube.Workload.schedule cluster (Kube.Workload.pod_churn ~n:4 ());
  Kube.Workload.schedule cluster
    (Kube.Workload.cassandra_scale ~dc:"dc" ~steps:[ (0, 2); (3_000_000, 3) ] ());
  Kube.Cluster.run cluster ~until:10_000_000;
  cluster

(* Guarded writes cannot be forged by stale views: every pod binding in
   the ground truth names a node that existed when the bind committed —
   under arbitrary event suppression, the scheduler can *fail* to place
   pods, but can never place one on a node that was never created. *)
let bindings_name_real_nodes =
  QCheck.Test.make ~name:"bindings always name once-real nodes (any interception)" ~count:12
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let cluster = run_adversarial seed in
      let truth = Kube.Cluster.truth cluster in
      History.State.fold
        (fun _ (v, _) acc ->
          acc
          &&
          match v with
          | Kube.Resource.Pod { Kube.Resource.node = Some n; _ } ->
              List.mem n (Kube.Cluster.node_names cluster)
          | _ -> true)
        truth true)

(* Kubelets only ever run pods that were at some point bound to their
   node in the committed history: execution is driven by views, but the
   views are partial histories of H — never fabrications. *)
let kubelets_run_only_assigned_pods =
  QCheck.Test.make ~name:"kubelets run only pods H ever assigned to them" ~count:12
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let config =
        { Kube.Cluster.default_config with Kube.Cluster.seed = Int64.of_int (1 + abs seed) }
      in
      let cluster = Kube.Cluster.create ~config () in
      (* Record every (pod, node) assignment H ever committed. *)
      let assigned = Hashtbl.create 64 in
      Etcdlike.Commits.on_commit (Kube.Etcd.commits (Kube.Cluster.etcd cluster)) (fun e ->
          match e.History.Event.value with
          | Some (Kube.Resource.Pod { Kube.Resource.pod_name; node = Some n; _ }) ->
              Hashtbl.replace assigned (pod_name, n) ()
          | _ -> ());
      History.Intercept.set_policy (Kube.Cluster.intercept cluster) (random_policy seed);
      Kube.Cluster.start cluster;
      Kube.Workload.schedule cluster (Kube.Workload.pod_churn ~n:4 ());
      Kube.Cluster.run cluster ~until:10_000_000;
      List.for_all
        (fun kubelet ->
          List.for_all
            (fun pod -> Hashtbl.mem assigned (pod, Kube.Kubelet.node_name kubelet))
            (Kube.Kubelet.running kubelet))
        (Kube.Cluster.kubelets cluster))

(* A monotonic (59848-fixed) informer's view revision never moves
   backwards, across arbitrary crash/restart/partition schedules. *)
let monotonic_views_never_travel =
  QCheck.Test.make ~name:"monotonic informers never time-travel (any faults)" ~count:12
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let config =
        {
          Kube.Cluster.default_config with
          Kube.Cluster.seed = Int64.of_int (1 + abs seed);
          kubelet_monotonic = true;
        }
      in
      let cluster = Kube.Cluster.create ~config () in
      Kube.Cluster.start cluster;
      Kube.Workload.schedule cluster (Kube.Workload.pod_churn ~n:3 ());
      let plan_rng = Dsim.Rng.create (Int64.of_int (97 * (1 + abs seed))) in
      let components = [ "kubelet-1"; "kubelet-2"; "kubelet-3"; "api-1"; "api-2" ] in
      Dsim.Fault.apply (Kube.Cluster.net cluster)
        (Dsim.Fault.random_plan plan_rng ~nodes:components ~horizon:6_000_000 ~crashes:3
           ~partitions:2 ());
      (* Sample every kubelet's frontier and fail on any regression. *)
      let ok = ref true in
      let last = Hashtbl.create 8 in
      Dsim.Engine.every (Kube.Cluster.engine cluster) ~period:50_000 (fun () ->
          List.iter
            (fun k ->
              let rev = Kube.Informer.rev (Kube.Kubelet.informer k) in
              let name = Kube.Kubelet.name k in
              (match Hashtbl.find_opt last name with
              | Some previous when rev < previous -> ok := false
              | _ -> ());
              Hashtbl.replace last name rev)
            (Kube.Cluster.kubelets cluster);
          true);
      Kube.Cluster.run cluster ~until:10_000_000;
      !ok)

(* Dropped events can starve progress but never corrupt: the Cassandra
   operator under arbitrary interception never produces two live members
   with the same ordinal in the ground truth. *)
let no_duplicate_ordinals =
  QCheck.Test.make ~name:"operator never creates duplicate ordinals (any interception)"
    ~count:12
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let cluster = run_adversarial seed in
      let truth = Kube.Cluster.truth cluster in
      let ordinals = Hashtbl.create 16 in
      let ok = ref true in
      History.State.fold
        (fun _ (v, _) () ->
          match v with
          | Kube.Resource.Pod
              { Kube.Resource.owner = Some owner; ordinal = Some i; deletion_timestamp = None; _ }
            ->
              if Hashtbl.mem ordinals (owner, i) then ok := false
              else Hashtbl.replace ordinals (owner, i) ()
          | _ -> ())
        truth ();
      !ok)

let suites =
  [
    ( "properties",
      [
        Qcheck_util.to_alcotest bindings_name_real_nodes;
        Qcheck_util.to_alcotest kubelets_run_only_assigned_pods;
        Qcheck_util.to_alcotest monotonic_views_never_travel;
        Qcheck_util.to_alcotest no_duplicate_ordinals;
      ] );
  ]
