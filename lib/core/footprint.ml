type t = {
  component : string;
  cached_reads : string list;
  quorum_reads : string list;
  writes : string list;
  destructive : string list;
  edge_triggered : string list;
  restartable : bool;
}

(* The footprints mirror lib/kube component by component. The planner
   projects its targets from them, so the order of the components and of
   each cached_reads list is the planner's candidate order too. *)
let of_config (config : Kube.Cluster.config) =
  let open Kube in
  let kubelets =
    List.init config.Cluster.nodes (fun i ->
        {
          component = Printf.sprintf "kubelet-%d" (i + 1);
          cached_reads = [ Resource.pods_prefix ];
          (* kubelet_monotonic rejects stale re-lists; it adds no quorum
             read, so the staleness hazard stays live while the
             time-travel one closes. *)
          quorum_reads = [];
          writes = [ Resource.pods_prefix ];
          destructive = [ Resource.pods_prefix ] (* finalize: delete marked pods *);
          (* on_event is the only driver; no periodic re-list repairs a
             dropped event (the lint's edge-trigger:kubelet.ml finding) *)
          edge_triggered = [ Resource.pods_prefix ];
          restartable = true;
        })
  in
  let scheduler =
    {
      component = "scheduler";
      cached_reads = [ Resource.pods_prefix; Resource.nodes_prefix ];
      quorum_reads = (if config.Cluster.scheduler_fixed then [ Resource.nodes_prefix ] else []);
      writes = [ Resource.pods_prefix ] (* bindings *);
      destructive = [];
      (* node_cache lives off on_node_event alone; scheduling_pass
         re-lists pods/ but never nodes/ (edge-trigger:scheduler.ml) *)
      edge_triggered = [ Resource.nodes_prefix ];
      restartable = true;
    }
  in
  let volume =
    {
      component = "volumectl";
      cached_reads = [ Resource.pods_prefix; Resource.pvcs_prefix ];
      quorum_reads = [];
      writes = [ Resource.pvcs_prefix ];
      destructive = [ Resource.pvcs_prefix ] (* release: delete claims *);
      edge_triggered = [];
      restartable = true;
    }
  in
  let operator =
    if config.Cluster.with_operator then
      [
        {
          component = "cassop";
          cached_reads = [ Resource.cassdcs_prefix; Resource.pods_prefix; Resource.pvcs_prefix ];
          quorum_reads =
            (if config.Cluster.operator_fixed then [ Resource.pods_prefix ] else []);
          writes = [ Resource.pods_prefix; Resource.pvcs_prefix ];
          destructive =
            [ Resource.pods_prefix; Resource.pvcs_prefix ]
            (* decommission marks members; orphan GC deletes claims *);
          edge_triggered = [];
          restartable = true;
        };
      ]
    else []
  in
  let replicaset =
    if config.Cluster.with_replicaset then
      [
        {
          component = "rsctl";
          cached_reads = [ Resource.rsets_prefix; Resource.pods_prefix ];
          quorum_reads = [];
          writes = [ Resource.pods_prefix ];
          destructive = [ Resource.pods_prefix ] (* scale-down deletion marks *);
          edge_triggered = [];
          restartable = true;
        };
      ]
    else []
  in
  let deployment =
    if config.Cluster.with_deployment then
      [
        {
          component = "depctl";
          cached_reads =
            [ Resource.deployments_prefix; Resource.rsets_prefix; Resource.pods_prefix ];
          quorum_reads =
            (if config.Cluster.deployment_fixed then [ Resource.pods_prefix ] else []);
          writes = [ Resource.rsets_prefix ];
          destructive = [ Resource.rsets_prefix ] (* prunes superseded ReplicaSets *);
          edge_triggered = [];
          restartable = true;
        };
      ]
    else []
  in
  let node_controller =
    if config.Cluster.with_node_controller then
      [
        {
          component = "nodectl";
          cached_reads = [ Resource.nodes_prefix; Resource.pods_prefix ];
          quorum_reads =
            (if config.Cluster.node_controller_fixed then [ Resource.nodes_prefix ] else []);
          writes = [ Resource.pods_prefix ];
          destructive = [ Resource.pods_prefix ] (* fails pods of vanished nodes *);
          edge_triggered = [];
          restartable = true;
        };
      ]
    else []
  in
  let all =
    kubelets @ (scheduler :: volume :: operator) @ replicaset @ deployment @ node_controller
  in
  (* Under a replicated store whose reads are routed to a named follower
     or spread across replicas, the apiserver's quorum forwards are
     served by whatever replica the router picks — possibly one frozen
     behind the leader. Statically those are cached reads, not quorum
     reads: the guard credit a fixed-mode list_quorum earns evaporates,
     which is exactly why the REP family reproduces the operator bugs
     with no consumer-side fault. Only [Leader] routing keeps them
     linearizable. The cached_reads lists are unchanged (every quorum
     prefix is already watched), so the planner's targets are too. *)
  let stale_routed =
    match config.Cluster.replication with
    | Some { Etcd.read = Replicated.Kv.Follower _ | Replicated.Kv.Spread; _ } -> true
    | Some { Etcd.read = Replicated.Kv.Leader; _ } | None -> false
  in
  if not stale_routed then all
  else
    List.map
      (fun fp ->
        let demoted =
          List.filter (fun p -> not (List.mem p fp.cached_reads)) fp.quorum_reads
        in
        { fp with cached_reads = fp.cached_reads @ demoted; quorum_reads = [] })
      all

(* The HBase substrate, mirrored from lib/hbase the same way: the master
   reads the registry and every region assignment through the follower
   (a cached view unless sync_before_cas forces a catch-up pull) and
   CASes assignments — a destructive write, since a wrong one strands or
   double-assigns a region. Region servers live off one-shot watch
   notifications: edge-triggered unless rearm_then_read closes the
   fire-to-rearm gap. *)
let of_hbase_config (config : Hbaselike.Cluster.config) =
  let master =
    {
      component = "master-1";
      cached_reads = [ "rs/registry"; "region/" ];
      quorum_reads =
        (if config.Hbaselike.Cluster.sync_before_cas then [ "rs/registry"; "region/" ] else []);
      writes = [ "region/"; "rs/registry" ];
      destructive = [ "region/" ];
      edge_triggered = [];
      restartable = true;
    }
  in
  let servers =
    List.map
      (fun component ->
        {
          component;
          cached_reads = [ "region/" ];
          quorum_reads = [];
          writes = [];
          destructive = [];
          edge_triggered =
            (if config.Hbaselike.Cluster.rearm_then_read then [] else [ "region/" ]);
          restartable = true;
        })
      Hbaselike.Cluster.server_names
  in
  master :: servers

let find footprints component =
  List.find_opt (fun fp -> String.equal fp.component component) footprints

let to_json fp =
  let strings l = Dsim.Json.List (List.map (fun s -> Dsim.Json.String s) l) in
  Dsim.Json.Obj
    [
      ("component", Dsim.Json.String fp.component);
      ("cached_reads", strings fp.cached_reads);
      ("quorum_reads", strings fp.quorum_reads);
      ("writes", strings fp.writes);
      ("destructive", strings fp.destructive);
      ("edge_triggered", strings fp.edge_triggered);
      ("restartable", Dsim.Json.Bool fp.restartable);
    ]
