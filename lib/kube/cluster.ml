type config = {
  seed : int64;
  nodes : int;
  with_operator : bool;
  scheduler_fixed : bool;
  volume_fixed : bool;
  operator_fixed : bool;
  kubelet_monotonic : bool;
  with_replicaset : bool;
  with_node_controller : bool;
  with_deployment : bool;
  replicaset_fixed : bool;
  node_controller_fixed : bool;
  deployment_fixed : bool;
  api_epoch_seal : int option;
  obs_sample_period : int;  (* revision-lag sampling period, virtual us *)
  replication : Etcd.replication option;
      (* [None]: single-store backend (the default, byte-compatible with
         every pre-replication scenario). [Some _]: Raft-replicated
         backend; replica addresses etcd-1..3 join the fault surface. *)
}

let apiserver_addresses = [ "api-1"; "api-2" ]

let default_config =
  {
    seed = 1L;
    nodes = 3;
    with_operator = true;
    scheduler_fixed = false;
    volume_fixed = false;
    operator_fixed = false;
    kubelet_monotonic = false;
    with_replicaset = false;
    with_node_controller = false;
    with_deployment = false;
    replicaset_fixed = false;
    node_controller_fixed = false;
    deployment_fixed = false;
    api_epoch_seal = None;
    obs_sample_period = 100_000;
    replication = None;
  }

type t = {
  config : config;
  engine : Dsim.Engine.t;
  net : Dsim.Network.t;
  intercept : Resource.value History.Intercept.t;
  etcd : Etcd.t;
  apiservers : Apiserver.t list;
  kubelets : Kubelet.t list;
  scheduler : Scheduler.t;
  volume_controller : Volume_controller.t;
  operator : Cassandra_operator.t option;
  replicaset : Replicaset.t option;
  node_controller : Node_controller.t option;
  deployment : Deployment.t option;
  controllers : Controller.t list;  (* start order *)
  user : Client.t;
}

let engine t = t.engine
let net t = t.net
let intercept t = t.intercept
let etcd t = t.etcd
let apiservers t = t.apiservers
let kubelets t = t.kubelets
let scheduler t = t.scheduler
let volume_controller t = t.volume_controller
let operator t = t.operator
let replicaset t = t.replicaset
let node_controller t = t.node_controller
let deployment t = t.deployment
let user t = t.user

let truth t = Etcdlike.Kv.state (Etcd.kv t.etcd)

let truth_rev t = Etcd.rev t.etcd

let apiserver_names t = List.map Apiserver.name t.apiservers

let node_names t = List.map Kubelet.node_name t.kubelets

let kubelet_for_node t node =
  List.find_opt (fun k -> String.equal (Kubelet.node_name k) node) t.kubelets

(* Every informer cache in the cluster, one handle per list+watch stream —
   the full set of consumer-side views a conformance monitor must tap. *)
let informers t = List.concat_map Controller.informers t.controllers

let trace t = Dsim.Engine.trace t.engine

let metrics t = Dsim.Engine.metrics t.engine

let create ?(config = default_config) () =
  let engine = Dsim.Engine.create ~seed:config.seed () in
  let net = Dsim.Network.create engine in
  let intercept = History.Intercept.create () in
  let etcd = Etcd.create ~net ~intercept ?replication:config.replication () in
  let apiservers =
    List.map
      (fun name ->
        Apiserver.create ~net ~intercept ~name ~etcd:(Etcd.name etcd)
          ?epoch_seal:config.api_epoch_seal ())
      apiserver_addresses
  in
  let kubelets =
    List.init config.nodes (fun i ->
        let name = Printf.sprintf "kubelet-%d" (i + 1) in
        let node = Printf.sprintf "node-%d" (i + 1) in
        Kubelet.create ~net ~name ~node ~endpoints:apiserver_addresses
          ~monotonic:config.kubelet_monotonic ())
  in
  let scheduler =
    Scheduler.create ~net ~name:"scheduler" ~endpoints:apiserver_addresses
      ~evict_on_bind_failure:config.scheduler_fixed ()
  in
  let volume_controller =
    Volume_controller.create ~net ~name:"volumectl" ~endpoints:apiserver_addresses
      ~release_on_absent_owner:config.volume_fixed ()
  in
  let operator =
    if config.with_operator then
      Some
        (Cassandra_operator.create ~net ~name:"cassop" ~endpoints:apiserver_addresses
           ~quorum_guard:config.operator_fixed ())
    else None
  in
  let replicaset =
    if config.with_replicaset then
      Some
        (Replicaset.create ~net ~name:"rsctl" ~endpoints:apiserver_addresses
           ~expectations:config.replicaset_fixed ())
    else None
  in
  let node_controller =
    if config.with_node_controller then
      Some
        (Node_controller.create ~net ~name:"nodectl" ~endpoints:apiserver_addresses
           ~quorum_guard:config.node_controller_fixed ())
    else None
  in
  let deployment =
    if config.with_deployment then
      Some
        (Deployment.create ~net ~name:"depctl" ~endpoints:apiserver_addresses
           ~quorum_fallback:config.deployment_fixed ())
    else None
  in
  let controllers =
    List.map Kubelet.controller kubelets
    @ [ Scheduler.controller scheduler; Volume_controller.controller volume_controller ]
    @ List.filter_map Fun.id
        [
          Option.map Cassandra_operator.controller operator;
          Option.map Replicaset.controller replicaset;
          Option.map Node_controller.controller node_controller;
          Option.map Deployment.controller deployment;
        ]
  in
  let user = Client.create ~net ~owner:"user" ~endpoints:apiserver_addresses () in
  Dsim.Network.join net "user";
  {
    config;
    engine;
    net;
    intercept;
    etcd;
    apiservers;
    kubelets;
    scheduler;
    volume_controller;
    operator;
    replicaset;
    node_controller;
    deployment;
    controllers;
    user;
  }

let start t =
  (* Seed node objects so schedulers and kubelets find the inventory
     (below the consensus path when the store is replicated). *)
  List.iter
    (fun k ->
      let node = Kubelet.node_name k in
      Etcd.seed t.etcd (Resource.node_key node) (Resource.make_node node))
    t.kubelets;
  List.iter Apiserver.start t.apiservers;
  List.iter Kubelet.start t.kubelets;
  Scheduler.start t.scheduler;
  Volume_controller.start t.volume_controller;
  Option.iter Cassandra_operator.start t.operator;
  Option.iter Replicaset.start t.replicaset;
  Option.iter Node_controller.start t.node_controller;
  Option.iter Deployment.start t.deployment;
  (* Revision lag, the live measurement of partial-history divergence, and
     each apiserver's watch-subscriber count. *)
  let sample_lags =
    Etcdlike.Commits.lag_sampler
      (Etcdlike.Commits.view (Etcd.commits t.etcd))
      (List.map (fun a -> (Apiserver.name a, fun () -> Apiserver.rev a)) t.apiservers
      @ List.map (fun c -> (Controller.name c, fun () -> Controller.view_rev c)) t.controllers)
  in
  let subscribers =
    List.map
      (fun a -> (a, Dsim.Metrics.Gauge.resolve (metrics t) ("api.subscribers." ^ Apiserver.name a)))
      t.apiservers
  in
  Dsim.Engine.every t.engine ~period:t.config.obs_sample_period (fun () ->
      sample_lags ();
      List.iter
        (fun (a, gauge) -> Dsim.Metrics.Gauge.set_int gauge (Apiserver.subscriber_count a))
        subscribers;
      true)

let run t ~until = Dsim.Engine.run ~until t.engine
