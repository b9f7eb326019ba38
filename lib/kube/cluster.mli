(** Cluster assembly: wires etcd, apiservers, kubelets, the scheduler, the
    volume controller and the Cassandra operator onto one simulated
    network (the Figure 1 topology), and exposes the ground truth and all
    component handles to oracles and testing strategies. *)

type config = {
  seed : int64;
  nodes : int;  (** one kubelet per node *)
  with_operator : bool;
  scheduler_fixed : bool;  (** evict nodes from cache on bind failure (56261 fix) *)
  volume_fixed : bool;  (** release claims of absent owners ([17] fix) *)
  operator_fixed : bool;  (** quorum guards before destructive actions (400/402 fix) *)
  kubelet_monotonic : bool;  (** reject stale re-lists (59848 fix) *)
  with_replicaset : bool;  (** run the ReplicaSet controller (off by default) *)
  with_node_controller : bool;  (** run the node controller (off by default) *)
  with_deployment : bool;
      (** run the Deployment controller (off by default; needs
          [with_replicaset]) *)
  replicaset_fixed : bool;  (** client-go expectations (over-provisioning fix) *)
  node_controller_fixed : bool;  (** quorum check before failing pods *)
  deployment_fixed : bool;  (** quorum fallback for view-wedged rollouts *)
  api_epoch_seal : int option;
      (** enable the Section 6.2 epoch-seal protocol on apiserver watch
          streams, sealing every N revisions ([None] = off, the bug-era
          default) *)
  obs_sample_period : int;
      (** how often (virtual us) the cluster samples every component's
          revision lag into the metrics registry *)
  replication : Etcd.replication option;
      (** [None] (default): the single-store backend, byte-compatible
          with every pre-replication scenario. [Some _]: the store is a
          Raft group of three members at {!Etcd.replica_addresses}
          (crash/partition strategies target them directly); reads and
          watches are routed per {!Replicated.Kv.read_mode} so follower
          staleness is injectable. *)
}

val default_config : config
(** seed 1, 3 nodes, the operator on and the ReplicaSet, node and
    Deployment controllers off, every fix off (the bug-era
    configuration), lag sampled every 100 ms. *)

val apiserver_addresses : string list
(** ["api-1"] and ["api-2"]: the two apiservers {!create} builds. *)

type t

val create : ?config:config -> unit -> t
(** Builds the engine, the network (one-way latency uniform in 500–2000
    us), etcd, the two apiservers, one kubelet per node, the scheduler,
    the volume controller and the components [config] turns on; nothing
    runs until {!start}. etcd keeps every event; each apiserver's watch
    cache holds 1000 events. *)

val start : t -> unit
(** Seeds node objects into etcd (on every replica, below consensus,
    when the store is replicated) and starts every component. *)

val run : t -> until:int -> unit
(** Advances virtual time (microseconds since 0). *)

val engine : t -> Dsim.Engine.t
val net : t -> Dsim.Network.t
val intercept : t -> Resource.value History.Intercept.t
val etcd : t -> Etcd.t

val truth : t -> Resource.value History.State.t
(** The store's materialized ground truth [(S)]. *)

val truth_rev : t -> int

val apiservers : t -> Apiserver.t list
val apiserver_names : t -> string list
val kubelets : t -> Kubelet.t list
val kubelet_for_node : t -> string -> Kubelet.t option
val node_names : t -> string list
val scheduler : t -> Scheduler.t
val volume_controller : t -> Volume_controller.t
val operator : t -> Cassandra_operator.t option
val replicaset : t -> Replicaset.t option
val node_controller : t -> Node_controller.t option
val deployment : t -> Deployment.t option

val user : t -> Client.t
(** A client ("user") wired to the apiservers, for workloads. *)

val informers : t -> Informer.t list
(** Every informer cache in the cluster, in start order (kubelets,
    scheduler, volume controller, operator, then the ReplicaSet, node and
    Deployment controllers) — the full set of consumer-side views a
    conformance monitor must tap. All exist from {!create} on. *)

val trace : t -> Dsim.Trace.t

val metrics : t -> Dsim.Metrics.t
(** The engine's metrics registry. After {!start}, a periodic sampler
    records every component's revision lag (committed store revision
    minus the component's view revision) as both a ["lag.<component>"]
    gauge and a virtual-time series — the live measurement of
    partial-history divergence. *)
