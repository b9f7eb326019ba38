(** The shared substrate interface.

    A {!spec} is the buildable description a test carries — which
    infrastructure dialect to construct, with what configuration and
    workload. A {!live} is the running cluster an outcome carries.
    Everything the runner, campaigns, minimization and diagnosis need
    from a cluster (construction, start, workload scheduling, trace,
    metrics, committed-history frontier, commit anchors) dispatches
    through here, so those layers are substrate-blind; substrate-specific
    analyses reach the concrete cluster through {!kube} or by matching
    on {!live}. *)

type spec =
  | Kube of { config : Kube.Cluster.config; workload : Kube.Workload.t }
  | Hbase of { config : Hbaselike.Cluster.config; workload : Hbaselike.Cluster.workload }

type live = Kube_live of Kube.Cluster.t | Hbase_live of Hbaselike.Cluster.t

val seed : spec -> int64

val create : spec -> live

val start : live -> unit

val schedule : live -> spec -> unit
(** Schedule the spec's workload on the live cluster. Raises
    [Invalid_argument] if the spec's dialect does not match. *)

val run : until:int -> live -> unit

val engine : live -> Dsim.Engine.t

val trace : live -> Dsim.Trace.t

val metrics : live -> Dsim.Metrics.t

val commits : live -> Etcdlike.Commits.view
(** The store's commit feed ({!Kube.Etcd.commits}, {!Hbaselike.Zk.commits}). *)

val kube : live -> Kube.Cluster.t
(** Raises [Invalid_argument] on a non-kube cluster. *)
