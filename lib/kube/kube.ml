(** The Kubernetes-like control plane (the paper's Figure 1).

    Ground truth lives in {!Etcd} (an {!Etcdlike.Kv} served over the
    network); {!Apiserver}s cache it via watch streams and serve
    components; every component view is an {!Informer}
    (client-go-style list+watch cache). Components: {!Kubelet},
    {!Scheduler}, {!Volume_controller}, {!Cassandra_operator},
    {!Replicaset}, {!Node_controller}, plus lease-based {!Elector}s.
    {!Cluster} assembles a whole topology; {!Workload} scripts
    time-stamped operations against it.

    Every notification edge is a {!Pipe} (FIFO, TCP-like failure
    semantics) passing through the cluster's {!History.Intercept} point — the
    hook the Sieve strategies act on. *)

module Resource = Resource
module Messages = Messages
module Pipe = Pipe
module Tap = Tap
module Etcd = Etcd
module Apiserver = Apiserver
module Informer = Informer
module Client = Client
module Kubelet = Kubelet
module Scheduler = Scheduler
module Volume_controller = Volume_controller
module Cassandra_operator = Cassandra_operator
module Replicaset = Replicaset
module Deployment = Deployment
module Node_controller = Node_controller
module Elector = Elector
module Cluster = Cluster
module Workload = Workload
