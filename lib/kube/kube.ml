(** The Kubernetes-like control plane (the paper's Figure 1).

    Ground truth lives in {!Etcd} (an {!Etcdlike.Kv} served over the
    network); {!Apiserver}s cache it via watch streams and serve
    components; every component view is an {!Informer}
    (client-go-style list+watch cache). Components: {!Kubelet},
    {!Scheduler}, {!Volume_controller}, {!Cassandra_operator},
    {!Replicaset}, {!Node_controller}, {!Deployment}, plus lease-based
    {!Elector}s. Each component runs on one {!Controller}, the shared
    lifecycle: its crash/restart hooks (a restart re-lists from the
    apiserver its incarnation picks), its reconcile loop and its view
    revision; the orphan collectors count consecutive sightings in
    {!Strikes}. {!Cluster} assembles a whole topology; {!Workload} scripts
    time-stamped operations against it.

    Every notification edge is a {!Pipe} (FIFO, TCP-like failure
    semantics) passing through the cluster's {!History.Intercept} point — the
    hook the Sieve strategies act on. {!Etcd} and the apiservers keep
    their watch subscribers in one {!Streams} table each. *)

module Resource = Resource
module Messages = Messages
module Pipe = Pipe
module Tap = Tap
module Streams = Streams
module Etcd = Etcd
module Apiserver = Apiserver
module Informer = Informer
module Client = Client
module Controller = Controller
module Strikes = Strikes
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
