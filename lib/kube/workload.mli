(** Scripted workloads: time-stamped cluster operations.

    A workload is data — a list of labelled steps at absolute virtual
    times — so that the same workload can be replayed under different
    perturbation strategies and its steps can be referenced from a test
    plan. The provided generators cover the scenarios the paper's case
    studies run on: pod churn, rolling upgrades (same-name migration),
    node churn, claim-backed pods, and Cassandra datacenter scaling. *)

type step = { at : int; label : string; action : Cluster.t -> unit }

type t = step list

val schedule : Cluster.t -> t -> unit
(** Installs every step on the cluster's engine. *)

val labels : t -> (int * string) list

(** {2 Primitive actions} (applied at the engine's current time) *)

val create_pod : ?pvc:string -> ?node:string -> Cluster.t -> string -> unit
(** Writes the pod (and its claim when [pvc] is given) through an
    apiserver. Unbound pods wait for the scheduler unless [node] pins
    them. *)

val mark_pod_deleted : Cluster.t -> string -> unit
(** Graceful delete: reads the pod with a quorum get and writes the
    deletion timestamp; the owning kubelet stops it and finalizes. *)

val delete_pod_now : Cluster.t -> string -> unit
(** Force delete: removes the object in one event. *)

val create_node : Cluster.t -> string -> unit

val delete_node : Cluster.t -> string -> unit

val set_cassdc_replicas : Cluster.t -> string -> int -> unit
(** Creates or updates the datacenter spec. *)

val set_rset_replicas : Cluster.t -> string -> int -> unit
(** Creates or updates a ReplicaSet spec. *)

(** {2 Workload generators} *)

val pod_churn : ?start:int -> ?spacing:int -> ?lifetime:int -> n:int -> unit -> t
(** [n] pods named [churn-<i>]: each created, then gracefully deleted
    [lifetime] later. Defaults: start 1 s, spacing 400 ms, lifetime 3 s. *)

val pods_with_claims : ?start:int -> ?lifetime:int -> n:int -> unit -> t
(** Like {!pod_churn} but each pod mounts claim [vol-<i>] (exercises the
    volume controller); the pods are always 400 ms apart. *)

val rolling_upgrade : ?start:int -> pod:string -> from_node:string -> to_node:string -> unit -> t
(** Creates [pod] pinned to [from_node], then migrates it: force-delete
    followed 300 ms later by re-creation pinned to [to_node] — the
    Kubernetes-59848 workload. *)

val node_churn : ?start:int -> node:string -> ?pods_after:int -> unit -> t
(** Deletes [node], then creates [pods_after] pods that must be scheduled
    elsewhere — the Kubernetes-56261 workload. Default 2 pods. *)

val cassandra_scale : ?start:int -> dc:string -> steps:(int * int) list -> unit -> t
(** Applies (delay-from-start, replicas) spec changes to datacenter
    [dc]. *)

val replicaset_scale : ?start:int -> rs:string -> steps:(int * int) list -> unit -> t
(** Applies (delay-from-start, replicas) spec changes to ReplicaSet
    [rs]. *)

val deployment_rollout :
  ?start:int -> dep:string -> replicas:int -> generations:int -> gap:int -> unit -> t
(** Creates the deployment at generation 1, then bumps the template
    every [gap] microseconds up to [generations]. *)

val node_failover : ?start:int -> new_node:string -> rs:string -> replicas:int -> unit -> t
(** Creates a ReplicaSet, then adds a fresh node the scheduler will start
    using — the node controller's blind spot if it misses the node's
    creation. *)
