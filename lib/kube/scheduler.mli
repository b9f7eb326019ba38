(** Scheduler: binds pending pods to nodes using a cached node list.

    The scheduler maintains its node cache from informer events — which
    means the cache silently diverges if a node-deletion event never
    arrives. Binding is a guarded transaction (the node must exist in
    etcd and the pod must be unchanged), so binding to a vanished node
    *fails at commit time*; what the scheduler does with that failure is
    the Kubernetes-56261 story:

    - buggy mode (default): the failure is retried, the cache untouched —
      the scheduler keeps offering the deleted node forever (a
      placement livelock);
    - fixed mode ([evict_on_bind_failure]): a "node not found" failure
      evicts the node from the cache, which is the actual upstream fix
      ("scheduler should delete a node from its cache if it gets node
      not found"). *)

type t

val create :
  net:Dsim.Network.t ->
  name:string ->
  endpoints:string list ->
  ?evict_on_bind_failure:bool ->
  unit ->
  t
(** Informers: pods, then nodes. *)

val start : t -> unit
(** Starts the {!Controller} lifecycle (a crash also empties the node
    cache and forgets in-flight binds) and the scheduling pass, every
    100 ms. *)

val controller : t -> Controller.t

val cached_nodes : t -> string list
(** The scheduler's current node cache (sorted). *)

val binds : t -> int
(** Successful bindings performed. *)

val bind_failures : t -> ((string * string) * int) list
(** Per (pod, node) count of failed bind transactions — the livelock
    oracle's input. *)

val failed_binds : t -> int
(** Failed bind transactions so far: {!bind_failures} changes exactly
    when this moves. *)

val pods_informer : t -> Informer.t

val nodes_informer : t -> Informer.t
