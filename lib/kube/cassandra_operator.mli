(** Cassandra operator: a level-triggered reconciler for [Cassdc] custom
    resources, modelled on the instaclustr cassandra-operator.

    Per datacenter it maintains one member pod per ordinal
    [<dc>-0 .. <dc>-(replicas-1)], each with a data claim
    [data-<dc>-<ordinal>], scaling up by creating the lowest missing
    ordinal and scaling down by *decommissioning* — marking for deletion —
    the highest-ordinal member. Orphaned data claims (no owning pod in
    view for several consecutive passes) are garbage-collected.

    Everything the operator knows comes from its informer caches, which is
    how the three reported bugs arise:

    - cassandra-operator-400: the decommission target is the max ordinal
      *in the cached view*; if the view is missing the true newest member,
      a wrong (non-max) member is decommissioned and scale-down wedges.
    - cassandra-operator-402: orphan GC trusts the cached pod list; a
      stale cache makes a live member's claim look orphaned and the
      operator deletes data out from under a running node.
    - cassandra-operator-398's pattern (a deletion mark that is never
      observed) lives in {!Volume_controller}, which owns non-["data-"]
      claims.

    [quorum_guard] applies the defensive fix: re-verify against etcd
    (quorum reads) before decommissioning or deleting a claim. *)

type t

val create :
  net:Dsim.Network.t ->
  name:string ->
  endpoints:string list ->
  ?quorum_guard:bool ->
  unit ->
  t
(** Informers: datacenters, pods, then claims. A claim must look
    orphaned for 4 consecutive passes before GC deletes it. *)

val start : t -> unit
(** Starts the {!Controller} lifecycle (a crash also forgets the orphan
    strikes) and the reconcile pass, every 150 ms. *)

val controller : t -> Controller.t

val member_creates : t -> int

val decommissions : t -> (string * int) list
(** (datacenter, ordinal) decommission decisions, oldest first. *)

val pods_informer : t -> Informer.t
