(** Static read/write footprints: which slice of the key space each
    component of a cluster configuration observes through caches, reads
    linearizably, writes, and writes destructively.

    This is the one table of "what each component observes". A
    component's cached reads are the prefixes its [(H', S')] view is
    built from; the planner's targets ({!Planner.targets_of_config},
    {!Planner.targets_hbase}) and the coverage space are projected from
    it, in its order. The write/destructive sets come from reading the
    component implementations and are what turns footprints into
    hazards ([Analysis.Hazard]). *)

type t = {
  component : string;
  cached_reads : string list;
      (** prefixes read through informer caches — the component's
          {!Planner.target} watch set *)
  quorum_reads : string list;
      (** prefixes the component re-reads linearizably before acting, in
          this configuration (fix flags on) *)
  writes : string list;  (** prefixes the component writes *)
  destructive : string list;
      (** subset of [writes]: deletes, deletion marks, terminal-phase
          marks — the writes that destroy state or data *)
  edge_triggered : string list;
      (** subset of [cached_reads]: prefixes whose derived state is
          maintained *only* by watch events, with no periodic re-list to
          repair a dropped one — the layer-1 lint's [edge-trigger]
          findings, mirrored into the static model (the kubelet's pod
          handler, the scheduler's node cache) *)
  restartable : bool;
}

val of_config : Kube.Cluster.config -> t list
(** One footprint per component the configuration runs, mirroring the
    implementations in [lib/kube]: kubelets finalize (delete) pods they
    see marked; the scheduler binds pods from cached nodes; the volume
    controller deletes released claims; the operator creates/deletes
    member pods and their data claims; the ReplicaSet, Deployment and
    node controllers scale down, prune ReplicaSets and fail pods. The
    [quorum_reads] sets reflect the configuration's fix flags (e.g.
    [operator_fixed] adds a quorum re-list before decommission/GC).

    Replication demotes quorum reads: when the configuration runs the
    replicated store with [Follower _] or [Spread] read routing, the
    apiserver's quorum forwards are served by whatever replica the
    router picks — possibly one frozen behind the leader — so every
    quorum prefix is reclassified as a cached read and [quorum_reads]
    is emptied. Only [Leader] routing (or no replication) keeps the
    linearizable-read guard credit. *)

val of_hbase_config : Hbaselike.Cluster.config -> t list
(** The HBase substrate's footprints: the master reads the registry and
    region assignments through the follower cache (promoted to quorum
    reads when [sync_before_cas] forces a catch-up pull) and CASes
    region assignments destructively; region servers observe ["region/"]
    through one-shot watches — edge-triggered unless [rearm_then_read]
    closes the fire-to-rearm gap. *)

val find : t list -> string -> t option

val to_json : t -> Dsim.Json.t
