(** The etcd endpoint: the strongly-consistent store serving the
    ground-truth [(H, S)] over the network.

    Serves ranges, gets and transactions; watch subscribers live in a
    {!Streams} table, each on a FIFO {!Pipe}. The store keeps every
    event, so a watch may start at any past revision; a start that
    {!Etcdlike.Kv.since} rejects as compacted is answered with
    {!Messages.Compacted}. Periodic bookmarks keep healthy streams
    observably alive so subscribers can distinguish "no events" from
    "dead stream".

    Two backends share the address:

    - {e single} (default): one {!Etcdlike.Kv} instance — reads are
      linearizable by construction, as in the paper's model of a
      logically centralized store.
    - {e replicated}: a {!Replicated.Kv} — a 3-replica Raft group
      whose members are network nodes named [etcd-1 .. etcd-3] (the
      existing crash/partition strategies target them unchanged).
      Mutations are proposed through the current leader and the reply is
      deferred until the entry commits and applies; reads and watches
      are served from a {e chosen} replica per the configured
      {!Replicated.Kv.read_mode}, so follower staleness is first-class.
      {!commits}, {!rev} and {!kv} always describe the {e canonical}
      leader-committed history, never a lagging replica's view.

    Everything the node serves goes through five backend primitives:
    the truth store ({!kv}), the replica stores ({!replicas}), {!seed},
    the routed store that serves a request from a given source, and one
    commit path that evaluates or proposes a transaction, labels its
    revisions' origin, attaches its lease and replies. Lists and gets
    read the routed store; transactions and lease deletes take the
    commit path; a watch stream is pinned to the routed store, which
    pushes it its commits (each caused by the revision's anchor in
    {!commits}) and bookmarks its revision. *)

type replication = {
  read : Replicated.Kv.read_mode;
  read_fallback : Replicated.Kv.fallback;
}

type t

val create :
  net:Dsim.Network.t ->
  intercept:Resource.value History.Intercept.t ->
  ?replication:replication ->
  unit ->
  t
(** The node at address ["etcd"]: bookmarks every 200 ms of virtual
    time; single backend unless [replication] is given. *)

val replica_addresses : string list
(** ["etcd-1"] to ["etcd-3"]: the replicated backend's members. *)

val name : t -> string

val kv : t -> Resource.value Etcdlike.Kv.t
(** Ground truth, for oracles. Single backend: mutating it commits real
    events (watchers see them). Replicated backend: the canonical
    replica's store — treat as read-only; mutations must go through the
    consensus path ({!seed} for boot state). *)

val commits : t -> Resource.value Etcdlike.Commits.t
(** The committed-history feed, anchored as ["etcd.commit"] entries;
    origins are the transaction's, ["boot"] for seeded state and
    ["lease-revoke"]/["lease-expiry"] for lease deletes. *)

val rev : t -> int
(** Committed revision: the feed's frontier. *)

val seed : t -> string -> Resource.value -> unit
(** Install a binding before the engine runs: a direct store write, or
    (replicated) the same write on every replica — a shared boot
    snapshot below the consensus layer. The commit has no cause and
    leaves the engine's causal frontier where it was
    ({!Etcdlike.Commits.boot}). *)

val replicas : t -> (string * Resource.value Etcdlike.Kv.t) list
(** Each replica's id and applied store, [[]] for a single backend — the
    lag surface conformance monitoring sweeps. A listener registered on
    a replica store runs after the canonical advance and the watch
    push. *)

val subscribers : t -> string list
