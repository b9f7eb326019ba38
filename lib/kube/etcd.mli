(** The etcd endpoint: the strongly-consistent store serving the
    ground-truth [(H, S)] over the network.

    Serves ranges, gets and transactions; watch subscribers each get a
    FIFO {!Pipe}; a configurable rolling window of retained events
    bounds how far back a watch may start, replying {!Messages.Compacted}
    beyond it. Periodic bookmarks keep healthy streams observably alive
    so subscribers can distinguish "no events" from "dead stream".

    Two backends share the address:

    - {e single} (default): one {!Etcdlike.Kv} instance — reads are
      linearizable by construction, as in the paper's model of a
      logically centralized store.
    - {e replicated}: a {!Replicated.Kv} — an [n]-replica Raft group
      whose members are network nodes named [etcd-1 .. etcd-n] (the
      existing crash/partition strategies target them unchanged).
      Mutations are proposed through the current leader and the reply is
      deferred until the entry commits and applies; reads and watches
      are served from a {e chosen} replica per the configured
      {!Replicated.Kv.read_mode}, so follower staleness is first-class.
      {!on_commit}, {!rev} and {!kv} always describe the {e canonical}
      leader-committed history, never a lagging replica's view. *)

type replication = {
  replicas : int;
  read : Replicated.Kv.read_mode;
  read_fallback : Replicated.Kv.fallback;
}

type t

val create :
  net:Dsim.Network.t ->
  intercept:Resource.value History.Intercept.t ->
  ?name:string ->
  ?watch_window:int ->
  ?replication:replication ->
  unit ->
  t
(** Defaults: name ["etcd"], unlimited window, bookmarks every 200 ms of
    virtual time, single backend. *)

val name : t -> string

val kv : t -> Resource.value Etcdlike.Kv.t
(** Ground truth, for oracles. Single backend: mutating it commits real
    events (watchers see them). Replicated backend: the canonical
    replica's store — treat as read-only; mutations must go through the
    consensus path ({!seed} for boot state). *)

val rev : t -> int
(** Committed revision (canonical frontier when replicated). *)

val seed : t -> string -> Resource.value -> unit
(** Install a binding before the engine runs: a direct store write, or
    (replicated) the same write on every replica — a shared boot
    snapshot below the consensus layer. *)

val replication : t -> replication option

val replicated_kv : t -> Resource.value Replicated.Kv.t option

val replica_revs : t -> (string * int) list
(** Per-replica applied revisions, [[]] for a single backend — the lag
    surface conformance monitoring sweeps. *)

val leader : t -> string option
(** Current Raft leader ([None] for a single backend or mid-election). *)

val subscribers : t -> string list

val on_commit : t -> (Resource.value History.Event.t -> unit) -> unit
(** Oracle hook: observe every committed-history event synchronously —
    the canonical (leader-committed) stream when replicated. *)

val requests_served : t -> int
(** RPCs this node has served — the load measure for the cache-offload
    experiment (Section 4.1). *)

val origin_of_rev : t -> int -> string
(** The component whose transaction committed the given revision
    (["boot"] for seeded state, ["user"] for workload writes). *)

val commit_trace_id : t -> rev:int -> int option
(** The trace entry id of the ["etcd.commit"] event recorded for the
    given revision — the anchor every causal chain terminates at. *)
