(** ZooKeeper-style ensemble: a leader serving linearizable writes,
    compare-and-set and one-shot watches, and a follower serving reads
    from a replica that lags by a configurable replication delay.

    This is the substrate of the paper's HBase examples (§4.2.1): region
    transitions CAS against state *read from a follower's cache*
    (HBASE-3136), and the fix — forcing a [sync] before reading — trades
    leader load for freshness (HBASE-3137). One-shot watches are the
    §4.2.3 observability-gap generator: a registration is consumed when
    the event commits, so anything committed between the firing and the
    client's re-arm is invisible. The same partial-history model, one
    infrastructure over: the follower's replica is an [(H', S')] of the
    leader's [(H, S)].

    Values are strings; keys are free-form paths. *)

type hub_order = Replication_first | Watches_first

type t

val create :
  net:Dsim.Network.t ->
  ?replication_lag:int ->
  ?compaction_window:int ->
  ?follower_leader_revs:bool ->
  ?hub_order:hub_order ->
  ?intercept:string History.Intercept.t ->
  unit ->
  t
(** Nodes {!leader_name} and {!follower_name}; default replication lag
    10 ms. The follower applies each committed leader event
    [replication_lag] later (in order). [compaction_window] bounds the
    leader's retained event log (default: unbounded); a follower whose
    catch-up pull lands below the compaction frontier receives a full
    state snapshot instead of events — {e not} an empty event list, so
    compaction is never mistaken for being caught up.

    [follower_leader_revs] (default off — the buggy era) makes follower
    reads report each key's {e leader} mod-revision from the replicated
    side table instead of the replica's local numbering, which drifts
    permanently after a post-compaction resync.

    [hub_order] picks which of the replication stream and the watch
    notifier is registered first as a leader commit listener, and so
    hears each commit first; semantics must not depend on it.
    [intercept] is consulted on every delivery edge (replication and
    watch notifications); pass the cluster's shared interceptor so
    testing strategies can reach these edges. *)

val leader_name : string
(** ["zk-leader"] *)

val follower_name : string
(** ["zk-follower"] *)

val leader_kv : t -> string Etcdlike.Kv.t
(** Ground truth, for oracles and seeding. *)

val commits : t -> string Etcdlike.Commits.t
(** The leader's committed-history feed, anchored as ["zk.commit"]
    entries, labelled by client. It listens after the replication stream
    and the watch notifier, and before the compaction trim. *)

val follower_kv : t -> string Etcdlike.Kv.t
(** The replica's materialized state — the follower's [S'], for the
    conformance monitor's state checks. *)

val follower_rev : t -> int
(** The follower replica's applied revision in its {e local} numbering. *)

val follower_caught_up_to : t -> int
(** The leader revision the replica has applied up to — the follower's
    frontier in the committed history's numbering. *)

val serves_leader_revs : t -> bool
(** Whether follower reads report leader mod-revisions (the fixed era).
    When false, readers observe the replica's local numbering — which
    drifts from the committed domain after a post-compaction resync. *)

val observed_state : t -> string History.State.t
(** The follower's state in the revision domain {!read} serves — the
    observed (H', S') a conformance check must judge. Equal to the raw
    replica state in the buggy era; carries leader mod-revisions under
    [follower_leader_revs]. *)

val leader_ops : t -> int
(** Requests the leader has served — the load the HBASE-3137 fix
    inflates. *)

val follower_resyncs : t -> int
(** Full state transfers the follower performed after pulling below the
    leader's compaction frontier. *)

(** {2 Delivery-boundary taps} (read-only; for the conformance monitor) *)

val on_follower_apply : t -> (string History.Event.t -> unit) -> unit
(** Fires after the replica applies a committed leader event, via the
    replication stream or a sync-read catch-up pull. *)

val on_follower_resync : t -> (int -> unit) -> unit
(** Fires after a full state transfer, with the leader revision the
    replica jumped to. *)

(** {2 Client operations} (asynchronous, over the network)

    [src] is the caller's own handle ({!Dsim.Network.peer}). *)

val listen : Dsim.Network.t -> string -> (key:string -> string History.Event.t -> unit) -> unit
(** Registers the node's handler for one-shot watch firings (see
    {!arm_watch}), each delivered one network latency after the commit
    that consumed it. *)

val read :
  t ->
  src:Dsim.Network.peer ->
  ?sync:bool ->
  string ->
  ((string option * int, [ `Unavailable ]) result -> unit) ->
  unit
(** Reads from the *follower*. Returns the value and the mod-revision the
    follower sees. With [sync:true] the follower first catches up with
    the leader (one extra leader round-trip — the HBASE-3137 cost). *)

val cas :
  t ->
  src:Dsim.Network.peer ->
  key:string ->
  expected_mod_rev:int ->
  string option ->
  ((bool, [ `Unavailable ]) result -> unit) ->
  unit
(** Linearizable compare-and-set at the leader: writes (or deletes, when
    the value is [None]) only if the key's mod-revision still matches. *)

val write :
  t ->
  src:Dsim.Network.peer ->
  key:string ->
  string ->
  ((unit, [ `Unavailable ]) result -> unit) ->
  unit
(** Unconditional write at the leader. *)

val arm_watch :
  t ->
  src:Dsim.Network.peer ->
  string ->
  ((string option * int, [ `Unavailable ]) result -> unit) ->
  unit
(** Arms (or re-arms) a one-shot watch on the key at the leader and
    returns the current value — ZooKeeper's [getData(watch=true)]. The
    next commit on the key consumes the registration and delivers a
    notification to [src]'s {!listen} handler; events between that firing and the next
    re-arm are lost to the client. *)
