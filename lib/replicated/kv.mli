(** Replicated store: {!Etcdlike.Kv} state machines driven by a
    {!Raftlite.Group} command log.

    The paper's committed history [(H, S)] is {e not} a replica's
    partially-replicated log (footnote 1) — this module manufactures
    that distinction. Every mutation is proposed through the current
    Raft leader, logged by its proposal id; committed entries are
    applied {e deterministically} on each replica into a private
    {!Etcdlike.Kv} store, so the replicas' stores are prefixes of one
    shared dense revision sequence. The {e canonical} stream — the
    frontier of first applies, which is exactly the leader-committed
    history — is what the [canonical] callback given to {!create}
    receives and what {!canonical_store} holds.

    Reads are served from a {e chosen} replica ({!read_mode}): the
    leader, a named follower, or a per-source sticky pick. A partitioned
    replica still serves (its client link is intact; only replication is
    cut) — that is the injectable staleness this layer exists for. A
    {e crashed} replica serves nothing; the {!fallback} policy decides
    whether its clients silently read elsewhere ([`Stale]) or see the
    outage ([`Reject]).

    Not modeled, by design: leases live above this layer (granted and
    expired at the gateway, with expiry deletes proposed like any other
    mutation), no compaction (neither of the raft log nor of the
    replicas' MVCC stores, which keep every event), and no
    read-index/lease-read protocol — follower reads are stale reads,
    which is the point. *)

type read_mode =
  | Leader  (** serve reads from the current leader's store *)
  | Follower of string  (** always from the named replica *)
  | Spread  (** sticky per-source pick across all replicas *)

type fallback = [ `Stale | `Reject ]
(** What a read pinned to a {e crashed} replica does: [`Stale] silently
    falls over to the lowest-numbered live replica; [`Reject] surfaces
    the outage to the client. *)

type 'v t

val create :
  net:Dsim.Network.t ->
  n:int ->
  ?read:read_mode ->
  ?fallback:fallback ->
  canonical:('v History.Event.t -> unit) ->
  unit ->
  'v t
(** [n] replicas named [etcd-1 .. etcd-n], so the addresses line up with
    the fault surface existing strategies target, running
    {!Raftlite.Group}'s timing. For [n > 1], [etcd-1] is the
    deterministic first leader. Proposals are retried after 300 ms and
    fail with [`Unavailable] after 2 s.

    [canonical] receives the canonical commit stream, dense from
    revision 1. It runs inside the first applier's commit of each
    event, as that replica store's first commit listener (so before
    any listener registered on it through {!replicas}), and before the
    proposal's outcome is delivered. *)

val start : 'v t -> unit
(** Starts the Raft group and the proposal retry/expiry timer. *)

val seed : 'v t -> string -> 'v -> 'v History.Event.t
(** Install a binding on every replica directly, below consensus — a
    boot snapshot all replicas share. Only valid before proposals are
    in flight; runs the [canonical] callback once. *)

(** {2 Mutations (proposed through the leader)} *)

val txn :
  'v t ->
  'v Etcdlike.Txn.t ->
  (('v Etcdlike.Txn.outcome, [ `Unavailable ]) result -> unit) ->
  unit
(** Propose, retry across leader changes (idempotent via a per-replica
    proposal-id dedup), and deliver the deterministic outcome of the
    {e first} apply. The Raft command is the proposal id; the replicas
    read the transaction from a table they share. *)

val put :
  'v t -> string -> 'v -> (('v History.Event.t, [ `Unavailable ]) result -> unit) -> unit

(** {2 The canonical committed history} *)

val canonical_store : 'v t -> 'v Etcdlike.Kv.t
(** The store of the replica currently at the canonical frontier — a
    read-only ground-truth view for oracles and gauges; do not mutate
    it directly (mutations go through {!txn}/{!put}). *)

val leader : 'v t -> string option

val group : 'v t -> Raftlite.Group.t

(** {2 Replicas} *)

val replicas : 'v t -> (string * 'v Etcdlike.Kv.t) list
(** Each replica's id and applied state machine, in replica order. A
    replica's revision trails the canonical one by exactly its
    replication lag; its commit listeners fire on its {e applies}
    (including catch-up after a crash), after the canonical advance.
    Allocates nothing. *)

val route : 'v t -> src:string -> (string * 'v Etcdlike.Kv.t) option
(** The replica, and its store, that serves a read or watch from [src]
    right now, per the {!read_mode}; [None] when the pinned replica is
    down under [`Reject]. A read of that store carries the {e serving
    replica's} revision, the staleness carrier. *)
