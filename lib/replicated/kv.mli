(** Replicated store: {!Etcdlike.Kv} state machines driven by a
    {!Raftlite.Group} command log.

    The paper's committed history [(H, S)] is {e not} a replica's
    partially-replicated log (footnote 1) — this module manufactures
    that distinction. Every mutation is proposed through the current
    Raft leader as a marshaled transaction; committed entries are
    applied {e deterministically} on each replica into a private
    {!Etcdlike.Kv} store, so the replicas' stores are prefixes of one
    shared dense revision sequence. The {e canonical} stream — the
    frontier of first applies, which is exactly the leader-committed
    history — is what {!on_commit} publishes, what [rev]/[state] report,
    and what conformance monitors and oracles mirror.

    Reads are served from a {e chosen} replica ({!read_mode}): the
    leader, a named follower, or a per-source sticky pick. A partitioned
    replica still serves (its client link is intact; only replication is
    cut) — that is the injectable staleness this layer exists for. A
    {e crashed} replica serves nothing; the {!fallback} policy decides
    whether its clients silently read elsewhere ([`Stale]) or see the
    outage ([`Reject]).

    Not modeled, by design: leases live above this layer (granted and
    expired at the gateway, with expiry deletes proposed like any other
    mutation), there are no raft-log snapshots (the [watch_window]
    compaction applies to the MVCC stores, not the command log), and no
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
  ?prefix:string ->
  ?read:read_mode ->
  ?fallback:fallback ->
  ?watch_window:int ->
  ?heartbeat_period:int ->
  ?election_timeout_min:int ->
  ?election_timeout_max:int ->
  unit ->
  'v t
(** [n] replicas named [<prefix>-1 .. <prefix>-n] (default prefix
    ["etcd"], so the addresses line up with the fault surface existing
    strategies target). For [n > 1], [<prefix>-1] is the deterministic
    first leader. Proposals are retried after 300 ms and fail with
    [`Unavailable] after 2 s. *)

val start : 'v t -> unit
(** Starts the Raft group and the proposal retry/expiry timer. *)

val seed : 'v t -> string -> 'v -> 'v History.Event.t
(** Install a binding on every replica directly, below consensus — a
    boot snapshot all replicas share. Only valid before proposals are
    in flight; fires the canonical commit listeners once. *)

(** {2 Mutations (proposed through the leader)} *)

val txn :
  'v t ->
  'v Etcdlike.Txn.t ->
  (('v Etcdlike.Txn.outcome, [ `Unavailable ]) result -> unit) ->
  unit
(** Marshal, propose, retry across leader changes (idempotent via a
    per-replica proposal-id dedup), and deliver the deterministic
    outcome of the {e first} apply. *)

val put :
  'v t -> string -> 'v -> (('v History.Event.t, [ `Unavailable ]) result -> unit) -> unit

val delete :
  'v t ->
  string ->
  (('v History.Event.t option, [ `Unavailable ]) result -> unit) ->
  unit
(** [Ok None] when the key was absent at apply time. *)

(** {2 The canonical committed history} *)

val rev : 'v t -> int
(** Canonical committed revision — the first-apply frontier. *)

val state : 'v t -> 'v History.State.t
(** Committed state at {!rev}. *)

val canonical_store : 'v t -> 'v Etcdlike.Kv.t
(** The store of the replica currently at the canonical frontier — a
    read-only ground-truth view for oracles and gauges; do not mutate
    it directly (mutations go through {!txn}/{!put}/{!delete}). *)

val on_commit : 'v t -> ('v History.Event.t -> unit) -> unit
(** Canonical commit stream, dense from revision 1, in registration
    order — feed oracles and conformance mirrors here. *)

val leader : 'v t -> string option

val group : 'v t -> Raftlite.Group.t

(** {2 Replica-scoped reads} *)

val n : 'v t -> int

val read_mode : 'v t -> read_mode

val fallback : 'v t -> fallback

val replica_ids : 'v t -> string list

val replica_store : 'v t -> string -> 'v Etcdlike.Kv.t option
(** The named replica's applied state machine — its revision trails the
    canonical one by exactly its replication lag. *)

val replica_rev : 'v t -> string -> int

val replica_revs : 'v t -> (string * int) list

val on_replica_commit : 'v t -> string -> ('v History.Event.t -> unit) -> unit
(** Fires on the named replica's {e applies} (including catch-up after a
    crash) — the per-replica watch feed. *)

val serving_replica : 'v t -> src:string -> string option
(** Which replica a read from [src] lands on right now; [None] when the
    pinned replica is down under [`Reject]. *)

val range : 'v t -> src:string -> prefix:string -> ((string * 'v * int) list * int) option
(** Routed read: items plus the {e serving replica's} revision (the
    staleness carrier). [None] = unavailable under [`Reject]. *)

val get : 'v t -> src:string -> string -> (('v * int) option * int) option
