(** Raft-lite: leader election and replicated log over the simulated
    network.

    The paper's data-store tier is "a centralized, strongly-consistent
    data store, built out of a small cluster of nodes (typically one to
    nine)" — this module is that substrate: enough Raft to replicate a
    command log with the standard safety arguments (election safety, log
    matching, leader completeness) under crashes and partitions, driven
    entirely by the deterministic engine.

    Simplifications relative to full Raft: no snapshots/compaction, no
    membership changes, no read-index protocol. Clients consume committed
    entries through [on_apply], which fires exactly once per committed
    entry in log order — {!Replicated.Kv} applies each entry into a
    per-replica {!Etcdlike.Kv} store there, and replica reads go against
    those applied state machines. Persistent state (term, vote, log,
    applied index) survives crashes, as stable storage would; volatile
    state does not — the state machine is persisted alongside the log in
    this model, so a restarted replica resumes applying from where it
    stopped rather than replaying from scratch.

    Note that a partial history H' in the paper's sense is *not* a
    replica's unreplicated suffix — H only contains committed entries;
    this module is what manufactures that committed H. *)

type entry = { term : int; command : string option }
(** [command = None] is an internal no-op: appended by every new leader
    so entries from earlier terms become committable (Raft §8's
    recommendation); no-ops are never passed to [on_apply]. *)

type role = Follower | Candidate | Leader

type t

val create :
  net:Dsim.Network.t ->
  id:string ->
  peers:string list ->
  ?election_timeout_max:int ->
  ?on_apply:(index:int -> command:string -> unit) ->
  unit ->
  t
(** [peers] excludes [id]. Heartbeats every 50 ms; election timeouts
    are uniform between 150 ms and [election_timeout_max] us (default
    300 ms), so [~election_timeout_max:150_000] is the jitter-free
    timeout {!Group} gives its favored replica. [on_apply] fires exactly
    once per committed entry, in log order. *)

val start : t -> unit
(** Registers RPC handlers and timers; installs crash/restart hooks
    (crash preserves term/vote/log, resets volatile state). *)

val id : t -> string

val term : t -> int

val is_leader : t -> bool

val propose : t -> string -> bool
(** Appends a command to the local log if this node currently believes it
    is leader; returns [false] otherwise (the caller retries elsewhere).
    Commitment is asynchronous — watch [on_apply]. *)

val log_length : t -> int
