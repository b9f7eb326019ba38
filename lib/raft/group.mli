(** Convenience wrapper: a whole Raft group on one engine, with the
    cross-replica views a test or experiment needs. *)

type t

val create :
  net:Dsim.Network.t ->
  n:int ->
  ?prefix:string ->
  ?favored:string ->
  ?on_apply:(id:string -> index:int -> command:string -> unit) ->
  unit ->
  t
(** [n] replicas named [<prefix>-1 .. <prefix>-n] (default prefix
    ["raft"]), each applying committed commands into a per-replica
    list, with {!Node}'s timing. [favored] names the replica that
    should win the first election: it runs with the minimum election
    timeout (150 ms) and no jitter, so on a quiet network it
    deterministically beats its jittered peers to the first candidacy
    (later, faulted elections are decided by the seed as usual).
    [on_apply] is the external apply path: it fires once per
    replica per committed entry, in log order, after the internal
    per-replica list is updated — {!Replicated.Kv} hangs each replica's
    deterministic state-machine apply off this hook. *)

val start : t -> unit

val nodes : t -> Node.t list

val names : t -> string list

val leaders : t -> Node.t list
(** Nodes currently believing they are leader (possibly several across
    different terms during churn; at most one per term). *)

val leader : t -> Node.t option
(** The highest-term believer, if any. *)

val propose_via_leader : t -> string -> bool
(** Proposes on the current highest-term leader; [false] when none. *)

val applied : t -> string -> string list
(** Commands the named replica has applied, in order. *)

val committed_prefix : t -> string list
(** The longest applied prefix common to all replicas — with the log
    matching property this is simply the shortest applied log. Raises
    [Invalid_argument] if replicas disagree on a shared index (a safety
    violation worth crashing a test over); the message names the
    violating index, both replica ids and the two commands they
    applied. *)

val committed_prefix_of_logs : (string * string list) list -> string list
(** The pure comparison {!committed_prefix} runs over its replicas'
    [(id, applied)] pairs — exposed so the safety-violation exception is
    unit-testable (a live group can never legally produce divergent
    applied logs). *)
