(** HBase-style master: assigns regions to region servers through
    compare-and-set transitions on ZooKeeper state.

    Region servers register under ["rs/<name>"]; regions live under
    ["region/<name>"] holding the assigned server. Each balancing pass
    reads assignments and the live-server set from the *follower*
    (cached, possibly stale — the HBASE-3136 hazard) and repairs
    assignments with CAS at the leader; a stale read makes the CAS fail
    and the transition is retried on the next pass.

    [sync_before_cas] applies the HBASE-3136 fix (sync the follower
    before reading), whose leader-load cost is HBASE-3137.

    The master also publishes its own address at ["master"] so region
    servers can find it — the state behind HBASE-5755. *)

type _ request = Heartbeat : { server : string } -> unit request
(** Region server liveness ping. *)

module Rpc : Dsim.Network.SERVICE with type 'a request = 'a request and type 'a reply = 'a

type t

val create :
  net:Dsim.Network.t ->
  name:string ->
  zk:Zk.t ->
  regions:string list ->
  ?sync_before_cas:bool ->
  unit ->
  t
(** Balances every 100 ms. *)

val start : t -> unit
(** Publishes ["master"] = [name] and begins balancing. Serves region
    server heartbeats. *)

val transitions : t -> int
(** Successful region transitions. *)

val cas_failures : t -> int
(** Transitions rejected because the read state was stale. *)

