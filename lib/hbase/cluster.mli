(** The HBase-dialect cluster behind the shared substrate interface:
    a ZooKeeper leader/follower pair, one master, N region servers, and
    a "user" client driving the workload — mirroring [Kube.Cluster]'s
    construction/start/run shape so the sieve runner can drive either
    substrate through [Core.Substrate]. *)

type config = {
  seed : int64;
  servers : int;
  replication_lag : int;
  compaction_window : int option;
  sync_before_cas : bool;  (** HBASE-3137: master syncs the follower before reading *)
  relookup_on_failure : bool;  (** HBASE-5755 fix on the region servers *)
  rearm_then_read : bool;  (** one-shot-watch fix on the region servers *)
  follower_leader_revs : bool;  (** follower reads report leader mod-revisions *)
  min_latency : int;
  max_latency : int;
  obs_sample_period : int;
}

val default_config : config

val regions : string list
(** The regions the master balances and every region server watches:
    ["r1"] to ["r4"]. *)

type op =
  | Move_region of { at : int; region : string; to_ : string }
      (** Client-driven assignment write at the leader (a split/move as
          seen by ZooKeeper); armed watches on the key fire. *)
  | Decommission of { at : int; server : string }
      (** Remove the server from ["rs/registry"] (fresh read, then
          write) and shut it down once the write is acknowledged. *)
  | Put of { at : int; key : string; value : string }
      (** Arbitrary leader write — metadata churn. *)

type workload = op list

type t

val create : config -> t

val start : t -> unit
(** Seeds ["rs/registry"] with every server at the leader (origin
    "boot"), starts the master and the region servers, and begins
    sampling the follower's replication lag as ["lag.zk-follower"]. *)

val schedule : t -> workload -> unit

val run : until:int -> t -> unit

val server_name : int -> string
(** [server_name i] is ["rs-<i+1>"]. *)

val components : config -> string list
(** The fault-injectable processes: the master and the region servers. *)

val user : string

val config : t -> config

val engine : t -> Dsim.Engine.t

val net : t -> Dsim.Network.t

val intercept : t -> string History.Intercept.t

val zk : t -> Zk.t

val master : t -> Master.t

val region_servers : t -> Regionserver.t list

val trace : t -> Dsim.Trace.t

val metrics : t -> Dsim.Metrics.t

val truth_rev : t -> int
(** The leader store's revision — the committed history's frontier. *)
