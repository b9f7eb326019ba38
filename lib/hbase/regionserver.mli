(** HBase-style region server: registers itself in ZooKeeper, tracks its
    region assignments through one-shot znode watches, looks up the
    master's address once, and heartbeats it.

    HBASE-5755 ("region server looking for master forever with cached
    stale data"): the master's location is cached at lookup time; after a
    master failover the cached address points at a corpse and the
    bug-era server retries it forever instead of re-reading ZooKeeper.
    [relookup_on_failure] applies the fix.

    The serving set is one-shot-watch driven: each ["region/<r>"] key in
    [watched_regions] is armed at start; when a watch fires, the bug-era
    server adopts the event's payload and re-arms blind, so an
    assignment committed between the firing and the re-arm is never
    observed (it keeps serving a region it lost, or never starts serving
    one it gained). [rearm_then_read] applies the fix: re-arm first,
    adopt the value the re-arm returns. *)

type t

val create :
  net:Dsim.Network.t ->
  name:string ->
  zk:Zk.t ->
  ?relookup_on_failure:bool ->
  ?rearm_then_read:bool ->
  ?watched_regions:string list ->
  unit ->
  t
(** Heartbeats the master every 150 ms. *)

val start : t -> unit

val name : t -> string

val is_up : t -> bool
(** Whether the server's own node is up, read through its
    {!Dsim.Network.peer}. *)

val is_serving : t -> string -> bool

val serving_changes : t -> int
(** Regions gained or lost so far: {!is_serving} changes only when this
    moves. *)

val cached_master : t -> string option
(** The master address this server currently believes in. *)

val consecutive_failures : t -> int
(** The HBASE-5755 signature: grows without bound when the cached master
    is dead and no re-lookup happens. *)
