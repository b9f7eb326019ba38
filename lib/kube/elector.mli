(** Lease-based leader election, as controllers use the coordination API
    for active/standby replication.

    A candidate acquires leadership by writing a lock object guarded by
    [Absent] and attached to a store lease; it renews the lease
    periodically and *believes* it is leader until its conservative local
    deadline (last successful renewal + TTL) passes. When the holder goes
    silent, the store expires the lease, deletes the lock, and the next
    candidate's acquire succeeds.

    This is the trade the paper describes for leases (§4.1): dual
    leadership is prevented — the belief deadline is always at or before
    the store-side expiry, so beliefs never overlap — but failover is
    *blocked until the lease term expires*, and the elected leader's
    cached view of the world can still be arbitrarily stale. *)

type t

val create :
  net:Dsim.Network.t ->
  name:string ->
  lock:string ->
  endpoints:string list ->
  ?ttl:int ->
  unit ->
  t
(** [name] is the candidate's network address (used as the lock holder
    id and the client identity). Defaults: TTL 2 s, renewal every
    TTL/4. *)

val start : t -> unit

val stop : t -> unit
(** Graceful resignation: revokes the lease so the lock vanishes
    immediately and a standby can take over without waiting out the
    TTL. *)

val name : t -> string

val believes_leader : t -> bool
(** The candidate's local belief — the quantity that could, in a system
    without guards, act on the world. *)

val transitions : t -> (int * bool) list
(** (time, gained?) belief transitions, oldest first. *)
