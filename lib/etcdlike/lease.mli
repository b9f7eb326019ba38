(** Leases: TTL-scoped ownership of keys, as in etcd / Chubby.

    Time is supplied by the caller (the simulator's virtual clock), so the
    module stays pure with respect to real time. When a lease expires or
    is revoked, the store deletes the keys attached to it — that deletion
    is how session-scoped objects (locks, member registrations) vanish
    when their owner goes silent — and forgets the lease with {!revoke}
    once the deletes have committed. *)

type id = int

type t

val create : unit -> t

val grant : t -> ttl:int -> now:int -> id
(** [ttl] in virtual microseconds. *)

val attach : t -> lease:id -> key:string -> unit
(** Unknown lease ids are ignored (the lease may have just expired). *)

val keys : t -> lease:id -> string list

val keepalive : t -> lease:id -> now:int -> bool
(** Refreshes the deadline; [false] if the lease no longer exists. *)

val revoke : t -> lease:id -> string list
(** Removes the lease; returns its keys (to delete). *)

val expired : t -> now:int -> (id * string list) list
(** Every lease whose deadline has passed, with its attached keys, in id
    order. Leaves them in place. Call on a timer. *)

val ttl_remaining : t -> lease:id -> now:int -> int option

val active : t -> int
