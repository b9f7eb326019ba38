(** Write/read client used by components: forwards transactions and
    quorum reads to an apiserver, rotating endpoints on failure.

    Writes always reach etcd (apiservers forward them); only *reads* can
    be stale. The client retries a bounded number of times across
    endpoints before reporting the operation unavailable. *)

type t

val create :
  net:Dsim.Network.t ->
  owner:string ->
  endpoints:string list ->
  unit ->
  t
(** Retries up to 4 times, 200 ms between attempts. *)

val txn :
  ?lease:int ->
  t ->
  Resource.value Etcdlike.Txn.t ->
  ((Messages.outcome, [ `Unavailable ]) result -> unit) ->
  unit
(** Keys written by the success branch are attached to [lease] when
    given. *)

val txn_ : ?lease:int -> t -> Resource.value Etcdlike.Txn.t -> unit
(** Fire-and-forget transaction. *)

val get_quorum :
  t -> string -> (((Resource.value * int) option, [ `Unavailable ]) result -> unit) -> unit
(** Linearizable read, forwarded through an apiserver to etcd. *)

val owner_up : t -> bool
(** Whether the owner's node is up, read through its
    {!Dsim.Network.peer}: a request from a down owner is not sent. *)

val lease_grant : t -> ttl:int -> ((int, [ `Unavailable ]) result -> unit) -> unit

val lease_keepalive : t -> lease:int -> ((bool, [ `Unavailable ]) result -> unit) -> unit
(** [Ok false] when the lease no longer exists. *)

val lease_revoke : t -> lease:int -> unit

val list_quorum :
  t ->
  prefix:string ->
  (((string * Resource.value * int) list, [ `Unavailable ]) result -> unit) ->
  unit
(** Linearizable range read, forwarded through an apiserver to etcd. *)
