(** RPC vocabulary of the control plane: the store API.

    One closed request type, served by both {!Etcd} and {!Apiserver}:
    lists and gets (from the apiserver's cache unless [quorum]),
    transactions, leases and watches. The apiserver forwards what it
    does not serve from its cache to etcd as the same request. Watch
    requests carry the subscriber's delivery closure; the resulting
    stream is a {!Pipe} so delivery stays FIFO and interceptable. *)

type watch_request = {
  prefix : string option;
  start_rev : int;  (** last revision the subscriber has already seen *)
  subscriber : string;  (** subscriber's network address *)
  stream_id : string;
      (** unique per (subscriber, watched prefix); servers key
          subscriptions by it so one component can hold several watches *)
  deliver : Pipe.item -> unit;
}

type listing = { items : (string * Resource.value * int) list; rev : int }
(** key, value, mod-revision; [rev] is the serving view's revision *)

type outcome = { succeeded : bool; rev : int }

type watch_start =
  | Watching
  | Compacted of int
      (** the requested start revision precedes the server's retained
          window, which begins after the given revision; the subscriber
          must re-list *)

type _ request =
  | List : { prefix : string; quorum : bool } -> listing request
      (** [quorum = false] is served from the apiserver's cache — the
          scalable, possibly stale read path every component uses. etcd
          serves every read from its store and ignores the flag. *)
  | Get : { key : string; quorum : bool } -> (Resource.value * int) option request
      (** the value and its mod-revision *)
  | Txn : { txn : Resource.value Etcdlike.Txn.t; origin : string; lease : int option }
      -> outcome request
      (** [origin] is the component that initiated the write (carried
          through apiserver forwarding) — the causality planner's raw
          material. Keys written by the success branch are attached to
          [lease] when given: they vanish when it expires. *)
  | Lease_grant : { ttl : int } -> int request
  | Lease_keepalive : { lease : int } -> bool request
      (** [false]: the lease expired or never existed *)
  | Lease_revoke : { lease : int } -> unit request
  | Watch : watch_request -> watch_start request

type 'a reply = ('a, [ `Unavailable ]) result
(** [Error `Unavailable]: the server could not reach its backend to
    serve the request. *)

module Store :
  Dsim.Network.SERVICE with type 'a request = 'a request and type 'a reply = 'a reply

(** {2 Transaction shorthands} *)

val put : string -> Resource.value -> Resource.value Etcdlike.Txn.t
(** Unconditional write. *)

val delete : string -> Resource.value Etcdlike.Txn.t

val items_to_state :
  (string * Resource.value * int) list -> Resource.value History.State.t
(** Rebuilds a materialized state from a list response (used by caches
    after a re-list). The state's revision is the max mod-revision of the
    items; callers should track the response's [rev] separately. *)
