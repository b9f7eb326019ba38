(** Message-passing network between simulated nodes.

    Nodes are identified by string addresses. The network models request /
    response RPC with latency, one-way casts (ZooKeeper watch firings),
    symmetric partitions, node crashes and restarts. Crashing a
    node bumps its incarnation number so that in-flight replies addressed
    to the previous incarnation are dropped rather than delivered into the
    restarted process — exactly the asymmetry that lets a restarted
    component re-synchronize from a stale upstream.

    Nodes are never removed or replaced: once an address has joined,
    its node record is the same for the rest of the run, across crashes
    and restarts. {!peer} relies on this.

    RPC is typed per {!Service}: one closed request type indexed by reply
    type, so a handler covers all its requests and a caller gets exactly
    the reply its request asks for. A request reaching a live node that
    does not serve its service is traced and counted as [net.unhandled]
    at the destination; the caller times out. Calls and casts are
    addressed by {!peer} handles, which each component keeps for itself
    and for its destinations, so the hot path never looks an address
    up. Fault plans still crash, restart and partition by address. *)

type address = string

type error =
  | Timeout  (** no reply within the deadline *)
  | Unreachable  (** destination address was never registered *)

type latency_model =
  | Uniform of { min : int; max : int }
  | Exponential of { mean : float; floor : int }
      (** heavy-tailed delays: [floor + Exp(mean)] microseconds *)

type t

val create : Engine.t -> t
(** One-way message latency is uniform in [\[500, 2000\]] microseconds
    until {!set_latency_model} replaces the distribution. *)

val engine : t -> Engine.t

val join : t -> address -> unit
(** Creates the node, up, if it does not exist yet: a component that
    only sends needs no more than this (or {!set_lifecycle}). *)

val set_lifecycle :
  t -> address -> on_crash:(unit -> unit) -> on_restart:(unit -> unit) -> unit
(** Hooks invoked by {!crash} and {!restart}; components reset volatile
    state in [on_crash] and rebuild caches in [on_restart]. Creates the
    node if needed. *)

val is_up : t -> address -> bool
(** [false] for an address that never joined. Looks the address up:
    for a component's own address, read a {!peer} instead. *)

val liveness_changes : t -> int
(** Nodes created, crashed or restarted so far: {!is_up} can change only
    when this moves. *)

val incarnation : t -> address -> int
(** [0] for an address that never joined. *)

type peer
(** One address's node, held for RPC and for repeated liveness checks.
    A peer resolves its node on first use after the address joins and
    then reads the record's fields directly, with no lookup; it stays
    valid for good because nodes are never removed or replaced. *)

val peer : t -> address -> peer
(** May be made before the address joins. *)

val address : peer -> address

val peer_is_up : peer -> bool
(** Same answer as {!is_up} for the peer's address. *)

val peer_incarnation : peer -> int
(** Same answer as {!incarnation} for the peer's address. *)

val crash : t -> address -> unit
(** Marks the node down, bumps its incarnation and runs its [on_crash]
    hook. Messages to or from a down node are dropped at delivery time.
    Handlers stay registered across the crash. *)

val restart : t -> address -> unit
(** Marks the node up again and runs its [on_restart] hook. *)

val partition : t -> address -> address -> unit
(** Cuts the (symmetric) link between two addresses. *)

val heal : t -> address -> address -> unit

val heal_all : t -> unit

val partitioned : t -> address -> address -> bool
(** Walks the cuts comparing strings in place: allocates nothing. *)

(** A typed endpoint: ['a request] is a request whose reply has type
    ['a reply]. *)
module type SERVICE = sig
  type 'a request
  type 'a reply

  type handler = { serve : 'a. src:peer -> 'a request -> ('a reply -> unit) -> unit }
  (** [serve] may invoke its reply continuation asynchronously. [src] is
      the caller's own handle, so a server can answer or notify it later
      without a lookup. *)

  val register : t -> address -> handler -> unit
  (** Makes the node (created if needed) serve this service with the
      handler. A node serves one service: this replaces its handler,
      whichever service it was for. *)

  val call :
    src:peer ->
    dst:peer ->
    ?timeout:int ->
    'a request ->
    (('a reply, error) result -> unit) ->
    unit
  (** Asynchronous RPC from [src] to [dst], two peers of one network.
      The continuation runs exactly once: synchronously with [Error
      Unreachable] if [dst] has never joined (a later call is served
      once it has), and otherwise with [Error Timeout] if the request or
      reply is lost to a partition or crash, or [dst] does not serve this
      service. Default timeout: 1 second of virtual time. *)

  val cast : src:peer -> dst:peer -> unit request -> unit
  (** One-way delivery after one latency sample (no reply, no timer);
      dropped if [dst] has never joined, or if the link is partitioned
      or [dst] is down by then. *)
end

module Service (S : sig
  type 'a request
  type 'a reply
  val name : string  (** names the service in [net.unhandled] entries *)
end) : SERVICE with type 'a request = 'a S.request and type 'a reply = 'a S.reply

val sample_latency : t -> int
(** One latency draw from the network's distribution — for layers (like
    watch-stream pipes) that model their own FIFO delivery on top. *)

val set_latency_model : t -> latency_model -> unit
(** Replaces the delay distribution for all future messages (existing
    in-flight deliveries keep their sampled times). *)
