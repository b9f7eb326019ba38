(** Message-passing network between simulated nodes.

    Nodes are identified by string addresses. The network models request /
    response RPC with latency, one-way casts (used for watch-event
    streams), symmetric partitions, node crashes and restarts. Crashing a
    node bumps its incarnation number so that in-flight replies addressed
    to the previous incarnation are dropped rather than delivered into the
    restarted process — exactly the asymmetry that lets a restarted
    component re-synchronize from a stale upstream. *)

type address = string

type request = ..
(** Extensible RPC request type; each subsystem adds its own cases. *)

type response = ..

type cast = ..
(** One-way notification payloads (watch events, heartbeats). *)

type error =
  | Timeout  (** no reply within the deadline *)
  | Unreachable  (** destination address was never registered *)

type latency_model =
  | Uniform of { min : int; max : int }
  | Exponential of { mean : float; floor : int }
      (** heavy-tailed delays: [floor + Exp(mean)] microseconds *)

type t

val create :
  ?min_latency:int -> ?max_latency:int -> Engine.t -> t
(** One-way message latency is uniform in [\[min_latency, max_latency\]]
    microseconds (defaults 500–2000). *)

val engine : t -> Engine.t

val register :
  t ->
  address ->
  serve:(src:address -> request -> (response -> unit) -> unit) ->
  ?on_cast:(src:address -> cast -> unit) ->
  unit ->
  unit
(** Installs (or replaces, after a restart) the node's handlers. [serve]
    receives a reply continuation which may be invoked asynchronously. *)

val set_lifecycle :
  t -> address -> on_crash:(unit -> unit) -> on_restart:(unit -> unit) -> unit
(** Hooks invoked by {!crash} and {!restart}; components reset volatile
    state in [on_crash] and rebuild caches in [on_restart]. *)

val is_up : t -> address -> bool

val liveness_changes : t -> int
(** Nodes created, crashed or restarted so far: {!is_up} can change only
    when this moves. *)

val incarnation : t -> address -> int

val crash : t -> address -> unit
(** Marks the node down, bumps its incarnation and runs its [on_crash]
    hook. Messages to or from a down node are dropped at delivery time. *)

val restart : t -> address -> unit
(** Marks the node up again and runs its [on_restart] hook. *)

val partition : t -> address -> address -> unit
(** Cuts the (symmetric) link between two addresses. *)

val heal : t -> address -> address -> unit

val heal_all : t -> unit

val partitioned : t -> address -> address -> bool

val call :
  t ->
  src:address ->
  dst:address ->
  ?timeout:int ->
  request ->
  ((response, error) result -> unit) ->
  unit
(** Asynchronous RPC. The continuation runs exactly once, with [Error
    Timeout] if the request or reply is lost to a partition or crash.
    Default timeout: 1 second of virtual time. *)

val cast : t -> src:address -> dst:address -> cast -> unit
(** Fire-and-forget delivery after one latency sample; silently dropped if
    the link is partitioned or the destination is down at delivery time. *)

val sample_latency : t -> int
(** One latency draw from the network's distribution — for layers (like
    watch-stream pipes) that model their own FIFO delivery on top. *)

val set_latency_model : t -> latency_model -> unit
(** Replaces the delay distribution for all future messages (existing
    in-flight deliveries keep their sampled times). *)
