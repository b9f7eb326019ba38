(** Watch-stream table: the subscribers one upstream serves, each on
    its own {!Pipe}.

    A stream carries a component's partial history [H']: the
    prefix-filtered, order-preserving subsequence of the upstream's
    history after the subscriber's start revision. {!Etcd} (both
    backends) and {!Apiserver} keep their subscribers here; deciding
    whether a start revision is still retained, and refusing it as
    compacted, stays with them.

    Fan-out is one walk over the table: every {!publish}, {!heartbeat},
    {!seal} and {!clear} visits each open stream and checks its replica
    pin, prefix and last-sent revision. The visiting order is pinned:
    every {!Pipe.send} draws a latency from the engine's one seeded RNG,
    so the order decides which draw each stream gets and with it every
    delivery time in the trace. The table is a hashtable keyed by stream
    id that sees every subscribe, replacement and {!clear}, and walks
    visit it in its iteration order; the fixed-seed journals rest on
    that order.

    Invariant: nothing inside a walk changes the table. A walk calls
    only {!Pipe.send}, {!Pipe.close} and {!heartbeat}'s [frontier], and
    a pipe never delivers synchronously: it schedules the item on the
    engine or drops it. So
    a subscriber that re-subscribes or unsubscribes from its delivery
    callback does so in a later engine step, after the walk is over. *)

type t

val create :
  net:Dsim.Network.t -> intercept:Resource.value History.Intercept.t -> src:string -> t
(** An empty table for the upstream node [src]: every pipe runs from
    [src] to its subscriber through [intercept]. *)

val subscribe :
  t ->
  Messages.watch_request ->
  replica:string option ->
  backlog:((Resource.value History.Event.t -> unit) -> unit) ->
  unit
(** Opens the request's stream. A stream with the same id is closed
    and removed first. [backlog push] must call [push] on the retained
    events in revision order; events at or below the start revision are
    skipped. [replica] pins the stream to the store replica serving it
    ([None] for an unreplicated upstream). *)

val publish : t -> replica:string option -> Resource.value History.Event.t -> unit
(** Sends the event, in pinned order, to every stream that is pinned to
    [replica], whose prefix matches the key, and that was not sent a
    revision at or past it. *)

val heartbeat : t -> frontier:(string option -> int) -> seal:bool -> unit
(** Per stream, in pinned order: a [Bookmark] at [frontier replica] for
    the stream's replica pin, then, when [seal], a [Seal] at the same
    revision counting the events sent since the stream's previous seal.
    A stream pinned to a replica that is down gets nothing. *)

val seal : t -> upto_rev:int -> unit
(** A [Seal] on every stream, in pinned order. *)

val clear : t -> unit
(** Closes and removes every stream. *)

val ids : t -> string list
(** Open stream ids, sorted. *)

val count : t -> int
