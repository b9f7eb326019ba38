(** FIFO watch-stream channel between an upstream cache and a subscriber.

    Unlike a network cast ({!Dsim.Network.SERVICE.cast}), deliveries on
    a pipe never reorder: each item becomes deliverable no earlier than
    the item before it, which is the TCP-stream property real watch
    connections have. The pipe is also where the Sieve interceptor sits:
    every event is submitted to the interceptor at send time and can be
    passed, dropped (the stream stays healthy — the subscriber cannot
    tell an event existed), or delayed (pushing back this event and, by
    FIFO, everything behind it).

    Items blocked by a partition or a down/restarted subscriber at
    delivery time are silently lost; subscribers detect dead streams via
    the periodic {!Bookmark} heartbeats and re-list. *)

type item =
  | Event of Resource.value History.Event.t
  | Bookmark of int
      (** progress notification carrying the upstream's current revision;
          never subject to interception decisions *)
  | Seal of { upto_rev : int; sent : int }
      (** end-of-epoch integrity marker (the Section 6.2 programming
          model): the upstream has sent exactly [sent] matching events on
          this stream since the previous seal, covering revisions up to
          [upto_rev]. Like bookmarks, seals are transport metadata and
          bypass interception — which is the point: a dropped event makes
          the next seal's count disagree with what arrived. *)

type t

val create :
  net:Dsim.Network.t ->
  intercept:Resource.value History.Intercept.t ->
  edge:History.Intercept.edge ->
  deliver:(item -> unit) ->
  unit ->
  t
(** [deliver] runs in the subscriber at delivery time. The pipe captures
    the subscriber's incarnation at creation: if the subscriber restarts,
    remaining deliveries are dropped (the new incarnation must
    re-subscribe, obtaining a fresh pipe). *)

val send : t -> item -> unit
(** Enqueues one item, consulting the interceptor for events. *)

val close : t -> unit
(** Stops all future deliveries. *)

val is_closed : t -> bool
(** True after {!close} or after a delivery was blocked by a partition,
    crash or subscriber restart — any blocked delivery breaks the whole
    stream, as a TCP reset would. *)
