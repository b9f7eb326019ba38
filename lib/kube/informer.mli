(** Informer: the client-side list + watch cache every component runs
    (the analogue of [k8s.io/client-go/tools/cache]).

    The informer lists a prefix from one of its configured apiservers,
    materializes a local store [S'], then watches from the listed
    revision, applying events and invoking the component's handler. It is
    the last cache layer in Figure 1 — and the layer where all five case
    study bugs observe the world from.

    Recovery behaviour, deliberately faithful to the bug-era semantics:

    - A dead stream (no events *and* no bookmarks within the timeout) is
      detected and answered with a rotation to the next endpoint and a
      re-list. A stream whose individual events are dropped keeps its
      bookmarks and is never detected.
    - A re-list *replaces* the store with whatever the chosen apiserver's
      cache holds. History cannot be recovered from state, and if that
      apiserver is stale the informer silently travels back in time —
      unless [monotonic] is set (the Kubernetes-59848 fix), in which case
      a list whose revision would move the store backwards is rejected
      and another endpoint is tried. *)

type t

val create :
  net:Dsim.Network.t ->
  owner:string ->
  endpoints:string list ->
  prefix:string ->
  ?on_event:(Resource.value History.Event.t -> unit) ->
  ?on_reset:(Resource.value History.State.t -> unit) ->
  ?monotonic:bool ->
  unit ->
  t
(** [on_event] runs after each event is applied to the store; [on_reset]
    after each full re-list, with the listed store. Defaults: not
    monotonic, stream declared dead after 1 s, retries every 300 ms. *)

val start : t -> ?endpoint:int -> unit -> unit
(** (Re)starts syncing, optionally pinning the initial endpoint index
    (modulo the endpoint count). Restarting bumps the generation so stale
    callbacks from a previous life are ignored. *)

val stop : t -> unit

val running : t -> bool

val owner : t -> string

val prefix : t -> string
(** The key prefix this informer lists and watches. *)

val store : t -> Resource.value History.State.t

val rev : t -> int
(** The view's frontier — decreases after a re-list from a stale
    apiserver (time travel). *)

val current_endpoint : t -> string

val relists : t -> int

val gaps_detected : t -> int
(** Holes exposed by epoch seals (requires the serving apiserver to have
    [epoch_seal] enabled); each one triggered an immediate re-list. *)

val set_tap : t -> Tap.t option -> unit
(** Installs (or removes) a conformance {!Tap} observing this store's
    delivery points: applied watch events, bookmark/seal frontier advances
    and list-based rebuilds. Installing on a running informer that already
    adopted a list immediately replays the adoption as [on_reset], so late
    observers start from the adopted revision. Taps are read-only; see
    {!Tap}. *)
