(** Apiserver: a caching façade over etcd.

    Mirrors the design Figure 1 describes: each apiserver keeps a local
    cache [(H', S')] of the store, updated by an etcd watch stream, and
    serves component reads and watches *from that cache* so that etcd is
    not the bottleneck. Writes and quorum reads are forwarded to etcd.

    The cache makes the apiserver exactly as trustworthy as its watch
    stream: a partition between this apiserver and etcd freezes its view
    while it keeps serving — the stale reads at the heart of
    Kubernetes-59848. A bounded in-memory window of recent events backs
    subscriber watch resumption; subscribers whose start revision fell out
    of the window are told to re-list (from this cache, not from etcd). *)

type t

val create :
  net:Dsim.Network.t ->
  intercept:Resource.value History.Intercept.t ->
  name:string ->
  etcd:string ->
  ?window_size:int ->
  ?epoch_seal:int ->
  unit ->
  t
(** Window 1000 events by default. Bookmarks go out every 200 ms, the
    etcd stream is declared dead after 1 s without traffic, and failed
    list/watch attempts retry every 300 ms.

    [epoch_seal] enables the Section 6.2 epoch protocol: every given
    number of cache revisions, each subscriber stream carries a {!Pipe}
    [Seal] stating how many matching events were sent since the last one.
    Consumers can then *detect* holes in their partial history — silent
    event loss becomes a visible integrity failure. Raises
    [Invalid_argument] unless it is positive. *)

val start : t -> unit
(** Begins the list + watch bootstrap against etcd and installs crash /
    restart hooks. *)

val name : t -> string

val ready : t -> bool
(** True once the initial list succeeded; the apiserver only serves when
    ready. *)

val rev : t -> int
(** Revision of the cache — lags etcd by the stream's staleness. *)

val cache : t -> Resource.value History.State.t
(** The cached [S'] (for oracles and divergence probes). *)

val subscriber_count : t -> int

val set_tap : t -> Tap.t option -> unit
(** Installs (or removes) a conformance {!Tap} observing this cache's
    delivery points: applied watch events, bookmark frontier advances and
    list-based rebuilds. Installing after the cache adopted state
    immediately replays the adoption as [on_reset], so late observers
    start from the adopted revision. Taps are read-only; see {!Tap}. *)
