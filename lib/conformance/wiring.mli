(** The conformance core every substrate shares: one {!Monitor} wired
    into a cluster's engine, committed-history stream and interceptor.

    A dialect supplies only what differs — the taps that feed its
    consumers' deliveries to the monitor, the caches its sweep checks and
    the streams its sweep ages. The core owns the rest: the violation
    sink (a ["conformance.violations"] count and a
    ["conformance.violation"] trace entry per distinct violation), the
    mirror feed, the relaxation of strict mode at the first interceptor
    [Drop], and the periodic sweep (every 500 ms of virtual time). *)

type 'v t

val attach :
  engine:Dsim.Engine.t ->
  commits:'v Etcdlike.Commits.t ->
  intercept:'v History.Intercept.t ->
  track_divergence:bool ->
  taps:('v t -> unit) ->
  check:('v t -> unit) ->
  lag:('v t -> unit) ->
  'v t
(** Registers, in this order: the mirror feed on [commits] (whose commit
    times divergence tracking ages events against), the dialect's [taps],
    the drop observer on [intercept], and the periodic sweep.
    Each sweep runs [check], then [lag] when tracking divergence. Attach
    before the cluster starts, so the mirror sees the seeding commits. *)

val monitor : 'v t -> 'v Monitor.t

type activity
(** One component's tap count. *)

val activity : 'v t -> string -> activity
(** The named component's tap count, shared by every cache it owns. *)

val note_activity : activity -> unit
(** A tap fired for this component: its caches may have changed. *)

type subject
(** One cache the sweep checks: its monitor subject name, its component's
    activity, and the (claimed revision, activity) of its last completed
    check. *)

val subject : 'v t -> component:string -> string -> subject

val check_state :
  'v t -> subject -> ?prefix:string -> rev:int -> (unit -> 'v History.State.t) -> unit
(** {!Monitor.check_state} on the cache the thunk returns, skipped — and
    the thunk not called — when neither the claimed revision nor the
    component's tap activity changed since the subject's last completed
    check. A check counts as completed only when [rev] was inside the
    mirror, so a future-revision claim is re-examined once the mirror
    catches up. The dialect must {!Monitor.touch} every binding it sees
    change in between. *)

val flag_lag : 'v t -> stream:string -> ?prefix:string -> frontier:int -> unit -> unit
(** Pure delay is invisible to the frontier checks (FIFO pipes preserve
    the subsequence), so staleness-by-lag is measured here: when the
    first committed event matching [prefix] above [frontier] has gone
    undelivered for more than 250 ms of virtual time (above transport
    latency, below any injected delay worth diagnosing), records a
    {!Monitor.note_lag} divergence on [stream] whose frontier is
    [frontier]. *)

val finish : 'v t -> unit
(** One last sweep — call after the run, so short horizons that never
    reached a periodic check are still verified. *)
