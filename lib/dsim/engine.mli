(** Discrete-event simulation engine.

    The engine owns a virtual clock, a deterministic event queue and the
    root PRNG. Each scheduled event occupies a slot in preallocated
    arrays until it fires or is cancelled, so scheduling, firing and
    cancelling allocate nothing; events fire in ascending [(time, seq)]
    order, [seq] being the scheduling order, so equal-time events run
    first come, first served, except that {!schedule_first} events take
    their seqs from a band below all others and so fire first at their
    instant. The queue is one hashed timing wheel of
    256 buckets, each 4,096 us wide and kept sorted: an event waits in
    the bucket of its deadline modulo one lap (about 1.05 s), however
    many laps ahead it is due. A fresh engine lives in the minor heap: its
    bucket array is 256 words, the largest block the minor heap takes.
    All concurrency in the simulated infrastructure is cooperative: a
    component runs to completion inside its event handler and schedules
    future work with {!schedule}. Two runs with the same seed and the
    same schedule of calls are bit-for-bit identical. *)

type t

type timer
(** Handle to a scheduled event; can be cancelled before it fires. A
    handle is an immediate value: holding one keeps nothing alive. *)

val create : ?seed:int64 -> unit -> t
(** [create ()] makes an engine at virtual time 0, with a fresh trace and
    metrics registry. The default seed is [1L]; pass an explicit seed to
    vary an experiment. *)

val now : t -> int
(** Current virtual time in microseconds. *)

val rng : t -> Rng.t
(** The engine's root generator. Components should [Rng.split] it once at
    construction rather than sharing it, so that adding a component does
    not shift every other component's stream. *)

val trace : t -> Trace.t

val metrics : t -> Metrics.t
(** The engine's metrics registry: counters, gauges, histograms and
    virtual-time series shared by every instrumented component. *)

(** {2 Causality}

    The engine maintains a *causal frontier*: the id of the trace entry
    that explains whatever is currently executing. The frontier is
    captured when a timer is scheduled and restored when it fires, so
    causality flows through the event queue without any plumbing at the
    call sites — an RPC reply is caused by whatever scheduled the
    request, a watch delivery by the commit that pushed it.
    {!emit_deferred} advances the frontier; {!record} does not. *)

val current_cause : t -> int option
(** The causal frontier of the event being executed right now. *)

val set_cause : t -> int option -> unit
(** Overrides the frontier; rarely needed outside the engine itself. *)

val record : ?cause:int -> t -> actor:string -> kind:string -> string -> unit
(** Appends to the trace at the current virtual time, linked to [cause]
    (default: the current frontier). Does not move the frontier. *)

val emit_deferred : t -> actor:string -> kind:string -> (unit -> string) -> int
(** Appends an entry caused by the current frontier, returns its id and
    makes it the current frontier, so later records and scheduled work
    chain to it. The detail is rendered only when the trace is read
    ({!Trace.emit_deferred}): for the hot kinds, whose details would
    otherwise be formatted once per commit or delivery. The renderer
    must close only over values fixed at record time. *)

val schedule : t -> delay:int -> (unit -> unit) -> timer
(** [schedule t ~delay f] runs [f] at [now t + max 0 delay]. *)

val schedule_at : t -> time:int -> (unit -> unit) -> timer
(** Absolute-time variant; times in the past fire at the current time. *)

val schedule_first : t -> time:int -> (unit -> unit) -> timer
(** [schedule_at] for an event that fires first at its instant: before
    every event scheduled with {!schedule} or {!schedule_at} for the
    same time, whenever that one was scheduled, and after the
    [schedule_first] events scheduled before it for that time. Fault
    actions use it ({!Fault.apply}), so a fault plan installed on a
    running engine orders against the pending events exactly as one
    installed before the first event. *)

val cancel : t -> timer -> unit
(** Takes the event out of its wheel bucket at once and frees its
    slot, so its closure is collectable.
    A no-op for a timer that has fired or was cancelled, even if its
    slot now holds a newer event. *)

val pending : t -> int
(** Number of scheduled events that have neither fired nor been
    cancelled. *)

val step : t -> bool
(** Pops and runs the next event. Returns [false] when no event is
    pending; a cancelled event is never popped. *)

val run : ?until:int -> t -> unit
(** Runs events until none is pending or the next one lies beyond
    [until]. Events scheduled exactly at [until] still run. Each next
    event is found once: the first bucket head due at the very tick a
    scan of at most one lap reaches, starting no later than the
    earliest pending tick; else, every event being a lap or more
    ahead, the earliest bucket head.

    Clock rule: a cancelled event leaves the queue at once, yet the
    clock ends where it would if the event had stayed queued and been
    popped unfired. For that the engine keeps the latest cancelled
    deadline. At the end of [run ~until:h] the clock moves to [h] if an
    event is still pending or that deadline lies beyond [h], and
    otherwise to that deadline if it is later than [now]. A [run]
    without [until] that drains the queue also ends at that deadline if
    it is later than [now]. *)

val every : t -> period:int -> (unit -> bool) -> unit
(** [every t ~period f] runs [f] now and then every [period] until [f]
    returns [false]. Used for resync loops, health checks and reconcile
    timers. Raises [Invalid_argument] if [period <= 0]: such a loop
    would never let the clock advance. *)
