(** The Kubernetes dialect of the conformance core ({!Wiring}).

    [attach] threads one monitor through every cache boundary the paper
    names: the store's commit stream ([Etcd.commits] feeds the mirror —
    the {e canonical} leader-committed stream when the store is
    replicated), each apiserver watch cache and every component informer
    (via the read-only {!Kube.Tap}s), plus a periodic state spot-check of
    every cache against the committed history. Under a replicated store
    each replica's applied state machine is swept too, as stream
    ["<replica><-raft"]: replication lag registers as a [Lag] divergence
    off the canonical history, and a non-deterministic apply trips
    [State_divergence] — followers must be stale, never wrong. The
    core {!Monitor.relax}es the monitor the first time a strategy
    *drops* an event — from then on gaps and divergent caches are the
    experiment, not a defect — while delays, partitions and
    crash/restarts keep strict mode (FIFO pipes and re-list recovery
    preserve the strong invariants).

    Attach after {!Kube.Cluster.create} and before {!Kube.Cluster.start},
    so the mirror sees the seeding commits. The monitor is passive: it
    draws no randomness and emits trace/metrics records only when a
    violation fires, so attaching it leaves a correct run's trajectory,
    trace and journal byte-identical. *)

type t = Kube.Resource.value Wiring.t

val attach : ?track_divergence:bool -> Kube.Cluster.t -> t
(** Each periodic sweep (every 500 ms of virtual time) skips caches whose
    claimed revision and tap activity are unchanged since their last
    completed check, so quiet components cost nothing, and re-judges only
    the bindings that changed in the others ({!Monitor.check_state}): the
    taps name the keys they apply, each replica's commits name its keys,
    and a cache that changed with no tap (an apiserver crash) is judged
    whole. Violations are recorded in the trace as
    ["conformance.violation"] entries and counted in the
    ["conformance.violations"] metric.

    [track_divergence] (default false) additionally records each
    stream's divergence point ({!Monitor.divergence}): skips and rewinds
    are caught at the taps, and each sweep ages the first undelivered
    committed event of every stream against the engine clock
    ({!Wiring.flag_lag}). Tracking draws no randomness and schedules
    nothing extra, so it leaves the run's trajectory and trace
    unchanged. *)
