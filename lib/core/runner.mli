(** Test runner: executes (workload × strategy) tests.
    Campaigns over candidate lists run through [Hunt.Campaign.execute].

    A test runs on a fresh cluster built from its config, or forks from a
    {!prefix}: a compiled image of its spec's unperturbed reference world,
    taken before the test's first perturbation, which is the run's own
    world up to then. Either way a test is hermetic and a failing test is
    replayable from its record alone. *)

type test = {
  name : string;
  spec : Substrate.spec;  (** which infrastructure, its config and workload *)
  horizon : int;  (** virtual microseconds to run *)
  strategy : Strategy.t;
}

val base_test :
  ?name:string ->
  ?config:Kube.Cluster.config ->
  workload:Kube.Workload.t ->
  horizon:int ->
  Strategy.t ->
  test
(** A kube-dialect test (the historical default, hence the name). *)

type conformance = {
  conf_violations : Conformance.Monitor.violation list;
      (** distinct violations, detection order *)
  conf_total : int;  (** total occurrences including deduplicated repeats *)
  conf_strict : bool;  (** monitor still in strict mode at the end of the run *)
}
(** Result of the online subsequence-invariant check, when requested. *)

type outcome = {
  test : test;
  violations : (int * Oracle.violation) list;
  truth_rev : int;
  live : Substrate.live;  (** post-run handle: trace, components, truth *)
  conformance : conformance option;  (** [Some] iff run with [check_conformance] *)
  hooks : Conformance.Handle.t option;
      (** the attached monitor wiring, when the run carried one
          ([check_conformance] or [diagnose]) — the divergence-point
          queries {!Diagnosis} needs *)
  forked : bool;  (** the run started from its [prefix] *)
  stopped : bool;  (** it ended before the horizon because [stop_at] fired *)
}

val kube_cluster : outcome -> Kube.Cluster.t
(** The kube cluster behind the outcome.
    @raise Invalid_argument on a non-kube outcome. *)

(** {2 Prefixes}

    A run with a strategy equals the unperturbed reference run up to any
    time strictly below {!Strategy.first_perturbation}. So runs of one
    spec can share that prefix: a reference world (the cluster with its
    oracle and, when asked, its monitor, started, its workload
    scheduled, no strategy) runs to an instant below a run's first
    perturbation and is compiled into a {!Dsim.Snapshot} image; the run
    instantiates the image, installs its strategy there and runs on.
    Fault actions fire first at their instant
    ({!Dsim.Engine.schedule_first}), so a strategy installed after the
    fork orders its faults exactly as one installed before [start]. *)

type prefix
(** A compiled image of a reference world, the instant it was taken at,
    and whether it carries a monitor. *)

val prefixes : ?check_conformance:bool -> Substrate.spec -> int list -> prefix list
(** One prefix per instant, from one reference world of the spec: built
    as {!run_test} builds a run's (the monitor iff [check_conformance],
    default false, never tracking divergence) but with no strategy, then
    run through the instants, its minor heap emptied and the world
    compiled at each. [prefixes _ []] builds nothing.
    @raise Invalid_argument when the instants are not strictly
    ascending. *)

val prefix : test -> prefix option
(** The monitor-less prefix a finding's runs share: [prefixes test.spec
    [min (first - 1) test.horizon]], where [first] is the test's
    {!Strategy.first_perturbation}. [None] when [first <= 1]: there is
    nothing before the first perturbation to share. *)

val prefix_bytes : prefix -> int
(** The image's size ({!Dsim.Snapshot.bytes}). *)

val run_test :
  ?check_conformance:bool ->
  ?diagnose:bool ->
  ?prefix:prefix ->
  ?stop_at:(Oracle.violation -> bool) ->
  test ->
  outcome
(** Runs the test to its horizon. With [check_conformance] (default
    false), a {!Conformance.Hooks} monitor is attached before the
    strategy and start, checking every cache boundary online; its
    findings land in {!outcome.conformance} and, as a ["conformance"]
    section, in {!artifact}. With [diagnose] (default false), the
    monitor is attached with divergence tracking so a downstream
    diagnosis can pinpoint where each stream left the committed
    subsequence ({!outcome.hooks}). Either way the monitor is passive —
    a run's trajectory, trace and metrics are unchanged unless a
    violation fires.

    With [prefix] (of the test's spec, taken at or before its horizon),
    the run forks from it when the prefix's instant is strictly below
    the test's first perturbation and its image fits in the minor heap
    ({!Dsim.Snapshot.instantiate}); otherwise it runs straight. Either
    way its violations, conformance, trace and metrics are the same.
    @raise Invalid_argument when the prefix carries a monitor and
    [check_conformance] is off or the other way round, and for
    [diagnose] with any prefix: a prefix never tracks divergence.

    With [stop_at], the run advances in slices of 100 ms of virtual time
    (both oracles' check period) from the clock it starts at, and stops
    at the end of the first slice after which a violation satisfying
    [stop_at] has been recorded, or at the horizon. Slicing is exact:
    nothing runs between two bounded runs, so consecutive bounds fire
    the events of one run to the horizon in the same order. And a run's
    violations only accumulate, so whether one satisfies [stop_at] is
    the same as in the run without it. *)

val violation_entry : outcome -> Dsim.Trace.entry option
(** The trace entry anchoring the run's first violation: the first
    ["oracle.violation"] entry when the oracle fired, otherwise the
    first ["conformance.violation"] entry — so monitor-only runs still
    have a causal anchor. *)

val causal_chain : outcome -> Dsim.Trace.entry list
(** The causal chain behind the first violation: cause links walked
    backwards from the {!violation_entry} to the originating store
    commit, returned oldest first — the Figure-2-style "why"
    walkthrough. Empty when the run found no violation. *)

val trace_jsonl : outcome -> string
(** The whole run trace as JSONL, one entry per line
    ({!Dsim.Trace.to_jsonl}). *)

val metrics_json : outcome -> Dsim.Json.t
(** Snapshot of the run's metrics registry ({!Dsim.Metrics.to_json}). *)

val artifact : outcome -> Dsim.Json.t
(** The machine-readable run artifact: test identity, violations with
    bug ids, the causal chain of the first violation, and the full
    metrics snapshot — everything a downstream tool needs to triage the
    run without re-executing it. *)

type commit = { time : int; key : string; op : History.Event.op; origin : string }
(** One committed reference event; [origin] is the component whose
    transaction produced it. *)

val reference_commits : test -> commit list
(** Runs the test *without* its strategy and returns every committed
    event with its originating component — the planner's raw material
    (the causality record Section 7 calls for). *)
