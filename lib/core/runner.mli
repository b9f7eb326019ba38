(** Test runner: executes (workload × strategy) tests on fresh clusters
    and drives campaigns until an oracle violation is found.

    Every test builds its own cluster from its config, so tests are
    hermetic and a failing test is replayable from its record alone. *)

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
}

val kube_cluster : outcome -> Kube.Cluster.t
(** The kube cluster behind the outcome.
    @raise Invalid_argument on a non-kube outcome. *)

val run_test : ?check_conformance:bool -> ?diagnose:bool -> test -> outcome
(** With [check_conformance] (default false), a {!Conformance.Hooks}
    monitor is attached before the strategy and start, checking every
    cache boundary online; its findings land in {!outcome.conformance}
    and, as a ["conformance"] section, in {!artifact}. With [diagnose]
    (default false), the monitor is attached with divergence tracking so
    a downstream diagnosis can pinpoint where each stream left the
    committed subsequence ({!outcome.hooks}). Either way the monitor is
    passive — a run's trajectory, trace and metrics are unchanged unless
    a violation fires. *)

(** {2 Forking}

    A run with a strategy equals the unperturbed reference run up to any
    time strictly below {!Strategy.first_perturbation}. So runs of one
    spec can share that prefix: a reference world (the cluster with its
    oracle and, when asked, its monitor, started, its workload
    scheduled, no strategy) is advanced to a time below a run's first
    perturbation and compiled into a {!Dsim.Snapshot} image; the run
    instantiates the image, installs its strategy there and runs to its
    horizon. Fault actions fire first at their instant
    ({!Dsim.Engine.schedule_first}), so a strategy installed after the
    fork orders its faults exactly as one installed before [start]. The
    outcome equals {!run_test}'s with the same [check_conformance] and
    no [diagnose]: violations, conformance, trace and metrics. *)

type world
(** A cluster with its oracle and optionally its monitor attached. *)

val reference_world : ?check_conformance:bool -> Substrate.spec -> world
(** Builds, attaches (the monitor iff [check_conformance], without
    divergence tracking), starts and schedules the spec's workload, as
    {!run_test} does but with no strategy. Nothing has run yet. *)

val advance : world -> until:int -> unit
(** Runs the reference world's events up to [until], inclusive. *)

val compile : world -> world Dsim.Snapshot.image
(** Empties the minor heap, then compiles the world into an image. *)

val run_forked :
  ?check_conformance:bool -> world Dsim.Snapshot.image -> test -> outcome option
(** Instantiates the image, installs the test's strategy and runs it to
    the test's horizon. The image must have been taken from a reference
    world of the test's spec, at a time strictly below the strategy's
    first perturbation, and with the same [check_conformance]. [None]
    when the image does not fit in the minor heap
    ({!Dsim.Snapshot.instantiate}): run the test straight instead. *)

(** {2 Finding runs}

    A new finding needs more runs of its case after the trial that
    exposed it: each shrink candidate the minimizer simulates, and the
    artifact run. A shrink candidate never perturbs earlier than the
    strategy it shrinks, so all of them can share one {!prefix}: the
    case's reference world without a monitor, up to just before the
    exposing strategy's first perturbation. The minimizer only needs a
    candidate's yes/no verdict, so a {!verdict} run also stops once its
    target has fired. *)

type prefix
(** A compiled image of a reference world and the instant it was taken
    at. *)

val prefix : test -> prefix option
(** Builds the world {!run_test} builds without a monitor (cluster, then
    oracle), starts and schedules it with no strategy, advances it to
    [first - 1], where [first] is the test's
    {!Strategy.first_perturbation} (capped at the horizon), and compiles
    it ({!compile}). [None] when [first <= 1]: there is nothing before
    the first perturbation to share. *)

val prefix_bytes : prefix -> int
(** The image's size ({!Dsim.Snapshot.bytes}). *)

val run_from : prefix:prefix option -> test -> outcome
(** {!run_test} with no monitor, forked from the prefix when the test's
    strategy first perturbs after the prefix's instant and the image
    fits in the minor heap; straight otherwise. The prefix must come from
    a test of the same spec and horizon. Either way the outcome's
    violations, trace and metrics equal [run_test test]'s. *)

type verdict = {
  fired : bool;  (** a violation satisfying the target was recorded *)
  forked : bool;  (** the run started from the prefix *)
  stopped : bool;  (** it ended before the horizon because [fired] *)
}

val verdict : prefix:prefix option -> target:(Oracle.violation -> bool) -> test -> verdict
(** The run of {!run_from}, advanced in slices of 100 ms of virtual time
    (both oracles' check period) and stopped at the end of the first
    slice after which a violation satisfying [target] has been recorded,
    or at the horizon. Slicing is exact: nothing runs between two
    bounded runs, so consecutive bounds fire the events of one run to
    the horizon in the same order. And a run's violations only
    accumulate, so [fired] equals
    [List.exists (fun (_, v) -> target v) (run_test test).violations]. *)

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

val reference_events : test -> (int * string * History.Event.op) list
(** {!reference_commits} without the origins. *)

type campaign_result = {
  tests_run : int;
  found : (test * int * Oracle.violation) option;
      (** first test whose oracle reported a matching violation, with the
          violation's virtual time *)
  all_found : (test * int * Oracle.violation) list;
      (** every matching violation reported within the budget, oldest
          first; with [stop_at_first] this is just the first test's
          matches *)
}

val run_campaign :
  make_test:(int -> test) ->
  candidates:int ->
  ?target:(Oracle.violation -> bool) ->
  ?stop_at_first:bool ->
  unit ->
  campaign_result
(** Runs [make_test 0 .. make_test (candidates-1)] in order. With
    [stop_at_first] (the default) the campaign stops at the first test
    that produces a violation satisfying [target] (default: any
    violation); with [~stop_at_first:false] it spends the whole budget
    and reports every match in [all_found] — the same semantics the
    parallel hunt engine uses, so the two paths agree. *)
