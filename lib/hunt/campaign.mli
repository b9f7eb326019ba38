(** The campaign engine ({!execute}) and the hunt built on it ({!run}).

    A trial of {!execute} is a deterministic function of its group and
    its strategy (the trials of a group share spec and horizon, and a
    test's name never enters the run), so each distinct (group,
    strategy) pair is simulated once, by its {e representative}: the
    lowest-index trial with that pair, compared structurally. A
    duplicate settles after its representative, from its run. Nor does
    a run re-simulate the prefix it shares with its group's unperturbed
    reference run. Before dispatch, one {!Sieve.Runner.prefixes} call
    per group (with [check_conformance], as the trials have it) compiles
    its reference world at each rung, 1 s of virtual time apart, that at
    least 16 runs would fork from: their latest rung strictly before
    their {!Sieve.Strategy.first_perturbation}. A run gets the latest
    kept rung before its first perturbation as its [prefix]
    ({!Sieve.Runner.run_test}); runs perturbed before the first kept
    rung run straight, and so do runs whose image does not fit in the
    minor heap. Forked runs settle exactly what straight runs would.

    {!run} turns a set of corpus cases into one global trial list
    ({!plan}): per case, the causal planner's candidates are ordered by
    coverage gain ({!Schedule.order}), then cases are interleaved
    round-robin; a budget beyond the candidate count is filled with
    seed-derived random-fault exploration trials. Per-trial seeds are
    split off the campaign seed by index ({!Dsim.Rng.split}), so nothing
    depends on completion order. The trials run through {!execute},
    grouped by case, and settle in trial order, appending to the
    {!Journal} as they go. The first trial to expose each distinct
    violation signature ({!Signature.of_violation}) becomes a finding:
    its strategy is shrunk with {!Sieve.Minimize.shrink} and a
    self-contained artifact directory
    ([OUT/findings/<signature>/{artifact,finding}.json], via
    {!Sieve.Runner.artifact}) is emitted. Later trials hitting the same
    signature deduplicate against it. On resume, the journal, written in
    trial order, holds a prefix of the trials: they settle from it, and
    only the rest run.

    A new finding's own runs fork too, from one prefix per exposing
    trial ({!Sieve.Runner.prefix}): the case's world without a monitor,
    just before the trial's first perturbation, built on the driver
    domain while the trial settles and dropped once its findings are
    written. Every shrink candidate starts from it when its strategy
    perturbs later, which the shrink steps guarantee, and stops once its
    target has fired ({!Sieve.Minimize.shrink}); the artifact run forks
    from it too. Both go through {!Sieve.Runner.run_test}, as the
    campaign's runs do. Cards run straight: they track divergence, a
    different world.

    Because trials are deterministic, seeds are index-derived, and the
    journal is written in trial order, the journal is byte-identical
    across job counts — and a resumed campaign (which replays the
    journal, skips completed trials and recomputes any finding whose
    record was lost to a crash) converges on the same bytes as an
    uninterrupted run. *)

type trial = {
  index : int;  (** schedule position == journal position *)
  case_id : string;
  origin : string;  (** ["planner#k"] (candidate rank) or ["explore#i"] *)
  seed : int64;  (** split off the campaign seed, by index *)
  test : Sieve.Runner.test;
}

type planned = {
  trials : trial array;
  space : (string * int * int) list;
      (** per case: (id, cells covered by the planned trials, total) *)
}

val plan :
  ?budget:int ->
  ?seed:int64 ->
  ?hazard_rank:bool ->
  cases:Sieve.Bugs.case list ->
  unit ->
  planned
(** Builds the trial list without running anything (beyond the per-case
    reference executions the planner needs). [budget] defaults to
    exactly the planner's candidates; smaller truncates the
    coverage-ordered list, larger appends exploration trials. With
    [hazard_rank] (default false) the static hazard graph
    ({!Analysis.Hazard.of_config}) is ranked lexicographically above
    coverage gain when ordering dispatch, so candidates implicating
    statically hazardous (component, key, pattern) cells run first while
    the candidate pool keeps its causal order as the tie-break. Pure in
    its arguments: equal inputs yield equal plans. *)

type finding = {
  signature : string;
  bug : string;
  case_id : string;
  trial : int;
  time : int;  (** virtual time of the violation in the exposing trial *)
  detail : string;
  strategy : string;
  minimized : string;
  shrink_runs : int;
      (** candidate evaluations {!Sieve.Minimize.shrink} spent, repeats
          included, though a repeat is not simulated again *)
}

type progress = { trials_done : int; total : int; replayed : int; findings : int }

type conformance_summary = {
  conf_trials : int;  (** executed trials that ran with the monitor *)
  conf_total : int;  (** conformance violation occurrences across them *)
  conf_signatures : string list;
      (** distinct {!Signature.of_conformance} ids, discovery order *)
}

type forking = {
  forked : int;  (** simulated runs that forked from an image *)
  fallbacks : int;
      (** runs that had an image but ran straight: it did not fit in the
          minor heap *)
  images : int;  (** images compiled, over all cases *)
  image_bytes : int;  (** their total size ({!Sieve.Runner.prefix_bytes}) *)
}
(** How the simulated runs got the prefix before their first
    perturbation. Outside the journal: forked and straight runs settle
    the same bytes. *)

val execute :
  jobs:int ->
  check_conformance:bool ->
  ?stop_at:(Sieve.Oracle.violation -> bool) ->
  (string * Sieve.Runner.test) array ->
  emit:(int -> (int * Sieve.Oracle.violation) list -> Sieve.Runner.conformance option -> unit) ->
  int * forking
(** Runs the trials, each a group label and a test, on up to [jobs]
    worker domains ({!Pool.map_ordered}) and calls [emit i violations
    conformance] for [i = 0, 1, ...] on the calling domain, so what a
    caller does with them is the same at any job count: trial [i]'s
    timed oracle violations and, with [check_conformance], its monitor's
    result. Each representative runs through {!Sieve.Runner.run_test}
    with [check_conformance] and its rung's prefix, if it has one. With
    [stop_at], the campaign ends after emitting the first trial with a
    violation satisfying it; each trial still runs to its horizon.
    Returns how many runs were simulated, and how they forked. *)

type shrinking = {
  shrunk : int;  (** findings whose strategy was shrunk in this campaign *)
  shrink_simulated : int;  (** shrink candidates run for them *)
  from_prefix : int;  (** of those runs, forked from their finding's prefix *)
  prefix_bytes : int;  (** the prefixes' total size ({!Sieve.Runner.prefix_bytes}) *)
  stopped : int;  (** of those runs, stopped at their target before the horizon *)
}
(** What the findings cost to shrink. Outside the journal: a candidate's
    verdict is the same however it ran. *)

type summary = {
  trials : int;
  executed : int;  (** settled from a run in this campaign, not replayed *)
  simulated : int;
      (** runs actually simulated: [executed] minus the duplicates that
          settled from their representative's run *)
  forking : forking;
  shrinking : shrinking;
  replayed : int;  (** skipped: replayed from the journal on resume *)
  with_violations : int;
  findings : finding list;  (** discovery order *)
  space : (string * int * int) list;
  journal : string;  (** journal path *)
  conformance : conformance_summary option;  (** [Some] iff [check_conformance] *)
  cards : int;  (** diagnosis cards attached to findings ([diagnose] only) *)
}

val run :
  ?jobs:int ->
  ?out:string ->
  ?resume:bool ->
  ?budget:int ->
  ?seed:int64 ->
  ?minimize_budget:int ->
  ?hazard_rank:bool ->
  ?check_conformance:bool ->
  ?diagnose:bool ->
  ?on_progress:(progress -> unit) ->
  cases:Sieve.Bugs.case list ->
  unit ->
  summary
(** Runs the campaign. [jobs] worker domains (default 1); [out] is the
    artifact directory (default ["_hunt"]), holding [journal.jsonl] and
    [findings/]. With [resume] the existing journal's completed trials
    are skipped (the header must match the campaign, the journaled
    trials must be a prefix of the plan's in order, and each one's
    strategy must match the plan's — ordering flags like [hazard_rank]
    included — else the run fails with a clear error);
    without it any existing journal is overwritten. [minimize_budget]
    caps shrink executions per finding (default 200; [0] skips
    minimization). [hazard_rank] orders dispatch by the static hazard
    graph (see {!plan}). With [check_conformance] (default false) every
    executed trial also runs the online subsequence-invariant monitor
    ({!Sieve.Runner.run_test}'s [check_conformance]); results are
    aggregated into {!summary.conformance} and deliberately kept {e out}
    of the journal and artifacts, so journal bytes are identical with and
    without the flag. With [diagnose] (default false) every finding gets
    a [card.json] root-cause card ({!Diagnosis.Card}) next to its
    artifact, computed from a re-run of the minimized reproduction with
    divergence tracking; like conformance results, cards stay out of the
    journal, so journal bytes are identical with and without the flag
    (on resume, findings whose card is missing get one recomputed).
    [on_progress] fires after every settled trial, on the driver
    domain. *)
