(** Strategy minimization: shrink a failing perturbation to a locally
    minimal one that still triggers the target violation.

    Useful after a campaign: the winning candidate often perturbs more
    than necessary (wide windows, composite faults). Minimization runs a
    greedy delta-debugging loop — drop combo parts, narrow time windows,
    shorten delays and downtimes — re-running the (deterministic) test
    after each proposed shrink and keeping it only if the violation still
    fires. The result explains the bug: everything left is needed. A
    re-run only answers yes or no, so it stops once the violation has
    fired, and a campaign's re-runs start from a compiled prefix of the
    case's reference world instead of time 0. *)

val shrink_candidates : Strategy.t -> Strategy.t list
(** One round of strictly-smaller variants of a strategy (no
    execution). Exposed for testing; {!minimize} drives it. *)

val greedy :
  budget:int -> fails:(Strategy.t -> bool) -> Strategy.t -> Strategy.t * int
(** The greedy loop behind {!minimize}, over any verdict: [fails s] says
    whether [s] still triggers the target. Returns the locally minimal
    strategy and the executions spent, at most [budget]. Candidate lists
    repeat (a combo part rejected in one round is proposed again in the
    next), so [fails] is called once per distinct strategy, compared
    structurally; a repeated candidate reuses its first verdict but still
    counts as an execution. *)

type shrunk = {
  test : Runner.test;  (** the minimized test *)
  executions : int;
      (** candidate evaluations, repeats included, though a repeat is not
          simulated again: a finding's journaled [shrink_runs] *)
  simulated : int;  (** candidates actually run *)
  forked : int;  (** of them, started from the prefix *)
  stopped : int;  (** of them, stopped at their target before the horizon *)
}

val shrink :
  prefix:Runner.prefix option ->
  test:Runner.test ->
  target:(Oracle.violation -> bool) ->
  budget:int ->
  exposed:bool ->
  shrunk
(** {!greedy} over {!Runner.verdict} runs of [test] with each candidate
    strategy: each stops once its target has fired, and forks from
    [prefix] when it can (a prefix of [test], {!Runner.prefix}). With
    [exposed] the caller has already seen [test] trigger the target, so
    the loop's first evaluation takes that verdict instead of running
    the test again; it still counts as an execution. [budget] caps
    executions. The input test must trigger the target; otherwise it is
    returned unchanged with one execution. A verdict equals the one a
    full straight run gives, so the result is the same with or without
    a prefix. *)

val minimize :
  test:Runner.test ->
  target:(Oracle.violation -> bool) ->
  ?budget:int ->
  unit ->
  Runner.test * int
(** {!shrink} with no prefix and nothing exposed: the minimized test and
    its executions. [budget] defaults to 200. *)
