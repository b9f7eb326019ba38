(** Strategy minimization: shrink a failing perturbation to a locally
    minimal one that still triggers the target violation.

    Useful after a campaign: the winning candidate often perturbs more
    than necessary (wide windows, composite faults). Minimization runs a
    greedy delta-debugging loop — drop combo parts, narrow time windows,
    shorten delays and downtimes — re-running the (deterministic) test
    after each proposed shrink and keeping it only if the violation still
    fires. The result explains the bug: everything left is needed. *)

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

val minimize :
  test:Runner.test ->
  target:(Oracle.violation -> bool) ->
  ?budget:int ->
  ?exposed:bool ->
  unit ->
  Runner.test * int
(** {!greedy} over runs of [test] with each candidate strategy. With
    [exposed] (default false) the caller has already seen [test] trigger
    the target, so the loop's first evaluation takes that verdict
    instead of simulating the test again; it still counts as an
    execution. Returns
    the minimized test and the number of executions spent, which counts
    every evaluated candidate, including repeats that were not simulated
    again, so journaled [shrink_runs] keep their bytes. [budget] caps
    executions (default 200). The input test must already trigger the
    target; otherwise it is returned unchanged with cost 1. *)
