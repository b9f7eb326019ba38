(** Coverage-guided dispatch ordering.

    Section 6.2 makes coverage of the (component × object × pattern)
    space the limiting factor of a campaign; the scheduler turns that
    into the dispatch policy. Candidates are dispatched greedily by how
    many still-uncovered cells they would touch ({!Sieve.Coverage.fresh}),
    each dispatch feeding {!Sieve.Coverage.mark} so later picks see the
    shrunken frontier; ties — and the zero-gain tail — fall back to the
    planner's own causal ranking. The order is a pure function of the
    candidate list, so it is identical across job counts and resumes.

    An optional [priority] (in practice {!Analysis.Hazard.plan_score}:
    the static hazard severity of the cells a candidate exercises) is
    ranked lexicographically above coverage gain, so hazard-implicated
    candidates dispatch first and coverage greed breaks ties among
    equals. [priority] is evaluated once per candidate, up front.

    {b Contract.} Each round dispatches the pending candidate that is
    greatest under, in turn: priority (higher first), current gain
    (higher first), array index (lower first). This is exactly the naive
    greedy that rescans every pending candidate each round.

    {b Lazy greedy.} Each candidate's {!Sieve.Coverage.footprint} is built
    once (n scopings, O(n·|footprint|) work), and the candidates sit in a
    max-heap keyed by (priority, cached gain, index). The top is
    dispatched if its gain was computed since the last mark; otherwise
    its gain is recomputed and it sinks to its place (Minoux 1978; the
    CELF variant, Leskovec et al. KDD 2007). This relies on gain being
    monotone: marking cells never increases {!Sieve.Coverage.fresh}, so
    a cached gain is an upper bound, and a fresh top beats every pending
    candidate's true key — including on the index tie-break. *)

val order :
  ?priority:(Sieve.Planner.plan -> int) ->
  Sieve.Coverage.t ->
  Sieve.Planner.plan array ->
  int list
(** Dispatch order as indices into the array (a permutation of
    [0 .. n-1]). Marks every candidate into the given coverage as a side
    effect. *)
