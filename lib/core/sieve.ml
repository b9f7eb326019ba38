(** The paper's contribution: a testing tool that manufactures partial
    histories instead of injecting faults at random.

    {!Strategy} describes perturbations for the three Section 4.2
    patterns (staleness, time travel, observability gaps); {!Oracle}
    checks persistent safety violations against ground truth; {!Runner}
    executes hermetic (workload x strategy) tests;
    {!Footprint} states what each component reads, writes and
    destroys; {!Planner} enumerates pattern-shaped candidates from a
    reference execution over targets projected from the footprints,
    with causal (write-origin) ranking; {!Bugs} is the
    executable corpus (the paper's five case studies plus extensions);
    {!Baselines} re-implements the prior-art heuristics for comparison;
    {!Coverage} measures how much of the perturbation space a campaign
    touches; {!Family} builds a case's candidate list for each approach
    compared; {!Minimize} shrinks failing strategies to locally minimal
    reproductions; {!Report} renders tables. *)

module Substrate = Substrate
module Oracle = Oracle
module Hbase_oracle = Hbase_oracle
module Strategy = Strategy
module Runner = Runner
module Footprint = Footprint
module Planner = Planner
module Bugs = Bugs
module Baselines = Baselines
module Coverage = Coverage
module Family = Family
module Minimize = Minimize
module Report = Report
