(** Provenance-guided diagnosis: compose a run's causal chain, the
    conformance monitor's divergence record and the static hazard graph
    into one {!Card.t}.

    The pipeline: anchor on the violation's trace entry
    ({!Sieve.Runner.violation_entry} — oracle trips preferred,
    conformance trips accepted), walk the causal chain backwards, pick
    the divergence point of the stream the violation implicates, then
    intersect with {!Analysis.Hazard} and {!Sieve.Footprint} to name
    the suspect read-site and anti-pattern class. *)

val anti_pattern_of_pattern : [ `Staleness | `Obs_gap | `Time_travel ] -> string
(** The card vocabulary for the Section 4.2 patterns: stale-write /
    edge-trigger / stale-resync. *)

val of_outcome :
  ?target:(Sieve.Oracle.violation -> bool) ->
  ?minimized:string ->
  Sieve.Runner.outcome ->
  Card.t option
(** Diagnose a finished run. [None] when the run carried no monitor
    (not started with [~diagnose:true]) or tripped nothing. [target]
    selects which violation the card is about when a run trips several
    oracles (default: the first); when nothing matches, the first trip
    is diagnosed anyway. Also records the diagnosis counters
    ([diagnosis.cards], [diagnosis.walk.depth],
    [diagnosis.chain.truncated]) in the cluster's metrics registry, so
    they appear in the run's metrics snapshot. [minimized] is the
    auto-minimized plan description to embed, when the caller computed
    one. *)

val diagnose_case :
  ?minimize_budget:int -> Sieve.Bugs.case -> Sieve.Runner.outcome * Card.t option
(** Run a corpus case under diagnosis and return the outcome with its
    card. With [minimize_budget > 0], the exposing strategy is
    auto-minimized first and the shrunk plan embedded in the card. *)
