(** The hazard graph: static partial-history hazards derived from
    component footprints, classified by the paper's Section 4.2 pattern.

    A hazard names a (component, key prefix) pair whose view/act
    coupling is structurally exposed to one of the three divergence
    patterns *before any trial runs*:

    - {b Staleness}: a cached read of the prefix feeds a destructive
      write with no quorum re-read in this configuration (the
      cassandra-operator-400/402 shape), or two components write the
      prefix concurrently while acting on cached views of it.
    - {b Observability gap}: the component acts on its cached view of
      the prefix, so a single dropped event can mislead every later
      action (the Kubernetes-56261 / cassandra-operator-398 shape); or
      the component writes a prefix no informer watches, so its effects
      are structurally invisible.
    - {b Time travel}: the component is restartable and acts on a
      cached view, so a restart that re-lists from a stale apiserver
      rewinds the inputs of its writes (the Kubernetes-59848 shape).

    Severity ranks how directly the hazard reaches damage (3 = an
    unguarded destructive write, or a cached view that is
    edge-triggered or feeds a destructive actor — nothing repairs a
    wrong decision; 2 = destructive-adjacent: write/write conflicts,
    restart rewinds of destructive actors; 1 = structural exposure
    only). The hunt scheduler uses severities as a
    dispatch priority ([hunt --hazard-rank]): hazard-implicated
    (component, key, pattern) candidates run first, so campaigns reach
    the corpus bugs in no more trials than coverage ordering alone. *)

type t = {
  pattern : Sieve.Coverage.pattern;
  component : string;
  prefix : string;  (** key prefix the hazard is about *)
  severity : int;  (** 3 highest *)
  reason : string;
}

val of_footprints : Sieve.Footprint.t list -> t list
(** Builds the hazard graph from footprints, deduplicated per
    (pattern, component, prefix) keeping the highest severity, sorted
    by severity (descending) then component/prefix. *)

val of_config : Kube.Cluster.config -> t list
(** [of_footprints (Sieve.Footprint.of_config config)]. *)

val of_lint : Lint.finding list -> t list
(** Per-path hazards from lint findings: one hazard per evidence path
    (a function with two tainted routes to distinct sinks weighs
    twice), severity 3 when the sink is destructive / record-destroy /
    region-assign, 2 for other proposals and writes. Components are
    mapped to runtime names ([deployment.ml] -> [depctl], ...) so the
    hazards share the footprint graph's namespace; the prefix is [""]
    (a code path implicates every key the component touches). Additive:
    {!of_footprints} and {!of_config} are unchanged, and nothing on the
    execution path calls this. *)

val score : t list -> component:string -> key:string -> pattern:Sieve.Coverage.pattern -> int
(** Highest severity of a hazard implicating this (component, key,
    pattern) cell — 0 when none does. Keys match hazard prefixes by
    [String.starts_with]. *)

val plan_score : t list -> Sieve.Coverage.t -> Sieve.Planner.plan -> int
(** Dispatch priority of one candidate: the highest {!score} over the
    coverage cells the candidate's strategy would exercise. When the
    strategy touches no in-space cell, falls back to matching the
    strategy's named components ({!Sieve.Strategy.components}) and
    pattern against the graph. *)

val to_json : t -> Dsim.Json.t
