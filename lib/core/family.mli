(** Strategy families: the candidate lists a campaign runs for a case,
    one per approach the paper compares (Sections 5–7).

    A family turns a case's reference execution into an ordered list of
    candidate strategies: the partial-history planner, plain or with
    causal ranking ({!Planner}), or one of the prior-art heuristics
    ({!Baselines}). This is the one place that picks the planner and the
    coverage space for a substrate, and the random baseline's seed and
    size, so every campaign comparing families runs the same lists. *)

type t = Planner | Planner_causal | Crashtuner | Cofi | Random
(** {!Planner.candidates}, {!Planner.candidates_causal},
    {!Baselines.crashtuner}, {!Baselines.cofi},
    {!Baselines.random_faults}. *)

val candidates :
  ?seed:int64 ->
  ?n:int ->
  t ->
  spec:Substrate.spec ->
  horizon:int ->
  Runner.commit list ->
  Planner.plan list
(** The family's candidates for a spec and horizon, given its reference
    commits ({!Runner.reference_commits}), in the family's order. The
    planner families take the planner of the spec's substrate (kube or
    HBase) and keep its rationales; a baseline's plans carry a one-line
    rationale naming the heuristic, and take their victims and links
    from {!Baselines.targets}. [seed] (default 42) and [n] (default 400)
    are the random baseline's; the other families ignore them. *)

val space : Substrate.spec -> Runner.commit list -> Coverage.t
(** A fresh coverage space over the spec's substrate and its reference
    commits: {!Coverage.create} on kube, {!Coverage.create_hbase} on
    HBase. *)

val coverage_row : Coverage.t -> Strategy.t list -> string list
(** Notes the strategies in the space and returns its covered/total
    cells per pattern (staleness, observability gap, time travel) and
    the overall share, as table cells: ["39/39"; "0/39"; "39/39";
    "67%"]. *)
