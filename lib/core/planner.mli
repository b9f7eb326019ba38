(** Perturbation planner: turns a reference execution into an ordered
    list of candidate perturbations.

    This is the automated half of Section 7: instead of a human guessing
    where staleness, time travel or observability gaps might hurt, the
    planner (1) identifies which slices of the history each component's
    [(H', S')] is built from — its informers' watched prefixes — and (2)
    enumerates, for every committed reference event a component consumes,
    the three pattern-shaped perturbations around that event. Restricting
    candidates to events a component actually observes is the
    causality-guided pruning the paper calls for: perturbing an event no
    component consumes cannot change any view. *)

type target = {
  component : string;  (** network address *)
  watched_prefixes : string list;  (** key prefixes its informers watch *)
  restartable : bool;  (** whether crash/restart candidates make sense *)
}

val targets_of_config : Kube.Cluster.config -> target list
(** The components a cluster configuration runs, projected from
    {!Footprint.of_config}: each footprint's component, its cached reads
    as the watch set, and whether it is restartable — in footprint
    order. *)

val targets_hbase : Hbaselike.Cluster.config -> target list
(** The HBase substrate's consumers, projected from
    {!Footprint.of_hbase_config}: the master (registry and region
    assignments, read through the follower replica) and each region
    server (its one-shot watches over ["region/"]). *)

val consumed_by : target -> string -> bool
(** Does the component's view depend on events for this key? *)

type plan = { strategy : Strategy.t; rationale : string }

val candidates :
  config:Kube.Cluster.config ->
  events:(int * string * History.Event.op) list ->
  horizon:int ->
  unit ->
  plan list
(** Enumerates candidates over the reference events, deduplicated per
    (component, key, pattern) and interleaved across the three patterns
    so early candidates are diverse. Each perturbation starts 100 ms
    before its anchor event; delay-based staleness lasts 1.5 s; the
    restart gap of a time-travel candidate is 150 ms. *)

val candidates_causal :
  config:Kube.Cluster.config -> commits:Runner.commit list -> horizon:int -> unit -> plan list
(** Like {!candidates}, but uses each commit's originating component to
    rank candidates causally (Section 7's guidance): perturbations of a
    component's observation of *its own writes* come first — they close
    reconcile feedback loops, where level-triggered controllers are most
    exposed — then everything else, with boot-time seeding last. Same
    candidate set, better order: on the corpus this cuts
    tests-to-reproduction by roughly a quarter overall and by ~60% on the
    operator's self-feedback bugs. *)

val candidates_hbase :
  config:Hbaselike.Cluster.config ->
  events:(int * string * History.Event.op) list ->
  horizon:int ->
  unit ->
  plan list
(** {!candidates} for the HBase substrate: the same driver over its own
    plan shapes. The master's view is the follower replica, so its
    staleness/gap candidates perturb the replication edge; region-server
    candidates perturb their watch notifications; time-travel candidates
    pair a replication stall with a leader-follower partition (forcing a
    post-compaction resync) or bounce the consumer (session expiry,
    master failover). *)

val candidates_causal_hbase :
  config:Hbaselike.Cluster.config -> commits:Runner.commit list -> horizon:int -> unit -> plan list
(** {!candidates_causal}'s ranking over {!candidates_hbase}'s plan
    shapes. *)
