(** Baseline testing approaches from the state of the art (Sections 5–6),
    re-expressed as strategy generators over the same workloads and
    oracles so tests-to-first-bug numbers are directly comparable.

    - {!random_faults}: Jepsen-style — crashes and partitions at uniform
      random times (the "randomly generate inputs or faults" strawman).
    - {!crashtuner}: CrashTuner-style — crash a component immediately
      after a meta-info event (node/pod state change) commits, restart it
      shortly after.
    - {!cofi}: CoFI-style — partition a component from its apiserver (or
      an apiserver from etcd) exactly when a state change commits, forcing
      the views on the two sides to diverge, and heal after a window.

    All three inject node-level faults only; none composes a durable
    staleness source with a targeted restart, and none can suppress a
    single notification while leaving the stream healthy — the gap the
    partial-history model exposes. *)

val random_faults :
  seed:int64 ->
  components:string list ->
  apiservers:string list ->
  horizon:int ->
  n:int ->
  Strategy.t list
(** [n] independent random plans, each with one crash/restart and one
    partition window over randomly chosen victims and link endpoints. *)

val crashtuner :
  events:(int * string * History.Event.op) list ->
  components:string list ->
  Strategy.t list
(** One candidate per (meta-info event, component): crash the component
    2 ms after the event commits and restart it 150 ms later. *)

val cofi :
  events:(int * string * History.Event.op) list ->
  components:string list ->
  apiservers:string list ->
  Strategy.t list
(** One candidate per (event, link): partition the link at the event's
    commit time and heal it 1.2 s later. Links are every
    component↔apiserver pair plus every apiserver↔etcd pair. *)

val targets : Substrate.spec -> string list * string list
(** [(components, endpoints)] for a case's substrate: the planner
    targets' components, and the store-facing addresses consumers talk
    to — the apiservers on kube, the ZooKeeper pair on HBase. Every
    baseline above takes its victims and links from this pair. *)
