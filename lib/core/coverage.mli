(** Perturbation-space coverage.

    Section 6.2 poses the coverage problem: "the coverage of the tool
    depends on the coverage of test workloads." The partial-history model
    makes the space *enumerable*: for a given workload, the perturbable
    cells are (component, consumed object, pattern) triples — which
    component's view, of which object's events, diverges in which of the
    three ways. A campaign's coverage is then the fraction of cells its
    strategies exercised, and the uncovered cells say exactly what was
    never tested.

    This also quantifies why the baseline heuristics miss bugs: crash
    injection only reaches time-travel cells, partition injection only
    staleness cells; neither can touch an observability-gap cell at
    all. *)

type pattern = [ `Staleness | `Obs_gap | `Time_travel ]

val pattern_to_string : pattern -> string

type cell = { component : string; key : string; pattern : pattern }

type t

val create :
  config:Kube.Cluster.config -> events:(int * string * History.Event.op) list -> t
(** The space: every planner target × every distinct reference key the
    target consumes × the three patterns. *)

val create_hbase :
  config:Hbaselike.Cluster.config -> events:(int * string * History.Event.op) list -> t
(** Same space over {!Planner.targets_hbase} (the master and the region
    servers). *)

val note : t -> Strategy.t -> unit
(** Marks the cells a strategy exercises: [mark t (footprint t s)].
    Scoping is conservative: a delay/drop with a key filter marks the
    matching keys for its destination; one without marks all of the
    destination's consumed keys; a partition of an apiserver marks
    staleness cells for every component (they may be downstream of it);
    a crash marks the victim's time-travel cells. *)

val cells_of : t -> Strategy.t -> cell list
(** The in-space cells the strategy would exercise (what {!note} would
    mark), without marking anything. May contain duplicates for combo
    strategies whose parts overlap. *)

type footprint
(** The distinct in-space cells a strategy exercises, as dense cell ids
    of one space: exactly the set {!note} marks. Computing it once lets a
    caller re-ask {!fresh} without re-scoping the strategy. *)

val footprint : t -> Strategy.t -> footprint

val fresh : t -> footprint -> int
(** How many of the footprint's cells are still unmarked — the
    coverage-guided scheduler's ranking signal. Never increases as cells
    are marked. *)

val mark : t -> footprint -> unit
(** Marks the footprint's cells; each cell counts once toward
    {!covered}, however often it is marked. *)

val total : t -> int

val covered : t -> int

val ratio : t -> float

val by_pattern : t -> (pattern * int * int) list
(** (pattern, covered, total) per pattern. *)
