(** Perturbation strategies: the executable form of Section 7's tool
    sketch.

    A strategy is data describing how to regulate the advance of one
    component's view [(H', S')] relative to the ground truth — by
    delaying events on a watch edge (staleness), dropping selected events
    (observability gaps), partitioning links (durable, undetectable-read
    staleness), or crashing and restarting a component so it re-syncs
    from whatever upstream it lands on (time travel). Strategies compose
    with {!Combo}.

    Applying a strategy installs an interceptor policy and schedules
    fault-plan actions; it never touches component code — all
    perturbations act on the same channels real failures act on. *)

type event_match = {
  key_prefix : string option;  (** match events whose key has this prefix *)
  op : History.Event.op option;
  limit : int option;  (** stop matching after this many hits *)
}

val match_event : ?key_prefix:string -> unit -> event_match

type t =
  | No_perturbation
  | Delay_stream of {
      src : string option;  (** [None] = any upstream *)
      dst : string option;
      matching : event_match;
      from : int;
      until : int;
      extra : int;  (** added latency; FIFO pushes later traffic back too *)
    }
  | Drop_events of {
      src : string option;
      dst : string option;
      matching : event_match;
      from : int;
      until : int;
    }
  | Crash_restart of { victim : string; at : int; downtime : int }
  | Partition_window of { a : string; b : string; from : int; until : int }
  | Combo of t list


val describe : t -> string

val components : t -> string list
(** The components the strategy names directly: destinations of
    delay/drop rules, crash victims, partition endpoints. Used by the
    static hazard analysis to decide which hazards a candidate could
    exercise when its key filter falls outside the reference key set. *)

val pattern : t -> [ `None | `Staleness | `Obs_gap | `Time_travel | `Mixed ]
(** Which of the paper's Section 4.2 patterns the strategy exercises.
    Crash/restart alone and partitions count as staleness/time-travel
    raw material: a partition makes views stale; crash+restart plus any
    staleness source is time travel. *)

val first_perturbation : t -> int
(** The first virtual time at which the strategy can change a run: the
    earliest of its fault actions' times and its interceptor rules'
    [from]; [max_int] for {!No_perturbation}. Before it no rule matches
    and no fault fires, so a run with this strategy equals the
    unperturbed reference run up to any time strictly below it. *)

val apply : Kube.Cluster.t -> t -> unit
(** Installs the interceptor policy and schedules fault actions on the
    cluster's engine. Call after {!Kube.Cluster.create} (before or after
    [start]). Only one strategy should be applied per cluster. *)

val apply_hbase : Hbaselike.Cluster.t -> t -> unit
(** The same, against the HBase substrate: rules only inspect edge
    endpoints, event key/op and the clock, so one strategy language
    drives both interceptors. Delivery edges there are the ZooKeeper
    replication stream (dst ["zk-follower"]) and the one-shot watch
    notifications (dst = a region server). *)

(** {2 Named composites for the three bug patterns} *)

val staleness :
  ?src:string ->
  ?key_prefix:string ->
  dst:string ->
  from:int ->
  until:int ->
  extra:int ->
  unit ->
  t
(** Delay events flowing into [dst]'s caches during the window
    (optionally only those under [key_prefix] — a delayed event pushes
    the rest of its stream back too, FIFO). *)

val observability_gap :
  ?src:string -> dst:string -> ?key_prefix:string -> ?op:History.Event.op -> ?limit:int ->
  from:int -> until:int -> unit -> t
(** Drop matching notifications to [dst]; bookmarks keep flowing so the
    stream looks healthy and nothing re-lists. *)

val time_travel :
  stale_api:string ->
  victim:string ->
  stale_from:int ->
  crash_at:int ->
  ?downtime:int ->
  ?heal_at:int ->
  unit ->
  t
(** Partition [stale_api] from etcd at [stale_from] (freezing its cache),
    crash [victim] at [crash_at] and restart it [downtime] later — its
    next incarnation lists from the next apiserver in its endpoint
    rotation, which the caller arranges to be [stale_api]. The partition
    heals at [heal_at] (default: never within the run). *)
