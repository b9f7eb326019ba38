(** The bug corpus: executable definitions of the five case-study bugs
    from Section 7 — two known Kubernetes bugs the tool reproduced and
    three new Cassandra-operator bugs it detected.

    Each case bundles the cluster configuration, the workload that makes
    the bug reachable, the oracle predicate identifying *this* bug, the
    focused Sieve strategy that triggers it deterministically, and the
    configuration with the corresponding fix enabled (for verifying the
    fix actually closes the bug). *)

type case = {
  id : string;  (** upstream issue id, e.g. ["K8s-59848"] *)
  title : string;
  pattern : [ `Staleness | `Obs_gap | `Time_travel ];
      (** the Section 4.2 pattern the bug instantiates *)
  spec : Substrate.spec;  (** substrate, config and workload *)
  horizon : int;
  matches : Oracle.violation -> bool;
  sieve_strategy : Strategy.t;
  fixed_spec : Substrate.spec;  (** same but with the fix flag on *)
}

val k8s_59848 : unit -> case
(** Kubelet restarts, re-lists from an apiserver partitioned from etcd,
    and re-runs a pod that was migrated away: duplicate pod (time
    travel). *)

val k8s_56261 : unit -> case
(** Scheduler misses a node-deletion notification and binds pods to the
    deleted node forever (observability gap). *)

val ca_398 : unit -> case
(** Volume controller never observes the deletion mark and leaks the
    claim (observability gap). *)

val ca_400 : unit -> case
(** Operator's cached member list is missing the newest member; scale-down
    decommissions the wrong node (staleness of the cached view). *)

val ca_402 : unit -> case
(** Operator's cached pod list is missing a live member; orphan GC deletes
    the member's data claim (staleness of the cached view). *)

val all : unit -> case list

val find : string -> case option
(** Look up by [id] (case-insensitive), across the corpus and the
    extension cases. *)

val kube_config : case -> Kube.Cluster.config
(** The config of a kube-substrate case ([Invalid_argument] otherwise) —
    convenience for tests that re-run a case under a tweaked config. *)

val kube_workload : case -> Kube.Workload.t
(** Likewise for the workload. *)

val test_of_case : case -> Runner.test
(** The case run under its focused Sieve strategy. *)

val reference_test_of_case : case -> Runner.test
(** The same scenario with no perturbation (must be violation-free). *)

val fixed_test_of_case : case -> Runner.test
(** The Sieve strategy against the fixed configuration (must be
    violation-free if the fix is real). *)

(** {2 Extension corpus}

    Partial-history bug instances beyond the paper's five case studies,
    living in the extra controllers this reproduction adds (ReplicaSet
    controller, node controller). Same discipline as the corpus: clean
    reference, deterministic trigger, targeted fix. *)

val ext_rs_surplus : unit -> case
(** Controller over-provisioning: replica counts read from a lagging
    cache make the controller create a fresh batch per reconcile pass
    (staleness); fixed by client-go-style expectations. *)

val extras : unit -> case list

val all_with_extras : unit -> case list

(** {2 Replicated-store scenario family}

    The same partial-history bug patterns, manufactured {e below} the
    gateway: Raft replication lag, leader churn and crash recovery take
    the place of consumer-side fault injection. Kept out of
    {!all_with_extras} so the pre-replication corpus and its fixed-seed
    hunt journals stay byte-identical; every case's [fixed_config]
    switches reads to the leader (linearizable read placement is the
    replication-level fix). *)

val rep_stale : unit -> case
(** A partitioned follower keeps serving (bookmarks and all) while its
    replication links are cut; a kubelet re-list lands on the frozen
    view and re-runs a migrated pod (staleness). *)

val rep_minority : unit -> case
(** Every read pinned to a follower isolated in a minority partition:
    the ReplicaSet controller never observes its own creations and
    over-provisions without bound (staleness). *)

val replicated : unit -> case list

(** {2 HBase scenario family}

    The same three anti-patterns in the ZooKeeper substrate
    ({!Substrate.Hbase}). Like the replicated family, kept out of
    {!all_with_extras} so the kube corpus journals stay byte-identical;
    the hunt's [hbase] campaign and {!find} reach them. *)

val hbase : unit -> case list
