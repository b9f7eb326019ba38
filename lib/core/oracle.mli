(** Safety oracles: global invariants checked against the ground truth.

    The oracle sits where no real deployment can: it sees every etcd
    commit synchronously and every component's private state (kubelet
    running sets, scheduler failure counters). Each violation corresponds
    to one of the case-study bugs; the oracle reports the first occurrence
    of each distinct violation with its virtual timestamp. *)

type violation =
  | Duplicate_pod of { pod : string; kubelets : string list }
      (** one pod name running on two kubelets — Kubernetes-59848's
          broken safety guarantee *)
  | Scheduler_livelock of { pod : string; node : string; failures : int }
      (** repeated bind attempts against a node that no longer exists —
          Kubernetes-56261 *)
  | Pvc_leak of { pvc : string; owner_pod : string }
      (** owner pod long gone but its claim never released —
          the observability-gap controller bug (cassandra-operator-398
          pattern / Kubernetes controller bug [17]) *)
  | Wrong_decommission of { dc : string; marked : int; live_max : int }
      (** a non-maximal member was decommissioned — cassandra-operator-400 *)
  | Live_claim_deleted of { pvc : string; owner_pod : string }
      (** a live member's data claim was deleted — cassandra-operator-402 *)
  | Replica_surplus of { rs : string; live : int; desired : int }
      (** a ReplicaSet-style controller over-provisioned by more than 2x —
          the counting-from-a-lagging-cache incident class (extension
          beyond the paper's corpus) *)
  | Healthy_pod_failed of { pod : string; node : string }
      (** the node controller failed a pod whose node exists — acting on
          a view that never observed the node (extension) *)
  | Rollout_wedged of { dep : string; generation : int }
      (** a Deployment rollout that ground truth says could complete never
          drains the old generation — the controller's view never
          observed the new pods running (extension) *)
  | Region_stale_assign of { region : string; server : string }
      (** a region parked on a decommissioned server that the master's
          stale follower view still lists as live, so no repair is ever
          attempted — HBASE-3136's shape (checked by
          {!Hbase_oracle.attach}) *)
  | Region_double_serve of { region : string; servers : string list }
      (** one region served by several live region servers — a one-shot
          watch notification lost between firing and re-arm left a
          server acting on a superseded assignment *)
  | Region_cas_wedged of { region : string; server : string }
      (** a region stuck on a departed server while the master's repair
          CAS fails forever: the follower's local revision numbering
          drifted from the leader's after a post-compaction resync *)

val describe : violation -> string

val bug_id : violation -> string
(** The upstream issue this violation reproduces, e.g. ["K8s-59848"]. *)

val components : violation -> string list
(** The components whose partial history the violation implicates,
    sorted: the kubelets running a duplicate pod, the servers serving one
    region, else the one controller that acted. *)

val key : violation -> string
(** Deduplication key (violation type + principal object). *)

(** {2 The violation ledger}

    What every substrate's oracle shares: first occurrence per {!key},
    time-stamped, each one counted in ["oracle.violations"] and traced as
    an ["oracle.violation"] entry anchored at its cause. *)

type ledger

val ledger : Dsim.Engine.t -> Etcdlike.Commits.view -> ledger
(** A ledger whose violations anchor at the given store feed's
    commits. *)

val report : ?about:string -> ledger -> violation -> unit
(** Records a violation unless one with the same {!key} was already
    recorded. The trace entry's cause is, with [about] (a store key): the
    anchor of the last commit to [about], else of the most recent
    commit, else the live frontier; without [about]: the live frontier,
    else the most recent commit's anchor. *)

val found : ledger -> (int * violation) list
(** Time-stamped, first occurrence per {!key}, oldest first. *)

(** {2 The Kubernetes oracle} *)

type t

val attach : Kube.Cluster.t -> t
(** Registers on the store's commit feed ({!Kube.Etcd.commits}) and
    installs the periodic checker (every 100 ms). Attach before
    {!Kube.Cluster.start}.

    The thresholds are chosen to separate *persistent* safety violations
    (the bugs) from transient divergence that any failure causes and the
    system heals on its own: a livelock needs 15 failed binds of the same
    pod to the same vanished node (a partition-induced stale cache is
    re-listed by the stream watchdog well before that); a duplicate pod
    must persist for 20 consecutive 100 ms checks (2 s — a kubelet that
    merely missed a deletion behind a partition re-lists and stops the
    pod sooner); a claim counts as leaked 2 s after its owner vanished. *)

val violations : t -> (int * violation) list
(** {!found} of the oracle's ledger. *)

val violated : t -> bool
