(** Kubelet: the per-node agent that runs pods.

    The kubelet learns which pods it should run from a pod informer and
    keeps a local set of running pods. Containers outlive the kubelet
    process: the running set survives a kubelet crash, and on restart the
    kubelet re-lists from one of its apiservers — rotating to a different
    endpoint per incarnation, like a client behind a load balancer — and
    reconciles the running set against whatever that (possibly stale)
    apiserver reports. This is the exact mechanism of Kubernetes-59848:
    restart + stale list ⇒ re-running a pod that was migrated away.

    Deletion protocol: when a pod it runs is *marked* for deletion
    (non-null [deletion_timestamp]), the kubelet stops it after the grace
    period and then finalizes — removes the pod object — so the mark and
    the removal are two distinct history events, as in Kubernetes.

    It has no reconcile loop: it acts on pod events and on re-lists. The
    crash/restart lifecycle is the shared {!Controller}'s. *)

type t

val create :
  net:Dsim.Network.t ->
  name:string ->
  node:string ->
  endpoints:string list ->
  ?monotonic:bool ->
  unit ->
  t
(** [node] is the name of the node object this kubelet manages.
    [monotonic] applies the 59848 fix to its informer. A marked pod is
    finalized after a 500 ms grace period. *)

val start : t -> unit

val name : t -> string

val node_name : t -> string

val controller : t -> Controller.t

val running : t -> string list
(** Names of pods currently running locally (ground truth for the
    unique-execution oracle), sorted. *)

val is_running : t -> string -> bool

val starts : t -> int
(** Cumulative count of pod starts (for churn statistics). *)

val stops : t -> int

val informer : t -> Informer.t
(** Its pod informer. *)
