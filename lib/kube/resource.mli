(** Typed cluster objects: the values stored in the etcd-like store.

    The object zoo is the minimum needed to express the paper's five bug
    case studies: pods (with bindings, phases and deletion timestamps),
    nodes, persistent volume claims, and Cassandra datacenters (the
    custom resource reconciled by the Cassandra operator). Keys follow
    the Kubernetes convention of ["<kind-plural>/<name>"]. *)

type pod_phase = Pending | Running | Succeeded | Failed

type pod = {
  pod_name : string;
  node : string option;  (** binding; [None] while unscheduled *)
  phase : pod_phase;
  deletion_timestamp : int option;
      (** virtual time at which the pod was marked for deletion *)
  pvc : string option;  (** claim this pod mounts *)
  owner : string option;  (** owning controller's object key *)
  ordinal : int option;  (** stable member index for statefulset-like sets *)
}

type node = { node_name : string; ready : bool }

type pvc = { pvc_name : string; owner_pod : string option }

type cassdc = { dc_name : string; replicas : int }
(** Desired member count; the operator reconciles actual members toward
    it. *)

type rset = { rs_name : string; rs_replicas : int }
(** A ReplicaSet-style workload object: keep [rs_replicas] anonymous,
    interchangeable pods alive. *)

type lock = { lock_name : string; holder : string }
(** A coordination object (leader-election record); the key is typically
    lease-attached so it vanishes when the holder goes silent. *)

type deployment = { dep_name : string; dep_replicas : int; template : int }
(** A Deployment-style rollout object: keep [dep_replicas] pods of
    template generation [template] alive, moving between generations with
    a surge-1 / unavailable-0 rolling update via owned ReplicaSets. *)

type value =
  | Pod of pod
  | Node of node
  | Pvc of pvc
  | Cassdc of cassdc
  | Rset of rset
  | Lock of lock
  | Deployment of deployment

val pp : Format.formatter -> value -> unit

val to_string : value -> string

(** {2 Keys} *)

val pod_key : string -> string
val node_key : string -> string
val pvc_key : string -> string
val cassdc_key : string -> string
val rset_key : string -> string
val lock_key : string -> string
val deployment_key : string -> string

val pods_prefix : string
val nodes_prefix : string
val pvcs_prefix : string
val cassdcs_prefix : string
val rsets_prefix : string
val deployments_prefix : string

val kind_of_key :
  string -> [ `Pod | `Node | `Pvc | `Cassdc | `Rset | `Lock | `Deployment | `Other ]

val name_of_key : string -> string
(** The part after the first ['/']; the key itself when there is none. *)

(** {2 Constructors and accessors} *)

val owned_by : string -> pod -> bool
(** [owned_by key p]: [p]'s owner is the object at [key]. Allocates
    nothing, unlike [p.owner = Some key]. *)

val make_pod :
  ?node:string ->
  ?phase:pod_phase ->
  ?deletion_timestamp:int ->
  ?pvc:string ->
  ?owner:string ->
  ?ordinal:int ->
  string ->
  value

val make_node : ?ready:bool -> string -> value

val make_pvc : ?owner_pod:string -> string -> value

val make_cassdc : replicas:int -> string -> value

val make_rset : replicas:int -> string -> value

val make_lock : holder:string -> string -> value

val make_deployment : replicas:int -> template:int -> string -> value
