(** Node controller: fails over pods whose node has disappeared.

    Watches nodes and pods; when a bound pod's node has been absent from
    the node cache for a few consecutive passes, the pod is marked
    [Failed] so its owning controller replaces it and its kubelet (if
    any) stops it.

    The failure-detection decision is made entirely from the cached view,
    which is the hazard: a node whose *creation* the controller never
    observed looks exactly like a node that is gone, and every healthy
    pod scheduled onto it gets shot. [quorum_guard] applies the defensive
    fix: confirm the node is really absent with a linearizable read
    before failing anything. *)

type t

val create :
  net:Dsim.Network.t ->
  name:string ->
  endpoints:string list ->
  ?quorum_guard:bool ->
  unit ->
  t
(** Default: no quorum guard. A node must be missing for 3 consecutive
    passes before its pods are failed. Informers: pods, then nodes. *)

val start : t -> unit
(** Starts the {!Controller} lifecycle (a crash also forgets the
    strikes) and the reconcile pass, every 200 ms. *)

val controller : t -> Controller.t

val evictions : t -> (string * string) list
(** (pod, node) pairs this controller failed, oldest first. *)
