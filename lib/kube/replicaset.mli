(** ReplicaSet controller: keeps [rs_replicas] interchangeable pods alive
    per [Rset] object.

    Replicas are anonymous — replacement pods get fresh, never-reused
    names from a per-set counter, as the real controller's random
    suffixes do. That choice makes the controller quantitatively
    sensitive to partial histories: it decides how many pods to create by
    *counting its cached view*, so a view that lags behind its own recent
    creations makes it create again, and again, one burst per reconcile
    pass — the classic controller over-provisioning incident.

    The [expectations] flag applies client-go's remedy
    (UIDTrackingControllerExpectations): creations the controller has
    issued but not yet observed count toward the replica total until they
    appear or time out, so a merely *slow* view no longer causes
    over-creation. *)

type t

val create :
  net:Dsim.Network.t ->
  name:string ->
  endpoints:string list ->
  ?expectations:bool ->
  unit ->
  t
(** Default: no expectations (the bug-era behaviour). Expectations time
    out after 2 s. Informers: ReplicaSets, then pods. *)

val start : t -> unit
(** Starts the {!Controller} lifecycle (a crash also forgets the
    expectations and the orphan strikes) and the reconcile pass, every
    150 ms. *)

val controller : t -> Controller.t

val creates : t -> int
(** Pod creations issued (not all succeed — creation is guarded). *)

val deletes : t -> int
(** Surplus pods marked for deletion. *)
