(** Volume controller: releases persistent volume claims of pods that are
    going away.

    The controller's contract is "when a pod is marked for deletion,
    release its claim". It learns about the world exclusively through
    *sparse reads* of its informer store — it does not react to events.
    That makes its correctness hinge on the mark state being observable
    at some read: if the pod is marked (e1) and then removed (e2) between
    two reconcile passes — or if the mark event is dropped on the way to
    its cache — the controller never sees a marked pod and never releases
    the claim. That is the observability-gap controller bug the paper
    cites ([cassandra-operator-398]'s pattern, also the Kubernetes
    controller bug of reference [17]).

    Fixed mode also releases claims whose owner pod has disappeared
    entirely, closing the gap.

    Scope: claims named outside the Cassandra operator's ["data-"]
    namespace (the operator manages those itself). *)

type t

val create :
  net:Dsim.Network.t ->
  name:string ->
  endpoints:string list ->
  ?release_on_absent_owner:bool ->
  unit ->
  t
(** Informers: pods, then claims. *)

val start : t -> unit
(** Starts the {!Controller} lifecycle and the reconcile pass, every
    150 ms. *)

val controller : t -> Controller.t

val releases : t -> int
(** Claims released so far. *)

val pods_informer : t -> Informer.t
