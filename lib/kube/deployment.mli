(** Deployment controller: two-level rollout orchestration.

    A [Deployment] names a replica count and a template *generation*;
    the controller owns one ReplicaSet per generation
    (["<dep>-g<generation>"]) and performs a surge-1 / unavailable-0
    rolling update between generations: the new set grows one replica at
    a time, the old set shrinks only as new pods actually report
    Running, and the old set's object is deleted when drained. All
    decisions are made from informer caches — the controller composes
    with {!Replicaset} through the store alone, never through direct
    calls, exactly as the real two-level controllers do. *)

type t

val create :
  net:Dsim.Network.t ->
  name:string ->
  endpoints:string list ->
  ?quorum_fallback:bool ->
  unit ->
  t
(** Default: no quorum fallback. Surge is 1. Informers: Deployments,
    ReplicaSets, then pods. [quorum_fallback] is the defensive fix for
    view-wedged rollouts: when a rollout makes no progress for several
    passes, re-count the new generation with a linearizable read instead
    of trusting the cache. *)

val start : t -> unit
(** Starts the {!Controller} lifecycle (a crash forgets the stall counts
    and the quorum-read Running counts) and the reconcile pass, every
    150 ms. *)

val controller : t -> Controller.t

val rollouts_completed : t -> int
(** Generations fully rolled out (old set drained and removed). *)
