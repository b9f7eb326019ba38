(** Controller: the lifecycle every component shares.

    A component is a named node with a {!Client} and informers, started
    in the order they were added. {!start} installs the node's one
    crash/restart lifecycle:

    - a crash stops every informer, then runs the component's own reset
      (containers and other state that outlive the process stay);
    - a restart starts every informer again at endpoint index
      [incarnation] (so apiserver [incarnation mod n] of its [n]
      endpoints), re-listing from scratch. Each incarnation lands on a
      different apiserver behind the load balancer — the hinge of
      Kubernetes-59848, where that apiserver is stale.

    {!every} runs the component's reconcile pass, skipped while the node
    is down. *)

type t

val create : net:Dsim.Network.t -> name:string -> endpoints:string list -> t
(** The component's node is [name]; its client talks to [endpoints].
    It has no informers until {!watch} adds them. *)

val watch : t -> Informer.t -> Informer.t
(** Adds an informer, started after those added before it, and returns
    it. *)

val name : t -> string

val client : t -> Client.t

val engine : t -> Dsim.Engine.t

val informers : t -> Informer.t list
(** In start order. *)

val start : t -> on_crash:(unit -> unit) -> unit
(** Installs the lifecycle, then starts each informer at endpoint 0. *)

val every : t -> period:int -> (unit -> unit) -> unit
(** Runs the pass now and then every [period] while the node is up. *)

val view_rev : t -> int
(** The least revision across the informers (0 before start): the
    component's partial-history position, read by the cluster's
    revision-lag sampler. *)

val record : t -> string -> string -> unit
(** [record t kind detail] traces [detail] under [kind], with the
    component as actor. *)
