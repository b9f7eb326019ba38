(** Substrate-generic interception points: the hooks the Sieve tool uses
    to regulate how a view [(H', S')] advances relative to the ground
    truth, independent of which control plane owns the edge.

    Every notification edge — etcd→apiserver and apiserver→informer
    watch streams in the kube dialect, ZooKeeper leader→follower
    replication and znode-watch deliveries in the HBase dialect —
    consults an interceptor before delivering an event. The default
    policy passes everything through; a testing strategy installs a
    policy that delays (staleness), drops (observability gaps) or merely
    observes (for planning) specific events on specific edges. *)

type edge = {
  src : string;  (** upstream address, e.g. ["etcd"] or ["zk-leader"] *)
  dst : string;  (** downstream address, e.g. ["kubelet-1"] or ["rs-2"] *)
}

val pp_edge : Format.formatter -> edge -> unit

type decision =
  | Pass
  | Drop  (** the event silently never arrives — the stream stays up *)
  | Delay of int
      (** hold the event (and, because streams are FIFO, everything behind
          it) for this many extra microseconds *)

type 'v policy = edge -> 'v Event.t -> decision

type 'v t

val create : unit -> 'v t

val decide : 'v t -> edge -> 'v Event.t -> decision

val set_policy : 'v t -> 'v policy -> unit

val clear : 'v t -> unit
(** Restores the pass-through policy. *)

val set_observer : 'v t -> (edge -> 'v Event.t -> decision -> unit) -> unit
(** Callback invoked on every decision; the planner uses it to enumerate
    perturbation points, the reporter to log what a strategy did. *)
