(** The HBase dialect of the conformance core ({!Wiring}): one
    {!Monitor} threaded through the ZooKeeper delivery boundaries.

    The monitored stream is leader→follower replication — the follower's
    observed [(H', S')] against the leader's committed [(H, S)] — plus
    periodic state spot-checks of the follower replica at its claimed
    frontier. One-shot watch deliveries are {e not} frontier-checked:
    losing the events between a firing and the re-arm is the protocol's
    documented behaviour (the §4.2.3 observability gap under study), not
    a simulator defect. *)

type t = string Wiring.t

val attach : ?track_divergence:bool -> Hbaselike.Cluster.t -> t
(** Attach after {!Hbaselike.Cluster.create}, before [start]. Strict mode
    relaxes automatically at the first interceptor [Drop]. *)
