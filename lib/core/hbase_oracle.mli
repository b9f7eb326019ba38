(** Safety oracles for the HBase substrate: persistent region-safety
    violations judged against the ZooKeeper leader's ground truth.

    Violations are reported as {!Oracle.violation} constructors
    ([Region_stale_assign] / [Region_double_serve] / [Region_cas_wedged]),
    so everything downstream of the runner — signatures, journals,
    minimization targets, diagnosis cards — handles both substrates with
    one code path. *)

type t

val attach : Hbaselike.Cluster.t -> t
(** Registers on the leader's commit feed ({!Hbaselike.Zk.commits}),
    whose anchors its violations hang off, and installs the periodic
    checker (every 100 ms). Attach after
    {!Hbaselike.Cluster.create} and before [start].

    Thresholds separate persistent violations from transient repair
    windows: a dead assignment must survive 8 consecutive 100 ms checks
    (800 ms — a healthy master repairs within one balance period plus
    replication lag), and a double-served region must persist for 25
    checks (2.5 s — longer than any delayed-notification window worth
    calling transient). *)

val violations : t -> (int * Oracle.violation) list
(** {!Oracle.found} of the oracle's ledger. *)
