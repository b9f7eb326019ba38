(** Mutation self-test: proof the monitor has teeth.

    A monitor that never fires is indistinguishable from a monitor that
    checks nothing, so the conformance layer ships with its own killers:
    a committed history is generated, then replayed to a simulated
    consumer with one deliberate perturbation — a dropped delivery, two
    reordered deliveries, a stale cache claiming a fresh revision, a
    corrupted event value, a frontier beyond the committed history — and
    each perturbation must trip the monitor (while the unperturbed
    control replay must not).

    Deterministic for a given seed; a soak runs many derived seeds. The
    perturbations are constructed to be detectable for {e every} seed
    (e.g. the dropped event is never the last one, so a later delivery
    always exposes the gap). *)

type outcome = {
  mutation : string;  (** ["control"] or the perturbation's name *)
  tripped : bool;  (** the monitor reported at least one violation *)
  codes : Monitor.code list;  (** distinct violation codes, detection order *)
}

val ok : outcome -> bool
(** Control must stay silent; every mutation must trip. *)

val run : ?seed:int64 -> unit -> outcome list
(** Generates a history of 40 commits (puts and deletes over a small key
    pool) through a real {!Etcdlike.Kv}, then
    replays it against a fresh monitor once per perturbation. The control
    outcome is first. *)

(** {2 HBase-boundary mutations}

    The same teeth, ground against the ZooKeeper delivery boundary: a
    one-shot watch notification lost between fire and re-arm, a master
    region map assembled from a truncated catch-up pull while claiming
    the leader's head revision, and a forged znode payload. These pin
    the exact violation {e code} each defect must surface as — a monitor
    that fires the wrong alarm would misdirect every diagnosis card
    built on it. *)

val hbase_ok : outcome -> bool
(** Control must stay silent; every mutation must trip {e with} its
    expected code among the distinct codes reported: ["drop-zk-notify"]
    → [Gap], ["stale-region-map"] → [State_divergence], ["forge-znode"]
    → [Content]. *)

val run_hbase : ?seed:int64 -> unit -> outcome list
(** Like {!run}, over znode-flavored keys ([region/*], [rs/registry])
    with the HBase-boundary perturbations. The control outcome is
    first. *)
