(** Mutation self-test: proof the monitor has teeth.

    A monitor that never fires is indistinguishable from a monitor that
    checks nothing, so the conformance layer ships with its own killers:
    a committed history is generated, then replayed to a simulated
    consumer with one deliberate perturbation, and each perturbation
    must trip the monitor with the violation {e code} it stands for
    (while the unperturbed control replay must not). A monitor that
    fires the wrong alarm would misdirect every diagnosis card built on
    it.

    Each boundary has one table of mutations, run over its own key pool:

    - [Kube], over pod keys: a dropped delivery ([Gap]), two reordered
      deliveries ([Non_monotone]), a stale cache claiming a fresh
      revision ([State_divergence]), a corrupted event value
      ([Content]) and a frontier beyond the committed history
      ([Future_rev]);
    - [Hbase], over znode keys ([region/*], [rs/registry]): a one-shot
      watch notification lost between fire and re-arm ([Gap]), a master
      region map assembled from a truncated catch-up pull while claiming
      the leader's head revision ([State_divergence]) and a forged znode
      payload ([Content]).

    Deterministic for a given seed; a soak runs many derived seeds. The
    perturbations are constructed to be detectable for {e every} seed
    (e.g. the dropped event is never the last one, so a later delivery
    always exposes the gap). *)

type outcome = {
  mutation : string;  (** ["control"] or the perturbation's name *)
  tripped : bool;  (** the monitor reported at least one violation *)
  codes : Monitor.code list;  (** distinct violation codes, detection order *)
  expected : Monitor.code option;  (** the mutation's code; [None] for the control *)
}

val ok : outcome -> bool
(** Control must stay silent; every mutation must trip with its expected
    code among the distinct codes reported. *)

type boundary = Kube | Hbase

val run : ?seed:int64 -> boundary -> outcome list
(** Generates a history of 40 commits (puts and deletes over the
    boundary's key pool) through a real {!Etcdlike.Kv}, then replays it
    against a fresh monitor once per mutation of the boundary's table.
    The control outcome is first. *)
