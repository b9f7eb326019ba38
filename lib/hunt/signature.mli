(** Stable violation signatures for finding deduplication.

    Two trials that expose "the same bug on the same object through the
    same component" must collapse to one finding, however different
    their strategies were. The signature is [bug-id/component/key]:
    {!Sieve.Oracle.bug_id} names the bug class, the component whose
    partial history produced it names the actor (for duplicate pods, the
    sorted kubelet set), and {!Sieve.Oracle.key} the principal object —
    together a stable identity that survives re-runs, re-orderings and
    campaign resumes. *)

val of_violation : Sieve.Oracle.violation -> string
(** ["bug-id/component/key"], e.g.
    ["K8s-56261/scheduler/livelock:post-1:node-2"]. *)

val of_conformance : Conformance.Monitor.violation -> string
(** ["conformance/code/subject"], with the subject's ["@generation"]
    suffix stripped so repeated violations of the same stream across
    restarts (and across trials) collapse to one id. *)

val to_dirname : string -> string
(** Filesystem-safe rendering of a signature (for per-finding artifact
    directories): every byte outside [\[A-Za-z0-9._-\]] becomes ['_']. *)
