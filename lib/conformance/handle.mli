(** Substrate-erased view of an attached conformance monitor.

    {!Monitor} is polymorphic in the store's value type; a runner outcome
    must not be. Everything diagnosis and reporting need — violations,
    divergence points, a rendering of the committed event at a revision —
    is monomorphic, so this handle hides the value type of either
    dialect's conformance core ({!Wiring}) and exposes only that. *)

type t

val of_kube : Hooks.t -> t

val of_hbase : Hbase_hooks.t -> t

val violations : t -> Monitor.violation list

val total : t -> int

val strict : t -> bool

val divergences : t -> Monitor.divergence list

val committed_describe : t -> int -> string option
(** [describe] of the committed event at a revision, if mirrored. *)

val finish : t -> unit
