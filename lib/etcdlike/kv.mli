(** MVCC key-value core of the etcd-like store.

    A thin stateful layer over {!History.Log}: every mutation commits
    an event into the history (assigning the next global revision) and
    updates the materialized state. Commit listeners let servers stream
    events out; reads are linearizable by construction because
    there is a single store instance — the *network* layer is what makes
    client views stale, exactly as in the paper's architecture. *)

type 'v t

val create : unit -> 'v t

val rev : 'v t -> int
(** Latest committed revision. *)

val compacted_rev : 'v t -> int

val get : 'v t -> string -> ('v * int) option
(** Value and its mod-revision. *)

val range : 'v t -> prefix:string -> (string * 'v * int) list
(** All live keys with the prefix, sorted, with values and
    mod-revisions — one ordered-map range scan, O(log n + k). *)

val put : 'v t -> string -> 'v -> 'v History.Event.t
(** Creates or updates; the event's [op] reflects which. *)

val delete : 'v t -> string -> 'v History.Event.t option
(** [None] when the key was absent (no event committed). *)

val state : 'v t -> 'v History.State.t

val history : 'v t -> 'v History.Log.t

val since : 'v t -> rev:int -> ('v History.Event.t list, [ `Compacted of int ]) result

val compact : 'v t -> before:int -> unit

val compact_keep_last : 'v t -> int -> unit

val on_commit : 'v t -> ('v History.Event.t -> unit) -> unit
(** Registers a listener invoked synchronously after each commit, in
    registration order. Registration is amortized O(1). *)
