(** The committed history [H]: an append-only, compactable event log with
    its incrementally-materialized state [S].

    This is the ground truth that lives in the strongly-consistent store.
    Revisions are assigned densely starting at 1. Compaction discards the
    prefix of the log (the store keeps only a rolling window of recent
    events, Section 4.2.3) — after compaction, a request for older events
    fails with [`Compacted], which is how observability gaps arise even
    for clients that use the event API. Only the current [S] is kept:
    compaction is a window shift, and no state older than the head can
    be reconstructed. *)

type 'v t

val create : unit -> 'v t

val append : 'v t -> key:string -> op:Event.op -> 'v option -> 'v Event.t
(** Commits a change, assigning the next revision, and returns the event. *)

val rev : 'v t -> int
(** Latest committed revision; 0 when empty. *)

val compacted_rev : 'v t -> int
(** Highest revision removed by compaction; 0 if never compacted. *)

val state : 'v t -> 'v State.t
(** The current materialized [S]. *)

val since : 'v t -> rev:int -> ('v Event.t list, [ `Compacted of int ]) result
(** [since t ~rev] returns the committed events with revision > [rev] in
    order — an O(k) slice of the revision-indexed window, not a filter
    over all retained events — or [`Compacted compacted_rev] if
    [rev < compacted_rev] so the caller has missed events it can never
    see. *)

val events : 'v t -> 'v Event.t list
(** All retained events, oldest first. *)

val length : 'v t -> int
(** Number of retained (non-compacted) events. *)

val compact : 'v t -> before:int -> unit
(** Discards events with revision <= [before] — an O(k) window shift in
    the number of discarded events. Compacting beyond the head is
    clamped. *)

val compact_keep_last : 'v t -> int -> unit
(** Keeps only the last [n] events — the "rolling window of recent
    events" the Kubernetes apiserver maintains. *)
