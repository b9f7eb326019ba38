(** Watcher fan-out index: delivery in O(matching watchers).

    The watch-stream table ([Kube.Streams]), from which etcd (either
    backend) and every apiserver serve their subscribers, asks one
    question per committed event: which registered watchers match this
    key? The naive answer walks every watcher and filters by
    {!Event.matches_prefix}; at cluster scale (hundreds of informers,
    100k+ objects) that walk IS the dispatch bottleneck. This index
    stores watchers in a character trie keyed by their prefix, so a
    commit touches only the trie path of its key: the buckets visited
    are exactly the registered prefixes that prefix the key, plus the
    prefixless (match-all) bucket.

    Iteration is reentrancy-safe by construction: a watcher removed
    from inside a delivery callback — its own or another's — is never
    pushed again within the same event, and a watcher added from
    inside a callback is not visited until the next event. Removal is
    a liveness flip, O(1); dead slots are compacted outside iteration
    once they outnumber the living.

    Delivery order among matching watchers is a stable caller-owned
    total order (default: registration order). A caller that must pin
    a historical order — [Kube.Streams] pins its subscriber hashtable's
    order, which the fixed-seed hunt journals rest on — reassigns order
    keys with {!set_order} when its subscriber set changes; events
    between changes pay only O(m log m) for the sort of the m matching
    watchers. *)

type 'a t

val create : unit -> 'a t

val add : 'a t -> ?prefix:string -> 'a -> int
(** Registers a watcher and returns its handle. [?prefix] omitted
    means match every key. Amortized O(|prefix|). *)

val remove : 'a t -> int -> bool
(** Unregisters; [false] when the handle is unknown or already
    removed. Safe to call from inside an iteration callback: the
    entry stops matching immediately, including for the event being
    dispatched. *)

val find : 'a t -> int -> 'a option

val size : 'a t -> int
(** Live watchers. *)

val set_order : 'a t -> int -> order:int -> unit
(** Reassigns the entry's sort key. Matching watchers are delivered
    in ascending [order] (ties by handle). Default order is the
    handle itself, i.e. registration order. *)

val iter_matching : 'a t -> key:string -> (int -> 'a -> unit) -> unit
(** [iter_matching t ~key f] calls [f handle payload] for every live
    watcher whose prefix matches [key], in order. O(|key| + m log m)
    for m matches. *)

val iter_all : 'a t -> (int -> 'a -> unit) -> unit
(** Every live watcher, in order — for bookmark/seal-style broadcast
    where prefixes don't apply. The ordered snapshot is cached until
    the next {!add}, {!remove}, {!set_order} or {!clear}, so repeated
    broadcasts over an unchanged set cost O(n) and allocate nothing. *)

val matching : 'a t -> key:string -> 'a list
(** The matching payloads, in order — the reference answer the qcheck
    equivalence suite compares against the naive filter. *)

val clear : 'a t -> unit
