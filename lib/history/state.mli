(** Materialized state [S]: the map obtained by folding a history's events.

    Each binding remembers the revision that last touched it (Kubernetes'
    [resourceVersion]). The module is persistent so that views can be
    snapshotted for free. *)

type 'v t

val empty : 'v t

val rev : 'v t -> int
(** Revision of the latest event applied; 0 for {!empty}. *)

val apply : 'v t -> 'v Event.t -> 'v t
(** Applies one event. Deletions of absent keys and out-of-date events
    (rev <= already-applied rev for that key) are tolerated and applied
    with last-writer-wins semantics on the global revision, because a
    *view*'s state may legitimately receive replayed events. *)

val find : 'v t -> string -> ('v * int) option
(** Value and the revision that produced it. *)

val get : 'v t -> string -> 'v option

val mem : 'v t -> string -> bool

val bindings : 'v t -> (string * ('v * int)) list
(** Sorted by key. *)

val keys : 'v t -> string list

val cardinal : 'v t -> int

val bindings_with_prefix : 'v t -> prefix:string -> (string * ('v * int)) list
(** Bindings whose key starts with [prefix], sorted by key — a single
    ordered-map range scan (O(log n + k)) cut at the first key past the
    prefix run, yielding key, value and mod-revision in one traversal. *)

val iter_prefix : 'v t -> prefix:string -> (string -> 'v -> int -> unit) -> unit
(** [iter_prefix t ~prefix f] calls [f key value mod_rev] on the
    bindings of {!bindings_with_prefix}, in the same ascending key
    order, and builds nothing: no list, no per-key lookup, no word
    allocated per binding. It visits every key of the map, so it suits
    a store that holds one prefix, such as an informer's: a periodic
    pass walks its informer store with it. The store is a persistent
    value, so the walk sees the store as it was when the pass read it. *)

val fold : (string -> 'v * int -> 'acc -> 'acc) -> 'v t -> 'acc -> 'acc

val diff : 'v t -> 'v t -> (string * [ `Added | `Removed | `Changed ]) list
(** [diff before after] lists keys whose presence or revision differs.
    This is exactly what a component doing sparse reads can recover — note
    that a create followed by a delete between two reads produces *no*
    entry, which is the paper's Figure 3c observability gap. *)
