(** Watch hub: revision-addressed event streams over the store.

    A watcher names a start revision and an optional key prefix; it first
    receives the retained backlog after that revision, then live events as
    they commit. Asking for a start revision older than the compaction
    frontier fails with [`Compacted] — the client has to fall back to a
    full list + re-watch, losing the intervening events (an observability
    gap by design, cf. Section 4.2.3 and the Kubernetes "efficient watch
    resumption" KEP).

    Live delivery routes through {!History.Dispatch}, a prefix-trie
    watcher index: a commit visits only the watchers whose prefix matches
    its key, in registration order, instead of filtering the full watcher
    list. Cancellation takes effect immediately — a watcher cancelled
    from inside a delivery callback (its own or a peer's) receives no
    further events, including the event currently fanning out. *)

type 'v t

val create : 'v Kv.t -> 'v t
(** Attaches to the store's commit stream. Create at most one hub per
    store. *)

type handle

val watch :
  'v t ->
  ?prefix:string ->
  start_rev:int ->
  deliver:('v History.Event.t -> unit) ->
  unit ->
  (handle, [ `Compacted of int ]) result
(** [start_rev] is the last revision the client has already seen; the
    stream begins at [start_rev + 1]. Backlog delivery happens inside
    this call, in revision order. *)

val cancel : 'v t -> handle -> unit
(** Effective immediately, even against an in-flight {!fan_out}. *)

val active : 'v t -> int
(** Number of live watchers. *)

val fan_out : 'v t -> 'v History.Event.t -> unit
(** Pushes one event to every matching watcher — exposed for servers that
    replay events from their own cache rather than from store commits. *)
