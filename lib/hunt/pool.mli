(** Deterministic fan-out over OCaml 5 domains.

    Trials are embarrassingly parallel (each one is an independent,
    hermetic simulation), but the campaign's bookkeeping — journal
    appends, deduplication, minimization — must be sequential and
    order-stable so that a [--jobs 4] run produces a byte-identical
    journal to a [--jobs 1] run. The pool therefore separates the two:
    [f] runs on worker domains in whatever order the scheduler reaches
    tasks, while [emit] runs on the calling domain, strictly in task
    order, through a reorder buffer. *)

val map_ordered :
  jobs:int -> tasks:'a array -> f:(int -> 'a -> 'b) -> emit:(int -> 'b -> unit) -> unit
(** [map_ordered ~jobs ~tasks ~f ~emit] computes [f i tasks.(i)] on up
    to [jobs] worker domains and calls [emit i result] for [i = 0, 1,
    ...] in index order on the calling domain. [jobs <= 1] degrades to a
    plain sequential loop (no domains spawned) that empties the minor
    heap before each task, so a task that allocates less than the minor
    heap holds promotes nothing; the parallel branch never forces a
    collection, since in OCaml 5 one stops every domain. [f] must not
    share mutable state across tasks; [emit] may. If [f] or [emit]
    raises, the first exception is re-raised on the calling domain
    after all workers have stopped. *)
