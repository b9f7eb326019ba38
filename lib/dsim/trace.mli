(** Simulation trace: a time-ordered log of everything observable.

    The trace serves four purposes: it is what the Sieve planner mines
    for perturbation points, it is the evidence printed when an oracle
    fires (the Figure-2-style walkthrough), it is the reference
    execution a perturbed run is compared against, and — through the
    cause links — it is a queryable provenance graph: every entry can
    name the entry that triggered it (a watch delivery caused by a
    commit, a reconcile caused by a delivery), so "why did this
    happen?" is answered by walking {!chain} backwards instead of by
    reading the whole log. *)

type entry = {
  id : int;  (** unique within the trace, assigned in recording order, > 0 *)
  time : int;  (** virtual microseconds *)
  actor : string;  (** component that produced the event *)
  kind : string;  (** category, e.g. "watch.deliver", "crash", "read" *)
  detail : string;  (** human-readable payload *)
  cause : int option;  (** id of the entry that triggered this one *)
}

type t

val create : ?capacity:int -> unit -> t
(** Unbounded by default. [~capacity:n] (n > 0) selects bounded
    ring-buffer mode: once [n] entries are live, each new entry
    deterministically evicts the oldest one (see {!dropped}). Raises
    [Invalid_argument] on a non-positive capacity. *)

val no_cause : int
(** [0], the [~cause] of an entry that has none: ids start at 1. *)

val emit : t -> time:int -> actor:string -> kind:string -> cause:int -> string -> int
(** Appends an entry and returns its id, for callers that want to
    thread it as the [~cause] of downstream entries. *)

val emit_deferred :
  t -> time:int -> actor:string -> kind:string -> cause:int -> (unit -> string) -> int
(** Like {!emit}, but the detail is rendered only when the entry is
    read: by {!entries}, {!find}, {!find_first}, {!find_all},
    {!chain}, {!to_jsonl} or {!pp}, once per read. The
    renderer must close only over values that are fixed when the entry
    is recorded, so that every read renders the same bytes; it is
    dropped with the entry when a ring buffer evicts it. *)

val entries : t -> entry list
(** Live entries in chronological (recording) order, details rendered.
    In ring-buffer mode this is the retained suffix. *)

val length : t -> int
(** Number of live entries. *)

val recorded : t -> int
(** Total entries ever recorded, including evicted ones. *)

val dropped : t -> int
(** Entries evicted by the ring buffer (0 in unbounded mode). *)

val capacity : t -> int option

val clear : t -> unit
(** Empties the trace and restarts ids from 1. *)

val find : t -> id:int -> entry option
(** Lookup among live entries: constant time when ids are dense (every
    trace the engine records), a binary search over the ascending ids
    otherwise (an imported trace with gaps). *)

val find_first : t -> kind:string -> entry option
(** The oldest live entry of this kind, without building a list. *)

val find_all : t -> kind:string -> entry list

val chain : t -> id:int -> entry list
(** Walks the cause links backwards from [id] and returns the causal
    chain oldest-first, ending with entry [id] itself. The walk stops
    at an entry with no cause, at a cause that was evicted from the
    ring buffer, or at a cause whose id is not below its entry's (the
    engine never records one; every cycle contains one). [[]] when
    [id] is not live. *)

val entry_to_json : entry -> Json.t

val to_jsonl : t -> string
(** One JSON object per line, chronological order, trailing newline.
    The machine-readable artifact emitted by [sieve trace --json]. *)

val of_jsonl : string -> (t, string) result
(** Reads a {!to_jsonl} dump back into an unbounded trace, preserving
    entry ids (so {!chain} works on the imported trace). Blank lines
    are ignored; the first malformed line, or the first whose id is not
    above the previous line's, aborts with its line number. *)

val pp : Format.formatter -> t -> unit
(** Prints the whole trace, one entry per line. *)
