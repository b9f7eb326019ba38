(** Online subsequence-invariant monitor.

    The paper's foundation (Section 3) is a definition, not a bug oracle:
    every component's observed view [(H', S')] must be a *subsequence* of
    the committed history [(H, S)]. The simulator reproduces bugs by
    manufacturing legal-but-unfortunate subsequences — so a simulator
    defect that produced an *illegal* view (an event the store never
    committed, a cache claiming a revision it never reached) would
    silently invalidate every campaign run on top of it. This monitor
    checks the invariant itself, online, against a private mirror of the
    committed history.

    The monitor maintains its own never-compacted mirror of [H] (fed by
    {!note_commit}) plus one persistent state snapshot per revision, so
    [S] at any claimed revision is an O(1) lookup. Observations arrive
    from read-only {!Kube.Tap}s (or directly, in store-tier harnesses)
    and are checked in two tiers:

    {b Always on} — violated only by a simulator defect, regardless of
    what faults are injected:
    - {e density}: commits arrive with consecutive revisions 1, 2, 3, …
    - {e future revision}: no view may claim a revision beyond the
      committed frontier, and no cached binding may carry a mod-revision
      above the view's claimed revision;
    - {e monotonicity}: within one stream generation, delivered event
      revisions strictly increase;
    - {e authenticity}: every delivered event equals the committed event
      at its revision (key, op, value), respects the stream's key-prefix
      filter, and every cached binding [(k, (v, mod_rev))] matches a
      committed create/update of [k] with value [v] at [mod_rev].

    {b Strict mode} — additionally assumes no event was deliberately
    dropped (interceptor [Drop]); {!relax} is called on the first drop:
    - {e completeness}: a delivered event or frontier advance may not
      skip a committed event matching the stream's filter;
    - {e state equality}: a cache claiming revision [r] equals the
      committed state at [r], restricted to the stream's prefix.

    Delays, partitions and crash/restarts all {e preserve} strict-mode
    validity: pipes are FIFO, broken streams force a re-list, and a
    re-list is a stream reset, not a violation. Informer time travel
    (adopting a stale list) is likewise a reset — the bug-era semantics
    the simulator exists to study, not a conformance failure.

    The monitor is passive: it draws no randomness, schedules no work and
    writes nothing to the cluster, so an attached monitor leaves the
    simulation's trajectory and journal bytes untouched (violations are
    surfaced through a caller-supplied callback). *)

type code =
  | Density  (** a commit skipped or repeated a revision *)
  | Future_rev  (** a view claimed a revision the store never reached *)
  | Non_monotone  (** delivered event revisions went backwards in-stream *)
  | Gap  (** strict: a matching committed event was skipped *)
  | Content  (** a delivered event differs from the committed event *)
  | State_divergence  (** a cached state contradicts the committed history *)

val code_to_string : code -> string

type violation = {
  code : code;
  subject : string;  (** the stream or component that misbehaved *)
  rev : int;  (** revision at which the violation was detected *)
  detail : string;
}

val describe : violation -> string

type divergence_kind =
  | Skip  (** the stream's frontier jumped over a matching committed event *)
  | Rewind  (** a re-list adopted a revision behind the stream's past frontier *)
  | Lag  (** committed events aged past the grace period undelivered *)

val divergence_kind_to_string : divergence_kind -> string

type divergence = {
  d_stream : string;
      (** base stream name — the ['@'generation] suffix is stripped, so a
          record names the consumer, not one of its incarnations *)
  d_kind : divergence_kind;
  d_rev : int;  (** first committed revision the view missed or re-adopted at *)
  d_key : string;  (** key of the missed committed event, or the stream's prefix *)
  d_frontier : int;  (** the stream's frontier when the divergence was detected *)
  d_detail : string;
}
(** A stream's {e divergence point}: the first delivery (or absence of
    one) where its observed [(H', S')] left the committed subsequence.
    One record per base stream, the earliest detection kept — except that
    a [Lag] upgrades to [Skip] if the frontier later jumps the delayed
    revision. *)

type 'v t

val create : ?track_divergence:bool -> ?on_violation:(violation -> unit) -> unit -> 'v t
(** A monitor in strict mode, which enables the completeness and
    state-equality checks until {!relax}. [on_violation] fires once per
    distinct (code, subject) pair, at the first occurrence.
    [track_divergence] (default false) records each stream's divergence
    point — independently of strict mode, so the {e expected} gaps of a
    fault-injection run are still pinpointed after {!relax}. *)

val strict : 'v t -> bool

val relax : 'v t -> unit
(** Permanently drops to the always-on checks — call when an interceptor
    starts dropping events, after which gaps and divergent caches are the
    *intended* experiment, not a defect. *)

val note_commit : 'v t -> 'v History.Event.t -> unit
(** Feed every committed event, in commit order (register on the store's
    commit feed before any consumer). *)

val mirror_rev : 'v t -> int
(** Revisions mirrored so far. *)

val observe_event : 'v t -> stream:string -> ?prefix:string -> 'v History.Event.t -> unit
(** A consumer applied a delivered watch event. [stream] must be unique
    per (component, upstream, generation) — a new generation is a new
    stream. *)

val observe_advance : 'v t -> stream:string -> ?prefix:string -> rev:int -> unit -> unit
(** The stream's frontier advanced to [rev] without a state change
    (bookmark, or an epoch seal whose counts agreed). *)

val observe_reset : 'v t -> stream:string -> ?prefix:string -> rev:int -> 'v History.State.t -> unit
(** The consumer rebuilt its cache from a list response claiming [rev].
    Resets the stream's frontier — backwards movement here is informer
    time travel, which is legal (if regrettable) behaviour. *)

val touch : 'v t -> subject:string -> string -> unit
(** The binding of this key in [subject]'s cache changed (was added,
    replaced or removed) since the subject's last {!check_state}. *)

val touch_all : 'v t -> subject:string -> unit
(** [subject]'s cache was replaced wholesale (a re-list, a resync, a
    cache discarded by a crash): its next {!check_state} re-judges every
    binding. *)

val check_state : 'v t -> subject:string -> ?prefix:string -> rev:int -> 'v History.State.t -> unit
(** Spot-check a cache against the mirror: binding authenticity always;
    exact equality with the committed state at [rev] (restricted to
    [prefix]) in strict mode.

    The check is incremental per [subject]. The monitor keeps, from the
    subject's last completed check, the keys whose cached binding is
    inauthentic and the keys whose binding differs from the committed
    state. It re-judges only the keys {!touch}ed since, the keys of
    committed events between the two claimed revisions, and the
    inauthentic ones — a binding's verdicts cannot move otherwise. The
    first check of a subject, a check after {!touch_all}, and a check
    with a different [prefix] judge every binding. So the caller must
    touch every key it changes between two checks of one subject, or
    touch them all; checking each subject once needs neither.

    The reports are those of a full check: one per inauthentic binding,
    in key order, then (strict mode) one state-equality report whose
    missing/extra counts come from a full diff, taken only when the
    kept count says the two states differ. A claim beyond the mirror
    reports [Future_rev] alone and leaves the subject's record as it
    was. *)

val violations : 'v t -> violation list
(** Distinct violations (first occurrence per (code, subject)), in
    detection order. *)

val total : 'v t -> int
(** Total violation occurrences, including deduplicated repeats. *)

val tracking : 'v t -> bool
(** Whether divergence tracking was requested at {!create}. *)

val divergences : 'v t -> divergence list
(** Divergence points recorded so far, in detection order. Empty unless
    created with [~track_divergence:true]. *)

val note_lag :
  'v t -> stream:string -> rev:int -> key:string -> frontier:int -> string -> unit
(** Record a [Lag] divergence: the committed event at [rev] (key [key],
    matching the stream's filter) is past due for a view at revision
    [frontier]. Pure delay never trips the frontier checks — FIFO pipes
    keep the subsequence intact — so lag is measured from outside
    ({!Wiring} ages the first undelivered event against the engine
    clock) and reported here, with the revision it was measured against:
    a replica's applied revision is not a stream frontier this monitor
    has seen. Ignored when the stream already has a divergence record. *)

val note_rewind : 'v t -> stream:string -> rev:int -> key:string -> string -> unit
(** Record a [Rewind] divergence reported from outside the frontier
    checks: a replica whose local revision numbering has left the
    committed domain (e.g. a post-compaction full resync on a store that
    assigns its own revisions). Upgrades an existing [Lag] record on the
    same stream in place — the lag was merely the cause; the rewind is
    the divergence — and is ignored if the stream already diverged some
    other way. *)

val frontier : 'v t -> stream:string -> int
(** The stream's frontier: the revision of its last accepted delivery,
    advance or reset; 0 for a stream never observed. A stream owes the
    committed events matching its prefix past this revision. *)

val first_undelivered : 'v t -> ?prefix:string -> after:int -> unit -> 'v History.Event.t option
(** The first committed event matching [prefix] with revision strictly
    above [after] — what a stream whose frontier sits at [after] is
    still owed. *)

val committed_at : 'v t -> int -> 'v History.Event.t option
(** The committed event at a revision, if the mirror holds it. *)
