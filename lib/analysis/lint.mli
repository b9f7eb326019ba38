(** Layer-1 static analysis: a guard-aware stale-taint lint over
    controller code (built on {!Taint}).

    The lint parses [.ml] files with the compiler's own frontend
    (compiler-libs, no type-checking). Values derived from cached reads
    are tainted; taint propagates through bindings and interprocedurally
    via per-function summaries; destructive writes, proposals, and
    region assignments are sinks; recognized guards (quorum re-read,
    revision precondition, sync leader read, epoch seal) kill taint. A
    finding is reported at the function where the source half and the
    sink half first combine, and carries the full evidence path.

    Dataflow rules:
    - {b stale-write} ([`Staleness], cassandra-operator-400/402): a
      cached informer/[State] read reaches a destructive write with no
      guard on the path.
    - {b follower-read-then-write} ([`Staleness]): data read from a
      lagging replica ([Replicated.Kv] routed reads, [Zk.read] without
      [~sync:true]) reaches a write or proposal unguarded.
    - {b stale-region-assign} ([`Staleness], HBASE-3136): a region
      reassignment CAS whose [~expected_mod_rev] came from the ZK
      follower — the follower assigns its own revisions, so the
      precondition cannot guard the leader write.
    - {b retry-no-dedup} ([`Staleness]): an error-branch retry issues a
      fresh proposal with no proposal-id dedup or revision
      precondition; the original may also have applied.

    Shape rules (same walk, structural sites):
    - {b edge-trigger} ([`Obs_gap], Kubernetes-56261): a watch handler
      matches event constructors while nothing periodically re-lists
      the prefix.
    - {b zk-one-shot-watch} ([`Obs_gap]): a ZooKeeper watch handler
      that neither re-registers the watch nor re-reads the key.
    - {b stale-resync} ([`Time_travel], Kubernetes-59848): an
      [~on_restart] handler resumes from a remembered pre-crash
      revision. *)

type finding = {
  rule : string;
      (** ["stale-write"] | ["follower-read-then-write"] |
          ["stale-region-assign"] | ["retry-no-dedup"] |
          ["edge-trigger"] | ["zk-one-shot-watch"] | ["stale-resync"] *)
  pattern : Sieve.Coverage.pattern;
  file : string;  (** basename of the offending file *)
  func : string;  (** top-level binding (or handler) the finding is in *)
  line : int;  (** the sink (or site) line *)
  message : string;
  path : Taint.path;  (** evidence: source -> steps -> sink, missing guard *)
}

val key : finding -> string
(** ["file:pattern:func"] — the stable identity used by baselines
    (survives rule renames; coarser than the rule on purpose). *)

val explain : finding -> string
(** The rendered evidence path ([sieve lint --explain]). *)

val file : string -> (finding list, string) result
(** Lints one [.ml] file; [Error] describes a parse failure. *)

val files : string list -> finding list * string list
(** Lints many files: findings (sorted by file, line) and parse errors. *)

val load_baseline : string -> string list
(** Reads suppressed finding keys, one per line; [#] starts a comment,
    blank lines are ignored. A missing file is an empty baseline. *)

val suppress : baseline:string list -> finding list -> finding list * finding list
(** Splits findings into (fresh, suppressed) against baseline keys in
    the {!key} format. *)

val save_baseline : path:string -> finding list -> unit
(** Writes the given findings' keys as a fresh baseline. *)

val to_json : finding -> Dsim.Json.t

val explain_lines : finding -> string list
(** {!explain}, split into lines (for embedding in JSON artifacts). *)
