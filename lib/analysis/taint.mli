(** Stale-taint dataflow core for the lint (layer 1).

    Parse-only (no typing): values derived from cached reads — informer
    stores / [State] views, ZooKeeper follower reads, replicated-KV
    replica-routed reads — are tainted with the flavor of staleness
    they carry. Taint propagates through let-bindings, tuples, records,
    constructors, inline callbacks, and interprocedurally via
    per-function summaries (tainted return values, parameters that
    reach sinks) closed over the local call graph. Sinks are
    destructive writes, proposals, and ZooKeeper CAS/region-assignment
    writes. Recognized guards kill taint: quorum re-reads, revision
    preconditions (domain-aware: a follower-assigned [mod_rev] cannot
    guard a leader CAS), [~sync:true] leader catch-up reads, and epoch
    seals. Every surviving source-to-sink path is returned as an
    evidence {!path}.

    This module is pure analysis: nothing on the simulator's execution
    path calls it. *)

(** Where the staleness came from. *)
type kind =
  | Cache  (** informer store / [State] view rebuilt from a watch *)
  | Kv_replica  (** [Replicated.Kv] read routed by read_mode *)
  | Zk_follower  (** [Zk.read] served by the lagging follower *)

type sink_class =
  | Destructive  (** delete/decommission/evict/drain/purge call *)
  | Record_destroy  (** record literal setting deletion_timestamp / Failed *)
  | Region_assign  (** [Zk.cas]/[Zk.write] on a region key *)
  | Zk_write  (** other leader-bound ZooKeeper write *)
  | Proposal  (** replicated-store proposal ([Kv.put]/[txn]/...) *)
  | Reproposal  (** fresh proposal issued from an error-retry branch *)

type span = { line : int; what : string }

(** One evidence path: source, propagation spans in source-to-sink
    order, the sink, and the guard whose absence makes it a finding. *)
type path = {
  kind : kind;
  source : span;
  steps : span list;
  sink : span;
  sink_class : sink_class;
  missing_guard : string;
}

val kind_to_string : kind -> string

val render : file:string -> path -> string
(** Multi-line, human-readable evidence path (for [sieve lint --explain]). *)

val path_to_json : path -> Dsim.Json.t

(** {1 Structural sites} — collected during the same walk, consumed by
    the lint's shape rules (edge-trigger, stale-resync, one-shot
    watches). *)

type handler = Hname of string | Hinline of Parsetree.expression | Habsent

type informer_site = {
  i_line : int;
  i_enclosing : string;
  i_prefix : string option;
  i_handler : handler;
}

type restart_site = { r_enclosing : string; r_handler : handler }

type watch_site = { w_line : int; w_enclosing : string; w_key : string option; w_handler : handler }

type stub = { st_steps : span list; st_sink : span; st_class : sink_class }

type summary = {
  fn_name : string;
  fn_line : int;
  fn_body : Parsetree.expression;
  fn_params : (Asttypes.arg_label * string option) list;
  mutable fn_returns : (kind * span * span list) option;
  mutable fn_param_sinks : (string * stub) list;
  mutable fn_complete : path list;
  mutable fn_calls : string list;
  mutable fn_scans : string list;
}

type result = {
  funcs : summary list;
  complete : (summary * path) list;
      (** complete source-to-sink paths, reported at the function where
          the source half and the sink half first combine (a caller
          whose callee already owns a complete path is suppressed) *)
  reproposals : (summary * path) list;  (** retry-no-dedup candidates *)
  informers : informer_site list;
  restarts : restart_site list;
  watches : watch_site list;
  periodic_scanned : string list;
      (** prefix tokens re-listed by anything reachable from an
          [Engine.every] or [Controller.every] callback *)
}

val analyze : Parsetree.structure -> result

(** {1 Name classification} — shared with the lint driver. *)

val is_rev_name : string -> bool
val resync_names : string list
val fn_path : Parsetree.expression -> string list
val last_of : string list -> string
val line_of : Location.t -> int
val is_zk_watch : string list -> bool
val is_zk_read : string list -> bool
