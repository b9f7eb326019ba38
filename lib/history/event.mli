(** Change events: the elements of a history [H].

    Following the paper's model (Section 3), the cluster state [S] is a
    collection of keyed objects and the history [H] is the sequence of
    committed changes to [S]. Every event carries the revision the store
    assigned when committing it; revisions are dense and strictly
    increasing, so they double as positions in [H]. *)

type op = Create | Update | Delete

val op_to_string : op -> string

type 'v t = {
  rev : int;  (** global commit revision; position in [H] (1-based) *)
  key : string;  (** object identity, e.g. ["pods/default/web-0"] *)
  op : op;
  value : 'v option;  (** new value; [None] for deletions *)
}

val make : rev:int -> key:string -> op:op -> 'v option -> 'v t

val describe : 'v t -> string
(** Value-independent rendering, e.g. ["@17 update pods/default/web-0"]. *)

val has_prefix : string -> string -> bool
(** [has_prefix prefix key]: [String.starts_with ~prefix key], without
    the closure [String.starts_with] allocates per call. *)

val matches_key : string option -> string -> bool
(** {!has_prefix}; [None] matches everything. Allocates nothing. *)

val matches_prefix : string option -> 'v t -> bool
(** {!matches_key} on the event's key — the filter every watch stream
    applies per subscriber. *)
