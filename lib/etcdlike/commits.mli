(** A store's committed-history feed: the one record of how each commit
    enters the run.

    A store registers {!commit} as a commit listener. Per event the feed
    records an anchor entry in the trace (caused by the engine's causal
    frontier and made the new frontier, so whatever the commit triggers
    links back to it), counts it, stores its anchor and commit time by
    revision and its anchor as the key's last, advances its frontier,
    and then runs its listeners in registration order. Consumers
    register here, never on the store. *)

type 'v t

val create : Dsim.Engine.t -> actor:string -> kind:string -> 'v t
(** Anchors are [kind] entries by [actor] (e.g. ["etcd.commit"] by
    ["etcd"]), counted in the counter [kind ^ "s"]. *)

val commit : 'v t -> 'v History.Event.t -> unit
(** Revisions must arrive dense from 1, in order. *)

val on_commit : 'v t -> ('v History.Event.t -> unit) -> unit

val boot : 'v t -> (unit -> unit) -> unit
(** [boot t seed] runs [seed], whose commits are boot state installed
    below the fault surface: their anchors have no cause, and the
    engine's causal frontier is left where [seed] found it, so nothing
    the run does later hangs off a seed. *)

val label : 'v t -> rev:int -> string -> unit
(** Names the component whose request committed the revision, which the
    feed has anchored. *)

(** {2 The value-free view} *)

type view

val view : 'v t -> view
(** Allocates nothing. *)

val rev : view -> int
(** The frontier: the last revision anchored, 0 before the first. *)

val anchor : view -> rev:int -> int option
(** The trace id of the revision's anchor. *)

val time : view -> rev:int -> int option

val origin : view -> rev:int -> string
(** The revision's label, ["boot"] if it has none. *)

val key_anchor : view -> string -> int option
(** The anchor of the key's last commit. *)

val anchored : view -> Dsim.Trace.entry -> bool
(** Whether the entry is one of this feed's anchors. *)

val on_revision : view -> (rev:int -> key:string -> op:History.Event.op -> unit) -> unit
(** {!on_commit} for a listener that needs no value. *)

val lag_sampler : view -> (string * (unit -> int)) list -> unit -> unit
(** [lag_sampler v probes] resolves a ["lag.<name>"] gauge and series per
    [(name, view_rev)] and returns a tick that writes each one's
    [max 0 (rev v - view_rev ())] to both at the engine's clock. A tick
    allocates nothing but series growth. *)
