(** Consecutive sightings, per object name: what the controllers' orphan
    collectors count before they act, so that a view that is merely
    behind does not trigger a deletion.

    A reconcile pass strikes or clears each object it visits, then
    sweeps: the sweep forgets every object the pass did not strike, so a
    count restarts whenever an object drops out of the view or stops
    looking orphaned. No per-pass table of visited objects is built. *)

type t

val create : unit -> t

val strike : t -> string -> int
(** One more consecutive sighting; returns the count, 1 on the first. *)

val clear : t -> string -> unit
(** Forgets the object's count now. *)

val sweep : t -> unit
(** Ends a pass: forgets every object it did not strike. *)

val reset : t -> unit
(** Forgets every count (a crashed controller restarts from nothing). *)
