(** A growable ring buffer of events, oldest first.

    This is the storage layout shared by the store's committed log
    ({!Log}) and the apiserver's watch cache: appends and oldest-end
    drops are amortized O(1), random access by window offset is O(1),
    and replay iterates in event order without copying. Dropped slots
    are cleared so discarded events don't stay reachable through the
    backing array. *)

type 'v t

val create : unit -> 'v t

val length : 'v t -> int

val push : 'v t -> 'v Event.t -> unit
(** Appends at the newest end; amortized O(1). *)

val get : 'v t -> int -> 'v Event.t
(** [get t i] is the i-th retained event, oldest first, O(1).
    @raise Invalid_argument outside [0, length). *)

val drop_oldest : 'v t -> int -> unit
(** Drops the [k] oldest events (clamped), clearing their slots — O(k). *)

val clear : 'v t -> unit
(** Drops everything and releases the backing array. *)

val oldest : 'v t -> 'v Event.t option

val iter : ('v Event.t -> unit) -> 'v t -> unit
(** Oldest first. *)

val to_list : 'v t -> 'v Event.t list
(** Oldest first. *)
