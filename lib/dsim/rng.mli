(** Deterministic splittable pseudo-random number generator (SplitMix64).

    Every source of randomness in the simulator flows from a single seeded
    generator, so a whole campaign is replayable from its seed. [split]
    derives an independent stream, which lets concurrent components draw
    without perturbing each other's sequences. *)

type t

val create : int64 -> t
(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val copy : t -> t
(** [copy t] duplicates the generator state; the copy evolves
    independently. *)

val split : t -> t
(** [split t] derives a statistically independent generator and advances
    [t]. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument] if
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p] (clamped to [\[0,1\]]). *)

val pick : t -> 'a array -> 'a
(** Uniform choice. Raises [Invalid_argument] on an empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean; used for
    arrival processes and latency tails. *)
