(** Epoch-bounded partial histories — the programming model hypothesized
    in Section 6.2.

    The history is cut into fixed-size epochs of [granularity] consecutive
    revisions; epoch [k] covers revisions [k*g + 1 .. (k+1)*g]. The
    delivery guarantee is all-or-nothing per epoch: a consumer either sees
    every event of an epoch or none of it, which eliminates staleness and
    observability gaps *within* an epoch at the price of delaying delivery
    until the epoch is complete (the coordination cost the paper
    mentions). *)

val epoch_of : granularity:int -> rev:int -> int
(** Epoch index of a revision (revisions are 1-based; epoch 0 covers
    revisions 1..g). Raises [Invalid_argument] if [granularity <= 0]. *)

val epoch_end : granularity:int -> epoch:int -> int
(** Last revision of the epoch. *)

val deliverable_frontier : granularity:int -> head_rev:int -> int
(** Highest revision that may be exposed to consumers when the committed
    head is [head_rev]: the end of the last *complete* epoch. *)

type 'v t
(** A per-consumer batcher that buffers incoming events and releases them
    in whole-epoch batches, in order. *)

val create : granularity:int -> deliver:('v Event.t list -> unit) -> 'v t

val offer : 'v t -> 'v Event.t -> unit
(** Buffers the event. When every revision of the oldest outstanding epoch
    has been offered, that epoch is passed to [deliver] as one batch (and
    so on for subsequent already-complete epochs). Events from
    already-delivered epochs are ignored — the transport deduplicates. *)

val buffered : 'v t -> int
(** Events held back waiting for their epoch to complete. *)

val delivered_frontier : 'v t -> int
(** Last revision handed to [deliver]; multiple of the granularity. *)
