(** Entry point of the [history] library: the executable form of the
    paper's partial-history model. See {!Log} for the committed history
    [H], {!State} for the materialized [S], {!Partial} for [H' ⊑ H],
    {!View} for a component's [(H', S')], {!Epoch} for the Section 6.2
    epoch-bounded delivery model, {!Dispatch} for the indexed watcher
    fan-out every delivery tier routes through. *)

module Event = Event
module State = State
module Window = Window
module Log = Log
module Partial = Partial
module View = View
module Dispatch = Dispatch
module Intercept = Intercept
module Divergence = Divergence
module Epoch = Epoch
