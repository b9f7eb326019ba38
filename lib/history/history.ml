(** Entry point of the [history] library: the executable form of the
    paper's partial-history model. See {!Log} for the committed history
    [H], {!State} for the materialized [S], {!Partial} for [H' ⊑ H],
    {!View} for a component's [(H', S')], {!Epoch} for the Section 6.2
    epoch-bounded delivery model, {!Intercept} for the hook on every
    delivery edge. The watch fan-out that turns [H] into each
    component's [H'] is a walk over the stream table in [Kube.Streams];
    the events it routes are {!Event}s matched by
    {!Event.matches_prefix}. *)

module Event = Event
module State = State
module Window = Window
module Log = Log
module Partial = Partial
module View = View
module Intercept = Intercept
module Divergence = Divergence
module Epoch = Epoch
