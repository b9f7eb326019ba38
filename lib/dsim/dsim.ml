(** Deterministic discrete-event simulation kernel.

    Everything in this reproduction runs on one {!Engine}: a virtual
    clock, a deterministic event queue and a splittable PRNG ({!Rng}).
    {!Network} models RPC and one-way messaging between named nodes
    with latency, partitions and crash/restart (with incarnation
    fencing); {!Fault} turns failure schedules into replayable data,
    whose actions fire first at their instant; {!Snapshot} compiles a
    world once into a flat image and instantiates copies of it in the
    minor heap, so runs that share a prefix can fork from it;
    {!Trace} records everything that happened as causally-linked
    structured entries; {!Metrics} aggregates counters, gauges, latency
    histograms and virtual-time series; {!Json} renders both as
    machine-readable run artifacts. *)

module Rng = Rng
module Engine = Engine
module Network = Network
module Fault = Fault
module Snapshot = Snapshot
module Trace = Trace
module Metrics = Metrics
module Json = Json
