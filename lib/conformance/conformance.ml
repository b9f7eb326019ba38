(** Conformance layer: the paper's subsequence invariant, checked online.

    {!Monitor} maintains a private mirror of the committed history and
    verifies every observed view [(H', S')] against it; {!Wiring} is the
    core that wires one monitor into a cluster, and {!Hooks} and
    {!Hbase_hooks} supply its Kubernetes and HBase taps and sweeps;
    {!Model} is the pure sequential reference the differential qcheck
    harness drives against the real {!Etcdlike} stack; {!Selftest} is the
    mutation suite proving the monitor actually fires. *)

module Monitor = Monitor
module Model = Model
module Wiring = Wiring
module Hooks = Hooks
module Hbase_hooks = Hbase_hooks
module Handle = Handle
module Selftest = Selftest
