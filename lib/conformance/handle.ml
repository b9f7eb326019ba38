(* The monitor is polymorphic in the store's value type, which would
   force every consumer of a runner outcome to be substrate-typed too.
   Nothing downstream ever looks at a committed value directly — cards
   and reports only need violation/divergence records (monomorphic) and
   a rendering of the committed event at a revision — so the value type
   is hidden where the substrate is still known. *)
type t = Handle : 'v Wiring.t -> t

let of_kube hooks = Handle hooks

let of_hbase hooks = Handle hooks

let violations (Handle w) = Monitor.violations (Wiring.monitor w)

let total (Handle w) = Monitor.total (Wiring.monitor w)

let strict (Handle w) = Monitor.strict (Wiring.monitor w)

let divergences (Handle w) = Monitor.divergences (Wiring.monitor w)

let committed_describe (Handle w) rev =
  Option.map History.Event.describe (Monitor.committed_at (Wiring.monitor w) rev)

let finish (Handle w) = Wiring.finish w
