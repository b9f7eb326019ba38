(** The strongly-consistent store: the substrate holding [(H, S)].

    {!Kv} is an MVCC revisioned key-value store over {!History.Log}
    whose commit listeners and compactable [since] are what watch
    streams are built from ([Kube.Streams] serves them);
    {!Txn} provides etcd-style guarded mini-transactions (the CAS
    primitive controllers build optimistic concurrency on);
    {!Lease} scopes keys to TTL-renewable sessions; {!Commits} is a
    store's committed-history feed: the trace anchor, origin label and
    commit time of every revision, and the listeners that consume it. *)

module Kv = Kv
module Commits = Commits
module Txn = Txn
module Lease = Lease
