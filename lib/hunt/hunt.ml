(** Hunt: the parallel, persistent, coverage-guided campaign engine.

    Every campaign over a candidate list runs on {!Campaign.execute}:
    {!Pool} fans its trials out across OCaml 5 domains (each one an
    independent deterministic simulation), and they settle in trial
    order, each distinct run simulated once and forked from its
    reference run's prefix, stopping at a target when asked. The hunt,
    {!Campaign.run}, is what Section 7's "campaigns of deliberate
    perturbations" need at scale: {!Journal} persists every result
    crash-safely as JSONL; {!Schedule} dispatches candidates by coverage
    gain over the (component × object × pattern) space; {!Signature}
    deduplicates violations into findings; the hunt is resumable,
    byte-for-byte reproducible across job counts, and minimizes each
    new finding into a self-contained artifact directory. *)

module Signature = Signature
module Journal = Journal
module Pool = Pool
module Schedule = Schedule
module Campaign = Campaign
