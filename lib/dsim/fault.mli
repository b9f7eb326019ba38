(** Fault plans: deterministic, replayable schedules of crashes, restarts
    and partitions.

    A plan is data, not behaviour, so the random-fault baseline and the
    Sieve strategies both reduce to "generate a plan, apply it, run" and a
    failing plan can be printed, stored and replayed verbatim. *)

type action =
  | Crash of Network.address
  | Restart of Network.address
  | Partition of Network.address * Network.address
  | Heal of Network.address * Network.address
  | Heal_all

type plan = (int * action) list
(** Absolute virtual time paired with the action to perform then. *)

val pp_plan : Format.formatter -> plan -> unit

val apply : Network.t -> plan -> unit
(** Schedules every action of the plan on the network's engine with
    {!Engine.schedule_first}: at its instant an action fires before any
    other event, and actions keep the plan's order. So applying a plan
    before a run starts, or to a copy of a run that is already under
    way, orders its actions the same. *)

val random_plan :
  Rng.t ->
  nodes:Network.address list ->
  horizon:int ->
  ?crashes:int ->
  ?partitions:int ->
  ?min_downtime:int ->
  ?max_downtime:int ->
  unit ->
  plan
(** Jepsen-style random plan: [crashes] crash/restart pairs and
    [partitions] partition/heal pairs at uniform times within the
    horizon, with downtimes uniform in the given range. Sorted by time. *)
