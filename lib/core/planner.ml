type target = {
  component : string;
  watched_prefixes : string list;
  restartable : bool;
}

(* A target is the dynamic face of a footprint: what the component's
   view is built from and whether bouncing it makes sense. *)
let target_of (fp : Footprint.t) =
  {
    component = fp.Footprint.component;
    watched_prefixes = fp.Footprint.cached_reads;
    restartable = fp.Footprint.restartable;
  }

let targets_of_config config = List.map target_of (Footprint.of_config config)

let targets_hbase config = List.map target_of (Footprint.of_hbase_config config)

let consumed_by target key =
  List.exists (fun prefix -> String.starts_with ~prefix key) target.watched_prefixes

type plan = { strategy : Strategy.t; rationale : string }

(* Each perturbation starts [slack] before its anchor event; delay-based
   staleness lasts [stale_window]; [downtime] is the restart gap of a
   time-travel bounce. *)
let slack = 100_000

let stale_window = 1_500_000

let downtime = 150_000

(* One anchor per (key, op): perturbing the same logical change twice adds
   nothing, and keeping the first occurrence perturbs it earliest. *)
let dedup_anchors events =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (_, key, op) ->
      if Hashtbl.mem seen (key, op) then false
      else begin
        Hashtbl.replace seen (key, op) ();
        true
      end)
    events

let plain_anchors events =
  dedup_anchors events |> List.map (fun (time, key, op) -> (time, key, op, "unknown"))

let causal_anchors commits =
  dedup_anchors (List.map (fun c -> (c.Runner.time, c.Runner.key, c.Runner.op)) commits)
  |> List.map (fun (time, key, op) ->
         let origin =
           match
             List.find_opt (fun c -> String.equal c.Runner.key key && c.Runner.op = op) commits
           with
           | Some c -> c.Runner.origin
           | None -> "unknown"
         in
         (time, key, op, origin))

let plain_score ~target:_ ~origin:_ = 0

(* A component's own writes are causally downstream of its view;
   perturbing how it observes its own effects closes a reconcile
   feedback loop. Those candidates go first, then perturbations of
   other controllers' writes, then environment/user writes. *)
let causal_score ~target ~origin =
  if String.equal origin target.component then 0
  else if String.equal origin "boot" then 2
  else 1

(* The one driver. [plans_for] turns a consumed anchor into the
   dialect's pattern-tagged plans; each lands in its pattern's queue,
   ordered by [score] (lower first, stable within a score), and the three
   queues are interleaved so an i-th-candidate budget sees a balanced
   mixture. *)
let enumerate ~targets ~plans_for ~anchors ~score =
  let obs_gaps = ref [] and stales = ref [] and travels = ref [] in
  List.iter
    (fun (time, key, op, origin) ->
      let from = max 0 (time - slack) in
      List.iter
        (fun target ->
          if consumed_by target key then begin
            let rank = score ~target ~origin in
            List.iter
              (fun (pattern, plan) ->
                let queue =
                  match pattern with
                  | `Obs_gap -> obs_gaps
                  | `Staleness -> stales
                  | `Time_travel -> travels
                in
                queue := (rank, plan) :: !queue)
              (plans_for target ~time ~key ~op ~from)
          end)
        targets)
    anchors;
  let order queue =
    List.rev !queue
    |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd
  in
  let rec interleave queues =
    let heads, rest =
      List.fold_right
        (fun queue (heads, rest) ->
          match queue with
          | [] -> (heads, rest)
          | plan :: tail -> (plan :: heads, tail :: rest))
        queues ([], [])
    in
    if heads = [] then [] else heads @ interleave rest
  in
  interleave [ order obs_gaps; order stales; order travels ]

let plan pattern strategy rationale = (pattern, { strategy; rationale })

(* Kubernetes plan shapes. Store replica addresses exist only when the
   backend is replicated, so a non-replicated config enumerates exactly
   the pre-replication candidate list (journal byte-identity depends on
   this). Replica-flavored candidates go in ahead of their
   apiserver-flavored peers of equal rank, so a finding the store's
   replication caused is attributed to the replication event, not a
   bystander apiserver. *)
let kube_plans (config : Kube.Cluster.config) ~horizon =
  let apis = Kube.Cluster.apiserver_addresses in
  let replicas =
    match config.Kube.Cluster.replication with
    | None -> []
    | Some _ -> Kube.Etcd.replica_addresses
  in
  let followers = match replicas with [] | [ _ ] -> [] | _ :: f -> f in
  (* Cut every replication link of one replica; its client link stays up,
     so reads pinned to it keep being served — from a frozen store. *)
  let isolate replica ~from =
    List.filter_map
      (fun peer ->
        if String.equal peer replica then None
        else Some (Strategy.Partition_window { a = replica; b = peer; from; until = horizon }))
      replicas
  in
  fun target ~time ~key ~op ~from ->
    let component = target.component and op_s = History.Event.op_to_string op in
    let bounce = Strategy.Crash_restart { victim = component; at = time + (7 * slack); downtime } in
    let per_replica replica =
      plan `Staleness
        (Strategy.Combo (isolate replica ~from))
        (Printf.sprintf "isolate replica %s across %s %s; reads pinned to it freeze" replica op_s
           key)
      ::
      (if target.restartable then
         [
           plan `Time_travel
             (Strategy.Combo (isolate replica ~from @ [ bounce ]))
             (Printf.sprintf "freeze replica %s before %s %s, then bounce %s onto a stale read"
                replica op_s key component);
         ]
       else [])
    in
    (* Leader churn mid-watch: take the leader down across the anchor and
       bounce the consumer into the election window. *)
    let churn =
      match replicas with
      | leader :: _ :: _ when target.restartable ->
          [
            plan `Time_travel
              (Strategy.Combo
                 [
                   Strategy.Crash_restart { victim = leader; at = from; downtime = 8 * downtime };
                   bounce;
                 ])
              (Printf.sprintf "churn leader %s across %s %s while %s re-syncs" leader op_s key
                 component);
          ]
      | _ -> []
    in
    let per_api api =
      plan `Time_travel
        (Strategy.time_travel ~stale_api:api ~victim:component ~stale_from:from
           ~crash_at:(time + (7 * slack)) ~downtime ())
        (Printf.sprintf "freeze %s before %s %s, then bounce %s onto it" api op_s key component)
    in
    List.concat_map per_replica followers
    @ churn
    @ plan `Obs_gap
        (Strategy.observability_gap ~dst:component ~key_prefix:key ~op ~from ~until:horizon ())
        (Printf.sprintf "hide %s %s from %s" op_s key component)
      :: plan `Staleness
           (Strategy.staleness ~dst:component ~from ~until:(time + stale_window)
              ~extra:stale_window ())
           (Printf.sprintf "lag %s's view across %s %s" component op_s key)
      :: (if target.restartable then List.map per_api apis else [])

(* HBase plan shapes over ZooKeeper's two delivery-edge families. The
   master has no watch stream — its view IS the follower replica — so its
   candidates perturb the replication edge (dst [zk-follower]);
   region-server candidates perturb their one-shot watch notifications.
   Time travel is the resync shape: stall replication AND cut the
   leader-follower link (so catch-up pulls fail too) across the anchor —
   with a bounded leader log the first pull after healing lands below the
   compaction frontier and forces a full-state resync; crash/restart
   variants bounce the consumer itself (a ZooKeeper session expiry, a
   master failover). *)
let hbase_plans ~horizon =
  let leader = Hbaselike.Zk.leader_name and follower = Hbaselike.Zk.follower_name in
  fun target ~time ~key ~op ~from ->
    let is_master = String.equal target.component "master-1" in
    let dst = if is_master then follower else target.component in
    let whom = if is_master then "the follower view master-1 reads" else target.component in
    let op_s = History.Event.op_to_string op in
    plan `Obs_gap
      (Strategy.observability_gap ~src:leader ~dst ~key_prefix:key ~op ~from ~until:horizon ())
      (Printf.sprintf "hide %s %s from %s" op_s key whom)
    :: plan `Staleness
         (Strategy.staleness ~src:leader ~dst ~key_prefix:key ~from ~until:(time + stale_window)
            ~extra:stale_window ())
         (Printf.sprintf "lag %s across %s %s" whom op_s key)
    :: plan `Time_travel
         (Strategy.Combo
            [
              Strategy.staleness ~src:leader ~dst:follower ~from ~until:(time + stale_window)
                ~extra:stale_window ();
              Strategy.Partition_window
                { a = leader; b = follower; from; until = time + stale_window };
            ])
         (Printf.sprintf
            "stall replication and catch-up pulls across %s %s: the healed follower resyncs \
             below the compaction frontier"
            op_s key)
    ::
    (if target.restartable then
       [
         plan `Time_travel
           (Strategy.Crash_restart
              { victim = target.component; at = time + (7 * slack); downtime })
           (Printf.sprintf "expire %s's session across %s %s" target.component op_s key);
       ]
     else [])

let candidates ~config ~events ~horizon () =
  enumerate ~targets:(targets_of_config config) ~plans_for:(kube_plans config ~horizon)
    ~anchors:(plain_anchors events) ~score:plain_score

let candidates_causal ~config ~commits ~horizon () =
  enumerate ~targets:(targets_of_config config) ~plans_for:(kube_plans config ~horizon)
    ~anchors:(causal_anchors commits) ~score:causal_score

let candidates_hbase ~config ~events ~horizon () =
  enumerate ~targets:(targets_hbase config) ~plans_for:(hbase_plans ~horizon)
    ~anchors:(plain_anchors events) ~score:plain_score

let candidates_causal_hbase ~config ~commits ~horizon () =
  enumerate ~targets:(targets_hbase config) ~plans_for:(hbase_plans ~horizon)
    ~anchors:(causal_anchors commits) ~score:causal_score
