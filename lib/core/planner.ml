type target = {
  component : string;
  watched_prefixes : string list;
  restartable : bool;
}

let targets_of_config (config : Kube.Cluster.config) =
  let kubelets =
    List.init config.Kube.Cluster.nodes (fun i ->
        {
          component = Printf.sprintf "kubelet-%d" (i + 1);
          watched_prefixes = [ Kube.Resource.pods_prefix ];
          restartable = true;
        })
  in
  let scheduler =
    if config.Kube.Cluster.with_scheduler then
      [
        {
          component = "scheduler";
          watched_prefixes = [ Kube.Resource.pods_prefix; Kube.Resource.nodes_prefix ];
          restartable = true;
        };
      ]
    else []
  in
  let volume =
    if config.Kube.Cluster.with_volume_controller then
      [
        {
          component = "volumectl";
          watched_prefixes = [ Kube.Resource.pods_prefix; Kube.Resource.pvcs_prefix ];
          restartable = true;
        };
      ]
    else []
  in
  let operator =
    if config.Kube.Cluster.with_operator then
      [
        {
          component = "cassop";
          watched_prefixes =
            [ Kube.Resource.cassdcs_prefix; Kube.Resource.pods_prefix; Kube.Resource.pvcs_prefix ];
          restartable = true;
        };
      ]
    else []
  in
  let replicaset =
    if config.Kube.Cluster.with_replicaset then
      [
        {
          component = "rsctl";
          watched_prefixes = [ Kube.Resource.rsets_prefix; Kube.Resource.pods_prefix ];
          restartable = true;
        };
      ]
    else []
  in
  let deployment =
    if config.Kube.Cluster.with_deployment then
      [
        {
          component = "depctl";
          watched_prefixes =
            [ Kube.Resource.deployments_prefix; Kube.Resource.rsets_prefix;
              Kube.Resource.pods_prefix ];
          restartable = true;
        };
      ]
    else []
  in
  let node_controller =
    if config.Kube.Cluster.with_node_controller then
      [
        {
          component = "nodectl";
          watched_prefixes = [ Kube.Resource.nodes_prefix; Kube.Resource.pods_prefix ];
          restartable = true;
        };
      ]
    else []
  in
  kubelets @ scheduler @ volume @ operator @ replicaset @ deployment @ node_controller

(* The HBase substrate's consumers of the committed (leader) history:
   the master observes the registry and every assignment through the
   follower's cache, each region server observes ["region/"] through
   one-shot watches. Keep the prefix lists in sync with
   [Analysis.Footprint.of_hbase_config]. *)
let targets_hbase (config : Hbaselike.Cluster.config) =
  let master =
    { component = "master-1"; watched_prefixes = [ "rs/registry"; "region/" ]; restartable = true }
  in
  let servers =
    List.init config.Hbaselike.Cluster.servers (fun i ->
        {
          component = Hbaselike.Cluster.server_name i;
          watched_prefixes = [ "region/" ];
          restartable = true;
        })
  in
  master :: servers

let consumed_by target key =
  List.exists (fun prefix -> String.starts_with ~prefix key) target.watched_prefixes

type plan = { strategy : Strategy.t; rationale : string }

type boost =
  component:string -> key:string -> pattern:[ `Staleness | `Obs_gap | `Time_travel ] -> int

let api_names (config : Kube.Cluster.config) =
  List.init config.Kube.Cluster.apiservers (fun i -> Printf.sprintf "api-%d" (i + 1))

(* Store replica addresses when the backend is replicated; [] otherwise,
   so a non-replicated config enumerates exactly the pre-replication
   candidate list (journal byte-identity depends on this). *)
let replica_names (config : Kube.Cluster.config) =
  match config.Kube.Cluster.replication with
  | None -> []
  | Some r -> List.init r.Kube.Etcd.replicas (fun i -> Printf.sprintf "etcd-%d" (i + 1))

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

(* Shared enumeration. [score] orders candidates within each pattern
   queue: lower scores first (stable within a score). [boost] lifts
   statically hazard-implicated (component, key, pattern) candidates to
   the front of their queue: candidates sort by (-boost, score). *)
let enumerate ~config ~anchors ~horizon ~slack ~stale_window ~downtime ~boost ~score =
  let targets = targets_of_config config in
  let apis = api_names config in
  let replicas = replica_names config in
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
  let obs_gaps = ref [] and stales = ref [] and travels = ref [] in
  let emit acc s plan = acc := (s, plan) :: !acc in
  List.iter
    (fun (time, key, op, origin) ->
      let from = max 0 (time - slack) in
      List.iter
        (fun target ->
          if consumed_by target key then begin
            let rank pattern =
              let b = boost ~component:target.component ~key ~pattern in
              (-b, score ~target ~origin)
            in
            (* Replicated store only: replica-flavored candidates go in
               ahead of their apiserver-flavored peers of equal rank, so
               a finding the store's replication caused is attributed to
               the replication event, not a bystander apiserver. *)
            List.iter
              (fun replica ->
                emit stales (rank `Staleness)
                  {
                    strategy = Strategy.Combo (isolate replica ~from);
                    rationale =
                      Printf.sprintf "isolate replica %s across %s %s; reads pinned to it freeze"
                        replica (History.Event.op_to_string op) key;
                  };
                if target.restartable then
                  emit travels (rank `Time_travel)
                    {
                      strategy =
                        Strategy.Combo
                          (isolate replica ~from
                          @ [
                              Strategy.Crash_restart
                                {
                                  victim = target.component;
                                  at = time + (7 * slack);
                                  downtime;
                                };
                            ]);
                      rationale =
                        Printf.sprintf
                          "freeze replica %s before %s %s, then bounce %s onto a stale read"
                          replica (History.Event.op_to_string op) key target.component;
                    })
              followers;
            (match replicas with
            | leader :: _ :: _ when target.restartable ->
                (* Leader churn mid-watch: take the leader down across the
                   anchor and bounce the consumer into the election window. *)
                emit travels (rank `Time_travel)
                  {
                    strategy =
                      Strategy.Combo
                        [
                          Strategy.Crash_restart
                            { victim = leader; at = from; downtime = 8 * downtime };
                          Strategy.Crash_restart
                            { victim = target.component; at = time + (7 * slack); downtime };
                        ];
                    rationale =
                      Printf.sprintf "churn leader %s across %s %s while %s re-syncs" leader
                        (History.Event.op_to_string op) key target.component;
                  }
            | _ -> ());
            emit obs_gaps (rank `Obs_gap)
              {
                strategy =
                  Strategy.observability_gap ~dst:target.component ~key_prefix:key ~op ~from
                    ~until:horizon ();
                rationale =
                  Printf.sprintf "hide %s %s from %s" (History.Event.op_to_string op) key
                    target.component;
              };
            emit stales (rank `Staleness)
              {
                strategy =
                  Strategy.staleness ~dst:target.component ~from ~until:(time + stale_window)
                    ~extra:stale_window ();
                rationale =
                  Printf.sprintf "lag %s's view across %s %s" target.component
                    (History.Event.op_to_string op) key;
              };
            if target.restartable then
              List.iter
                (fun api ->
                  emit travels (rank `Time_travel)
                    {
                      strategy =
                        Strategy.time_travel ~stale_api:api ~victim:target.component
                          ~stale_from:from
                          ~crash_at:(time + (7 * slack))
                          ~downtime ();
                      rationale =
                        Printf.sprintf "freeze %s before %s %s, then bounce %s onto it" api
                          (History.Event.op_to_string op) key target.component;
                    })
                apis
          end)
        targets)
    anchors;
  let order queue =
    List.rev !queue
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  (* Interleave the three pattern queues so an i-th-candidate budget sees
     a balanced mixture. *)
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

(* HBase enumeration: the same three pattern queues over ZooKeeper's two
   delivery-edge families. The master has no watch stream — its view IS
   the follower replica — so its candidates perturb the replication edge
   (dst [zk-follower]); region-server candidates perturb their one-shot
   watch notifications. Time travel is the resync shape: stall
   replication AND cut the leader-follower link (so catch-up pulls fail
   too) across the anchor — with a bounded leader log the first pull
   after healing lands below the compaction frontier and forces a
   full-state resync; crash/restart variants bounce the consumer itself
   (a ZooKeeper session expiry, a master failover). *)
let enumerate_hbase ~(config : Hbaselike.Cluster.config) ~anchors ~horizon ~slack ~stale_window
    ~downtime ~boost ~score =
  let targets = targets_hbase config in
  let leader = "zk-leader" and follower = "zk-follower" in
  let obs_gaps = ref [] and stales = ref [] and travels = ref [] in
  let emit acc s plan = acc := (s, plan) :: !acc in
  List.iter
    (fun (time, key, op, origin) ->
      let from = max 0 (time - slack) in
      List.iter
        (fun target ->
          if consumed_by target key then begin
            let rank pattern =
              let b = boost ~component:target.component ~key ~pattern in
              (-b, score ~target ~origin)
            in
            let is_master = String.equal target.component "master-1" in
            let dst = if is_master then follower else target.component in
            let whom = if is_master then "the follower view master-1 reads" else target.component in
            emit obs_gaps (rank `Obs_gap)
              {
                strategy =
                  Strategy.observability_gap ~src:leader ~dst ~key_prefix:key ~op ~from
                    ~until:horizon ();
                rationale =
                  Printf.sprintf "hide %s %s from %s" (History.Event.op_to_string op) key whom;
              };
            emit stales (rank `Staleness)
              {
                strategy =
                  Strategy.staleness ~src:leader ~dst ~key_prefix:key ~from
                    ~until:(time + stale_window) ~extra:stale_window ();
                rationale =
                  Printf.sprintf "lag %s across %s %s" whom (History.Event.op_to_string op) key;
              };
            emit travels (rank `Time_travel)
              {
                strategy =
                  Strategy.Combo
                    [
                      Strategy.staleness ~src:leader ~dst:follower ~from
                        ~until:(time + stale_window) ~extra:stale_window ();
                      Strategy.Partition_window
                        { a = leader; b = follower; from; until = time + stale_window };
                    ];
                rationale =
                  Printf.sprintf
                    "stall replication and catch-up pulls across %s %s: the healed follower \
                     resyncs below the compaction frontier"
                    (History.Event.op_to_string op) key;
              };
            if target.restartable then
              emit travels (rank `Time_travel)
                {
                  strategy =
                    Strategy.Crash_restart
                      { victim = target.component; at = time + (7 * slack); downtime };
                  rationale =
                    Printf.sprintf "expire %s's session across %s %s" target.component
                      (History.Event.op_to_string op) key;
                }
          end)
        targets)
    anchors;
  let order queue =
    List.rev !queue
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
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

let no_boost ~component:_ ~key:_ ~pattern:_ = 0

let candidates ~config ~events ~horizon ?(slack = 100_000) ?(stale_window = 1_500_000)
    ?(downtime = 150_000) ?(boost = no_boost) () =
  let anchors =
    dedup_anchors events |> List.map (fun (time, key, op) -> (time, key, op, "unknown"))
  in
  enumerate ~config ~anchors ~horizon ~slack ~stale_window ~downtime ~boost
    ~score:(fun ~target:_ ~origin:_ -> 0)

let candidates_causal ~config ~commits ~horizon ?(slack = 100_000) ?(stale_window = 1_500_000)
    ?(downtime = 150_000) ?(boost = no_boost) () =
  let anchors =
    dedup_anchors
      (List.map (fun c -> (c.Runner.time, c.Runner.key, c.Runner.op)) commits)
    |> List.map (fun (time, key, op) ->
           let origin =
             match
               List.find_opt
                 (fun c -> String.equal c.Runner.key key && c.Runner.op = op)
                 commits
             with
             | Some c -> c.Runner.origin
             | None -> "unknown"
           in
           (time, key, op, origin))
  in
  (* A component's own writes are causally downstream of its view;
     perturbing how it observes its own effects closes a reconcile
     feedback loop. Those candidates go first, then perturbations of
     other controllers' writes, then environment/user writes. *)
  let score ~target ~origin =
    if String.equal origin target.component then 0
    else if String.equal origin "boot" then 2
    else 1
  in
  enumerate ~config ~anchors ~horizon ~slack ~stale_window ~downtime ~boost ~score

let candidates_hbase ~config ~events ~horizon ?(slack = 100_000) ?(stale_window = 1_500_000)
    ?(downtime = 150_000) ?(boost = no_boost) () =
  let anchors =
    dedup_anchors events |> List.map (fun (time, key, op) -> (time, key, op, "unknown"))
  in
  enumerate_hbase ~config ~anchors ~horizon ~slack ~stale_window ~downtime ~boost
    ~score:(fun ~target:_ ~origin:_ -> 0)

let candidates_causal_hbase ~config ~commits ~horizon ?(slack = 100_000)
    ?(stale_window = 1_500_000) ?(downtime = 150_000) ?(boost = no_boost) () =
  let anchors =
    dedup_anchors
      (List.map (fun c -> (c.Runner.time, c.Runner.key, c.Runner.op)) commits)
    |> List.map (fun (time, key, op) ->
           let origin =
             match
               List.find_opt
                 (fun c -> String.equal c.Runner.key key && c.Runner.op = op)
                 commits
             with
             | Some c -> c.Runner.origin
             | None -> "unknown"
           in
           (time, key, op, origin))
  in
  let score ~target ~origin =
    if String.equal origin target.component then 0
    else if String.equal origin "boot" then 2
    else 1
  in
  enumerate_hbase ~config ~anchors ~horizon ~slack ~stale_window ~downtime ~boost ~score
