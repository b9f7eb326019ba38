let random_faults ~seed ~components ~apiservers ~horizon ~n =
  let rng = Dsim.Rng.create seed in
  let everyone = Array.of_list (components @ apiservers) in
  let links =
    Array.of_list
      (List.concat_map (fun c -> List.map (fun a -> (c, a)) apiservers) components
      @ List.map (fun a -> ("etcd", a)) apiservers)
  in
  List.init n (fun _ ->
      let victim = Dsim.Rng.pick rng everyone in
      let crash_at = Dsim.Rng.int rng horizon in
      let downtime = 100_000 + Dsim.Rng.int rng 400_000 in
      let a, b = Dsim.Rng.pick rng links in
      let cut_at = Dsim.Rng.int rng horizon in
      let cut_len = 200_000 + Dsim.Rng.int rng 1_500_000 in
      Strategy.Combo
        [
          Strategy.Crash_restart { victim; at = crash_at; downtime };
          Strategy.Partition_window { a; b; from = cut_at; until = cut_at + cut_len };
        ])

let meta_info (key, op) =
  ignore op;
  match Kube.Resource.kind_of_key key with
  | `Node | `Pod -> true
  | `Pvc | `Cassdc | `Rset | `Lock | `Deployment | `Other ->
      (* HBase substrate: region placements and the server registry are
         the cluster-topology events these baselines key on. *)
      String.starts_with ~prefix:"region/" key || String.starts_with ~prefix:"rs/" key

(* CrashTuner reacts 2 ms after the event and keeps the victim down for
   150 ms; CoFI heals its partition 1.2 s after cutting it. *)
let reaction_delay = 2_000
let downtime = 150_000
let window = 1_200_000

let crashtuner ~events ~components =
  List.concat_map
    (fun (time, key, op) ->
      if meta_info (key, op) then
        List.map
          (fun component ->
            Strategy.Crash_restart { victim = component; at = time + reaction_delay; downtime })
          components
      else [])
    events

let cofi ~events ~components ~apiservers =
  let links =
    List.concat_map (fun c -> List.map (fun a -> (c, a)) apiservers) components
    @ List.map (fun a -> ("etcd", a)) apiservers
  in
  List.concat_map
    (fun (time, key, op) ->
      if meta_info (key, op) then
        List.map
          (fun (a, b) -> Strategy.Partition_window { a; b; from = time; until = time + window })
          links
      else [])
    events

let targets = function
  | Substrate.Kube { config; _ } ->
      ( List.map (fun t -> t.Planner.component) (Planner.targets_of_config config),
        Kube.Cluster.apiserver_addresses )
  | Substrate.Hbase { config; _ } ->
      ( List.map (fun t -> t.Planner.component) (Planner.targets_hbase config),
        [ Hbaselike.Zk.leader_name; Hbaselike.Zk.follower_name ] )
