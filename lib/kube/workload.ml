type step = { at : int; label : string; action : Cluster.t -> unit }

type t = step list

let schedule cluster steps =
  let engine = Cluster.engine cluster in
  List.iter
    (fun step ->
      ignore
        (Dsim.Engine.schedule_at engine ~time:step.at (fun () ->
             (* The step is the cause of everything its action does. *)
             ignore
               (Dsim.Engine.emit_deferred engine ~actor:"workload" ~kind:"workload.step" (fun () ->
                    step.label));
             step.action cluster)))
    steps

let labels steps = List.map (fun s -> (s.at, s.label)) steps

let create_pod ?pvc ?node cluster pod_name =
  let user = Cluster.user cluster in
  (match pvc with
  | Some pvc_name ->
      Client.txn_ user
        (Etcdlike.Txn.create_if_absent ~key:(Resource.pvc_key pvc_name)
           (Resource.make_pvc ~owner_pod:pod_name pvc_name))
  | None -> ());
  Client.txn_ user
    (Etcdlike.Txn.create_if_absent ~key:(Resource.pod_key pod_name)
       (Resource.make_pod ?node ?pvc pod_name))

let mark_pod_deleted cluster pod_name =
  let user = Cluster.user cluster in
  let key = Resource.pod_key pod_name in
  Client.get_quorum user key (function
    | Ok (Some (Resource.Pod p, mod_rev)) when p.Resource.deletion_timestamp = None ->
        let now = Dsim.Engine.now (Cluster.engine cluster) in
        Client.txn_ user
          (Etcdlike.Txn.put_if_unchanged ~key ~expected_mod_rev:mod_rev
             (Resource.Pod { p with Resource.deletion_timestamp = Some now }))
    | Ok _ | Error `Unavailable -> ())

let delete_pod_now cluster pod_name =
  Client.txn_ (Cluster.user cluster) (Messages.delete (Resource.pod_key pod_name))

let create_node cluster node_name =
  Client.txn_ (Cluster.user cluster)
    (Etcdlike.Txn.create_if_absent ~key:(Resource.node_key node_name)
       (Resource.make_node node_name))

let delete_node cluster node_name =
  Client.txn_ (Cluster.user cluster) (Messages.delete (Resource.node_key node_name))

let set_rset_replicas cluster rs_name replicas =
  Client.txn_ (Cluster.user cluster)
    (Messages.put (Resource.rset_key rs_name) (Resource.make_rset ~replicas rs_name))

let set_deployment cluster dep_name ~replicas ~template =
  Client.txn_ (Cluster.user cluster)
    (Messages.put
       (Resource.deployment_key dep_name)
       (Resource.make_deployment ~replicas ~template dep_name))

let set_cassdc_replicas cluster dc_name replicas =
  Client.txn_ (Cluster.user cluster)
    (Messages.put (Resource.cassdc_key dc_name) (Resource.make_cassdc ~replicas dc_name))

let step at label action = { at; label; action }

let pod_churn ?(start = 1_000_000) ?(spacing = 400_000) ?(lifetime = 3_000_000) ~n () =
  List.concat
    (List.init n (fun i ->
         let name = Printf.sprintf "churn-%d" i in
         let at = start + (i * spacing) in
         [
           step at ("create " ^ name) (fun c -> create_pod c name);
           step (at + lifetime) ("delete " ^ name) (fun c -> mark_pod_deleted c name);
         ]))

let pods_with_claims ?(start = 1_000_000) ?(lifetime = 3_000_000) ~n () =
  List.concat
    (List.init n (fun i ->
         let name = Printf.sprintf "app-%d" i in
         let claim = Printf.sprintf "vol-%d" i in
         let at = start + (i * 400_000) in
         [
           step at
             (Printf.sprintf "create %s (claim %s)" name claim)
             (fun c -> create_pod ~pvc:claim c name);
           step (at + lifetime) ("delete " ^ name) (fun c -> mark_pod_deleted c name);
         ]))

let rolling_upgrade ?(start = 1_000_000) ~pod ~from_node ~to_node () =
  [
    step start
      (Printf.sprintf "create %s on %s" pod from_node)
      (fun c -> create_pod ~node:from_node c pod);
    step (start + 2_000_000) (Printf.sprintf "migrate %s: delete on %s" pod from_node) (fun c ->
        delete_pod_now c pod);
    step
      (start + 2_300_000)
      (Printf.sprintf "migrate %s: create on %s" pod to_node)
      (fun c -> create_pod ~node:to_node c pod);
  ]

let node_churn ?(start = 1_000_000) ~node ?(pods_after = 2) () =
  step start ("delete node " ^ node) (fun c -> delete_node c node)
  :: List.init pods_after (fun i ->
         let name = Printf.sprintf "post-%d" i in
         step
           (start + 400_000 + (i * 300_000))
           ("create " ^ name)
           (fun c -> create_pod c name))

let replicaset_scale ?(start = 1_000_000) ~rs ~steps () =
  List.map
    (fun (delay, replicas) ->
      step (start + delay)
        (Printf.sprintf "scale rset %s to %d" rs replicas)
        (fun c -> set_rset_replicas c rs replicas))
    steps

let node_failover ?(start = 1_000_000) ~new_node ~rs ~replicas () =
  [
    step start (Printf.sprintf "create rset %s (%d replicas)" rs replicas) (fun c ->
        set_rset_replicas c rs replicas);
    step (start + 1_500_000) ("add node " ^ new_node) (fun c -> create_node c new_node);
  ]

let deployment_rollout ?(start = 1_000_000) ~dep ~replicas ~generations ~gap () =
  List.map
    (fun generation ->
      step
        (start + ((generation - 1) * gap))
        (Printf.sprintf "roll %s to generation %d" dep generation)
        (fun c -> set_deployment c dep ~replicas ~template:generation))
    (List.init generations (fun i -> i + 1))

let cassandra_scale ?(start = 1_000_000) ~dc ~steps () =
  List.map
    (fun (delay, replicas) ->
      step (start + delay)
        (Printf.sprintf "scale %s to %d" dc replicas)
        (fun c -> set_cassdc_replicas c dc replicas))
    steps
