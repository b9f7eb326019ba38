(* The incremental oracle ticks against the full recompute they
   replaced. [Full_kube] and [Full_hbase] are the oracles as they were
   before their checks became incremental: every 100 ms tick rebuilds
   every table from the mirror and the components' state. Attached beside
   the real oracle, each reference registers its commit listener and its
   timer right after the real one's, so both tick back to back at the
   same virtual instants and see the same state; their time-stamped
   findings must be equal, trial by trial. *)

module Full_kube = struct
  let check_period = 100_000

  let livelock_threshold = 15

  let leak_grace = 2_000_000

  let duplicate_confirmations = 20

  type t = {
    cluster : Kube.Cluster.t;
    ledger : Sieve.Oracle.ledger;
    mutable mirror : Kube.Resource.value History.State.t;
    pod_deleted_at : (string, int) Hashtbl.t;  (* pod name -> removal time *)
    duplicate_streak : (string, int) Hashtbl.t;  (* pod -> consecutive dup sightings *)
    wedge_streak : (string, (int * (string * int) list) * int) Hashtbl.t;
        (* deployment -> (intent fingerprint, consecutive unchanged sightings) *)
  }

  let violations t = Sieve.Oracle.found t.ledger

  (* A decommission is the operator setting deletion_timestamp on a member
     pod; it is wrong if any *other* live member of the same datacenter has
     a higher ordinal in the ground truth at that moment. *)
  let check_decommission t (p : Kube.Resource.pod) =
    match p.Kube.Resource.owner, p.Kube.Resource.ordinal with
    | Some owner_key, Some marked when p.Kube.Resource.deletion_timestamp <> None ->
        let live_max =
          History.State.fold
            (fun _ (value, _) acc ->
              match value with
              | Kube.Resource.Pod q
                when q.Kube.Resource.owner = Some owner_key
                     && q.Kube.Resource.deletion_timestamp = None ->
                  max acc (Option.value q.Kube.Resource.ordinal ~default:(-1))
              | _ -> acc)
            t.mirror (-1)
        in
        if live_max > marked then
          Sieve.Oracle.report t.ledger
            (Sieve.Oracle.Wrong_decommission
               { dc = Kube.Resource.name_of_key owner_key; marked; live_max })
    | _ -> ()

  (* Deleting a claim is only safe if its owner pod is gone or going. *)
  let check_claim_delete t pvc_name =
    match History.State.get t.mirror (Kube.Resource.pvc_key pvc_name) with
    | Some (Kube.Resource.Pvc c) -> begin
        match c.Kube.Resource.owner_pod with
        | None -> ()
        | Some owner -> begin
            match History.State.get t.mirror (Kube.Resource.pod_key owner) with
            | Some (Kube.Resource.Pod p) when p.Kube.Resource.deletion_timestamp = None ->
                Sieve.Oracle.report t.ledger
                  (Sieve.Oracle.Live_claim_deleted { pvc = pvc_name; owner_pod = owner })
            | Some _ | None -> ()
          end
      end
    | Some _ | None -> ()

  (* A pod flipping Running -> Failed is only legitimate when its node is
     really gone; judged against the pre-update mirror. *)
  let check_failed_transition t (e : Kube.Resource.value History.Event.t) =
    match e.History.Event.value with
    | Some (Kube.Resource.Pod after) when after.Kube.Resource.phase = Kube.Resource.Failed -> begin
        match History.State.get t.mirror e.History.Event.key with
        | Some (Kube.Resource.Pod before)
          when before.Kube.Resource.phase <> Kube.Resource.Failed
               && before.Kube.Resource.deletion_timestamp = None -> begin
            match before.Kube.Resource.node with
            | Some node when History.State.mem t.mirror (Kube.Resource.node_key node) ->
                Sieve.Oracle.report t.ledger
                  (Sieve.Oracle.Healthy_pod_failed { pod = before.Kube.Resource.pod_name; node })
            | Some _ | None -> ()
          end
        | Some _ | None -> ()
      end
    | Some _ | None -> ()

  let on_commit t (e : Kube.Resource.value History.Event.t) =
    let now = Dsim.Engine.now (Kube.Cluster.engine t.cluster) in
    (match Kube.Resource.kind_of_key e.History.Event.key, e.History.Event.op with
    | `Pod, History.Event.Update ->
        Hashtbl.remove t.pod_deleted_at (Kube.Resource.name_of_key e.History.Event.key);
        check_failed_transition t e
    | `Pvc, History.Event.Delete ->
        (* Judge against the pre-delete mirror, which still has the claim. *)
        check_claim_delete t (Kube.Resource.name_of_key e.History.Event.key)
    | `Pod, History.Event.Delete ->
        Hashtbl.replace t.pod_deleted_at (Kube.Resource.name_of_key e.History.Event.key) now
    | `Pod, History.Event.Create ->
        Hashtbl.remove t.pod_deleted_at (Kube.Resource.name_of_key e.History.Event.key)
    | _ -> ());
    t.mirror <- History.State.apply t.mirror e;
    match e.History.Event.op, e.History.Event.value with
    | (History.Event.Create | History.Event.Update), Some (Kube.Resource.Pod p) ->
        check_decommission t p
    | _ -> ()

  let check_duplicates t =
    let sightings = Hashtbl.create 16 in
    List.iter
      (fun kubelet ->
        List.iter
          (fun pod ->
            let owners = Option.value (Hashtbl.find_opt sightings pod) ~default:[] in
            Hashtbl.replace sightings pod (Kube.Kubelet.name kubelet :: owners))
          (Kube.Kubelet.running kubelet))
      (Kube.Cluster.kubelets t.cluster);
    let confirmed_this_round = Hashtbl.create 4 in
    Hashtbl.iter
      (fun pod kubelets ->
        if List.length kubelets >= 2 then begin
          let streak = 1 + Option.value (Hashtbl.find_opt t.duplicate_streak pod) ~default:0 in
          Hashtbl.replace confirmed_this_round pod ();
          Hashtbl.replace t.duplicate_streak pod streak;
          if streak >= duplicate_confirmations then
            Sieve.Oracle.report ~about:(Kube.Resource.pod_key pod) t.ledger
              (Sieve.Oracle.Duplicate_pod { pod; kubelets = List.sort String.compare kubelets })
        end)
      sightings;
    Hashtbl.iter
      (fun pod _ -> if not (Hashtbl.mem confirmed_this_round pod) then
          Hashtbl.remove t.duplicate_streak pod)
      (Hashtbl.copy t.duplicate_streak)

  let check_livelock t =
    List.iter
      (fun ((pod, node), failures) ->
        if
          failures >= livelock_threshold
          && not (History.State.mem t.mirror (Kube.Resource.node_key node))
        then
          Sieve.Oracle.report ~about:(Kube.Resource.node_key node) t.ledger
            (Sieve.Oracle.Scheduler_livelock { pod; node; failures }))
      (Kube.Scheduler.bind_failures (Kube.Cluster.scheduler t.cluster))

  let managed_claim name =
    not (String.length name >= 5 && String.equal (String.sub name 0 5) "data-")

  let check_leaks t =
    let now = Dsim.Engine.now (Kube.Cluster.engine t.cluster) in
    History.State.fold
      (fun _ (value, _) () ->
        match value with
        | Kube.Resource.Pvc c when managed_claim c.Kube.Resource.pvc_name -> begin
            match c.Kube.Resource.owner_pod with
            | None -> ()
            | Some owner ->
                if not (History.State.mem t.mirror (Kube.Resource.pod_key owner)) then begin
                  match Hashtbl.find_opt t.pod_deleted_at owner with
                  | Some deleted_at when now - deleted_at > leak_grace ->
                      Sieve.Oracle.report ~about:(Kube.Resource.pod_key owner) t.ledger
                        (Sieve.Oracle.Pvc_leak
                           { pvc = c.Kube.Resource.pvc_name; owner_pod = owner })
                  | Some _ | None -> ()
                end
          end
        | _ -> ())
      t.mirror ()

  (* Over-provisioning: flagrantly more live pods than a set wants. The
     2x threshold ignores the off-by-a-few churn of normal replacement. *)
  let check_surplus t =
    History.State.fold
      (fun key (value, _) () ->
        match value with
        | Kube.Resource.Rset spec ->
            let rs_key = key in
            let live =
              History.State.fold
                (fun _ (v, _) acc ->
                  match v with
                  | Kube.Resource.Pod p
                    when p.Kube.Resource.owner = Some rs_key
                         && p.Kube.Resource.deletion_timestamp = None
                         && p.Kube.Resource.phase <> Kube.Resource.Failed ->
                      acc + 1
                  | _ -> acc)
                t.mirror 0
            in
            let desired = spec.Kube.Resource.rs_replicas in
            if desired > 0 && live > 2 * desired then
              Sieve.Oracle.report ~about:rs_key t.ledger
                (Sieve.Oracle.Replica_surplus { rs = spec.Kube.Resource.rs_name; live; desired })
        | _ -> ())
      t.mirror ()

  (* A rollout is wedged when, for a long stretch, (a) an old generation's
     set is still deployed, (b) ground truth shows every new-generation pod
     the controller asked for actually Running — so nothing real blocks
     progress — and (c) none of the sets' intents change. A healthy
     rollout changes some intent every pass or two, and even a view frozen
     behind a partition thaws within ~4.5 s (partition + watchdog +
     re-list); 60 consecutive unchanged checks (6 s) means only the
     controller's view stands in the way, permanently. *)
  let check_wedged_rollouts t =
    let confirmed = Hashtbl.create 4 in
    History.State.fold
      (fun _ (value, _) () ->
        match value with
        | Kube.Resource.Deployment d ->
            let dep = d.Kube.Resource.dep_name in
            let target_rs =
              Kube.Resource.rset_key (Printf.sprintf "%s-g%d" dep d.Kube.Resource.template)
            in
            let target_running =
              History.State.fold
                (fun _ (v, _) acc ->
                  match v with
                  | Kube.Resource.Pod p
                    when p.Kube.Resource.owner = Some target_rs
                         && p.Kube.Resource.deletion_timestamp = None
                         && p.Kube.Resource.phase = Kube.Resource.Running ->
                      acc + 1
                  | _ -> acc)
                t.mirror 0
            in
            let target_intent =
              match History.State.get t.mirror target_rs with
              | Some (Kube.Resource.Rset r) -> Some r.Kube.Resource.rs_replicas
              | _ -> None
            in
            let old_intents =
              History.State.fold
                (fun key (v, _) acc ->
                  match v with
                  | Kube.Resource.Rset r ->
                      let prefix = Kube.Resource.rsets_prefix ^ dep ^ "-g" in
                      if (not (String.equal key target_rs)) && String.starts_with ~prefix key then
                        (key, r.Kube.Resource.rs_replicas) :: acc
                      else acc
                  | _ -> acc)
                t.mirror []
              |> List.sort compare
            in
            (match target_intent with
            | Some intent when old_intents <> [] && target_running >= intent ->
                Hashtbl.replace confirmed dep ();
                let fingerprint = (intent, old_intents) in
                let streak =
                  match Hashtbl.find_opt t.wedge_streak dep with
                  | Some (previous, n) when previous = fingerprint -> n + 1
                  | _ -> 1
                in
                Hashtbl.replace t.wedge_streak dep (fingerprint, streak);
                if streak >= 60 then
                  Sieve.Oracle.report ~about:(Kube.Resource.deployment_key dep) t.ledger
                    (Sieve.Oracle.Rollout_wedged { dep; generation = d.Kube.Resource.template })
            | _ -> ())
        | _ -> ())
      t.mirror ();
    Hashtbl.iter
      (fun dep _ -> if not (Hashtbl.mem confirmed dep) then Hashtbl.remove t.wedge_streak dep)
      (Hashtbl.copy t.wedge_streak)

  let attach cluster =
    let t =
      {
        cluster;
        ledger =
          Sieve.Oracle.ledger (Kube.Cluster.engine cluster)
            (Etcdlike.Commits.view (Kube.Etcd.commits (Kube.Cluster.etcd cluster)));
        mirror = History.State.empty;
        pod_deleted_at = Hashtbl.create 16;
        duplicate_streak = Hashtbl.create 16;
        wedge_streak = Hashtbl.create 16;
      }
    in
    Etcdlike.Commits.on_commit (Kube.Etcd.commits (Kube.Cluster.etcd cluster)) (on_commit t);
    Dsim.Engine.every (Kube.Cluster.engine cluster) ~period:check_period (fun () ->
        check_duplicates t;
        check_livelock t;
        check_leaks t;
        check_surplus t;
        check_wedged_rollouts t;
        true);
    t
end

module Full_hbase = struct
  let check_period = 100_000

  let stale_confirmations = 8

  let double_confirmations = 25

  type t = {
    cluster : Hbaselike.Cluster.t;
    ledger : Sieve.Oracle.ledger;
    stale_streak : (string, int * int) Hashtbl.t;
        (* region -> (consecutive bad sightings, master cas_failures at streak start) *)
    double_streak : (string, int) Hashtbl.t;
  }

  let violations t = Sieve.Oracle.found t.ledger

  let leader_kv t = Hbaselike.Zk.leader_kv (Hbaselike.Cluster.zk t.cluster)

  let registry t =
    match Etcdlike.Kv.get (leader_kv t) "rs/registry" with
    | Some (members, _) -> String.split_on_char ',' members |> List.filter (fun s -> s <> "")
    | None -> []

  let assigned_to t region =
    Option.map fst (Etcdlike.Kv.get (leader_kv t) ("region/" ^ region))

  (* A region parked (in ground truth) on a server the ground-truth
     registry no longer lists, sustained across [stale_confirmations]
     checks, is a repair the master never performs. Whether the master
     *tried* tells the two seeded shapes apart: a climbing CAS-failure
     counter during the streak means it saw the departure but its
     compare-and-sets are wedged on drifted follower revisions
     (HB-FOLLOWER); a flat counter means its stale view still calls the
     dead assignment healthy and it never tries (HB-ASSIGN). *)
  let check_stale_assignments t =
    let live = registry t in
    let cas_failures = Hbaselike.Master.cas_failures (Hbaselike.Cluster.master t.cluster) in
    List.iter
      (fun region ->
        match assigned_to t region with
        | Some server when not (List.mem server live) ->
            let streak, cas0 =
              match Hashtbl.find_opt t.stale_streak region with
              | Some (n, cas0) -> (n + 1, cas0)
              | None -> (1, cas_failures)
            in
            Hashtbl.replace t.stale_streak region (streak, cas0);
            if streak >= stale_confirmations then
              Sieve.Oracle.report ~about:("region/" ^ region) t.ledger
                (if cas_failures > cas0 then Sieve.Oracle.Region_cas_wedged { region; server }
                 else Sieve.Oracle.Region_stale_assign { region; server })
        | Some _ | None -> Hashtbl.remove t.stale_streak region)
      Hbaselike.Cluster.regions

  (* Several *live* region servers serving one region, sustained across
     [double_confirmations] checks: a one-shot watch notification lost (or
     delayed past the streak window) left somebody acting on a superseded
     assignment. Down servers are excluded — their frozen serving sets are
     unreachable, not unsafe. *)
  let check_double_serve t =
    let net = Hbaselike.Cluster.net t.cluster in
    List.iter
      (fun region ->
        let servers =
          List.filter_map
            (fun rs ->
              if
                Dsim.Network.is_up net (Hbaselike.Regionserver.name rs)
                && Hbaselike.Regionserver.is_serving rs region
              then Some (Hbaselike.Regionserver.name rs)
              else None)
            (Hbaselike.Cluster.region_servers t.cluster)
        in
        if List.length servers >= 2 then begin
          let streak = 1 + Option.value (Hashtbl.find_opt t.double_streak region) ~default:0 in
          Hashtbl.replace t.double_streak region streak;
          if streak >= double_confirmations then
            Sieve.Oracle.report ~about:("region/" ^ region) t.ledger
              (Sieve.Oracle.Region_double_serve
                 { region; servers = List.sort String.compare servers })
        end
        else Hashtbl.remove t.double_streak region)
      Hbaselike.Cluster.regions

  let attach cluster =
    let t =
      {
        cluster;
        ledger =
          Sieve.Oracle.ledger (Hbaselike.Cluster.engine cluster)
            (Etcdlike.Commits.view (Hbaselike.Zk.commits (Hbaselike.Cluster.zk cluster)));
        stale_streak = Hashtbl.create 8;
        double_streak = Hashtbl.create 8;
      }
    in
    Dsim.Engine.every (Hbaselike.Cluster.engine cluster) ~period:check_period (fun () ->
        check_stale_assignments t;
        check_double_serve t;
        true);
    t
end

(* Runs one trial with both oracles attached: the real one first, as
   [Runner.run_test] attaches it. *)
let findings (test : Sieve.Runner.test) =
  let live = Sieve.Substrate.create test.Sieve.Runner.spec in
  let real, full =
    match live with
    | Sieve.Substrate.Kube_live cluster ->
        let oracle = Sieve.Oracle.attach cluster in
        let full = Full_kube.attach cluster in
        Sieve.Strategy.apply cluster test.Sieve.Runner.strategy;
        ((fun () -> Sieve.Oracle.violations oracle), fun () -> Full_kube.violations full)
    | Sieve.Substrate.Hbase_live cluster ->
        let oracle = Sieve.Hbase_oracle.attach cluster in
        let full = Full_hbase.attach cluster in
        Sieve.Strategy.apply_hbase cluster test.Sieve.Runner.strategy;
        ((fun () -> Sieve.Hbase_oracle.violations oracle), fun () -> Full_hbase.violations full)
  in
  Sieve.Substrate.start live;
  Sieve.Substrate.schedule live test.Sieve.Runner.spec;
  Sieve.Substrate.run ~until:test.Sieve.Runner.horizon live;
  (real (), full ())

let describe findings =
  String.concat "; "
    (List.map
       (fun (time, v) -> Printf.sprintf "%d %s" time (Sieve.Oracle.describe v))
       findings)

(* Random crash and partition plans on a kube case, as the hunt's
   explore trials draw them: faults that come and go make duplicates,
   stale views and rollouts flap in and out of the oracles' tables. *)
let random_trials ~n (case : Sieve.Bugs.case) =
  match case.Sieve.Bugs.spec with
  | Sieve.Substrate.Kube { config; _ } ->
      List.mapi
        (fun i strategy ->
          {
            Sieve.Runner.name = Printf.sprintf "%s:random#%d" case.Sieve.Bugs.id i;
            spec = case.Sieve.Bugs.spec;
            horizon = case.Sieve.Bugs.horizon;
            strategy;
          })
        (Sieve.Baselines.random_faults ~seed:7L
           ~components:
             (List.map
                (fun t -> t.Sieve.Planner.component)
                (Sieve.Planner.targets_of_config config))
           ~apiservers:Kube.Cluster.apiserver_addresses
           ~horizon:case.Sieve.Bugs.horizon ~n)
  | Sieve.Substrate.Hbase _ -> []

(* Every case's bug, reference and fixed runs, a round-robin slice of
   every case's planner candidates, random-fault trials on the kube cases,
   and HBase random-fault trials past the planner's: each oracle check
   fires somewhere in this set. *)
let trials () =
  let cases = Sieve.Bugs.all_with_extras () @ Sieve.Bugs.replicated () @ Sieve.Bugs.hbase () in
  List.concat_map
    (fun case ->
      [
        Sieve.Bugs.test_of_case case;
        Sieve.Bugs.reference_test_of_case case;
        Sieve.Bugs.fixed_test_of_case case;
      ])
    cases
  @ List.concat_map (random_trials ~n:30) cases
  @ List.map
      (fun (t : Hunt.Campaign.trial) -> t.Hunt.Campaign.test)
      (Array.to_list (Hunt.Campaign.plan ~budget:240 ~cases ()).Hunt.Campaign.trials)
  @ List.map
      (fun (t : Hunt.Campaign.trial) -> t.Hunt.Campaign.test)
      (Array.to_list
         (Hunt.Campaign.plan ~budget:260 ~seed:13L ~cases:(Sieve.Bugs.hbase ()) ())
           .Hunt.Campaign.trials)
  (* HB-WATCH's explore trial 822 at seed 13: a double-served region
     leaves the table and comes back, so its streak must start over —
     the rare flap the sets above lack. *)
  @ [
      (Hunt.Campaign.plan ~budget:1200 ~seed:13L ~cases:(Sieve.Bugs.hbase ()) ())
        .Hunt.Campaign.trials.(822).Hunt.Campaign.test;
    ]

let incremental_oracles_match_full_recompute () =
  let fired = ref 0 and kinds = Hashtbl.create 16 in
  List.iteri
    (fun i test ->
      let real, full = findings test in
      if real <> full then
        Alcotest.failf "trial %d (%s): incremental [%s], full recompute [%s]" i
          test.Sieve.Runner.name (describe real) (describe full);
      List.iter
        (fun (_, v) ->
          incr fired;
          Hashtbl.replace kinds (Sieve.Oracle.bug_id v) ())
        real)
    (trials ());
  Alcotest.(check bool) (Printf.sprintf "%d findings" !fired) true (!fired > 0);
  Alcotest.(check int) "every oracle check fired" 11 (Hashtbl.length kinds)

let suites =
  [
    ( "oracle reference",
      [
        Alcotest.test_case "incremental oracles match the full recompute" `Slow
          incremental_oracles_match_full_recompute;
      ] );
  ]
