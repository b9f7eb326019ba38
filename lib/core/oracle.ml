type violation =
  | Duplicate_pod of { pod : string; kubelets : string list }
  | Scheduler_livelock of { pod : string; node : string; failures : int }
  | Pvc_leak of { pvc : string; owner_pod : string }
  | Wrong_decommission of { dc : string; marked : int; live_max : int }
  | Live_claim_deleted of { pvc : string; owner_pod : string }
  | Replica_surplus of { rs : string; live : int; desired : int }
  | Healthy_pod_failed of { pod : string; node : string }
  | Rollout_wedged of { dep : string; generation : int }
  | Region_stale_assign of { region : string; server : string }
  | Region_double_serve of { region : string; servers : string list }
  | Region_cas_wedged of { region : string; server : string }

let describe = function
  | Duplicate_pod { pod; kubelets } ->
      Printf.sprintf "pod %s running on several kubelets: %s" pod (String.concat ", " kubelets)
  | Scheduler_livelock { pod; node; failures } ->
      Printf.sprintf "scheduler bound %s to deleted node %s %d times" pod node failures
  | Pvc_leak { pvc; owner_pod } ->
      Printf.sprintf "claim %s never released after owner pod %s vanished" pvc owner_pod
  | Wrong_decommission { dc; marked; live_max } ->
      Printf.sprintf "dc %s: decommissioned ordinal %d while ordinal %d is live" dc marked
        live_max
  | Live_claim_deleted { pvc; owner_pod } ->
      Printf.sprintf "claim %s of live pod %s was deleted" pvc owner_pod
  | Replica_surplus { rs; live; desired } ->
      Printf.sprintf "rset %s over-provisioned: %d live pods for %d desired" rs live desired
  | Healthy_pod_failed { pod; node } ->
      Printf.sprintf "healthy pod %s failed while its node %s exists" pod node
  | Rollout_wedged { dep; generation } ->
      Printf.sprintf
        "deployment %s wedged: generation %d fully Running in truth, old pods never drained" dep
        generation
  | Region_stale_assign { region; server } ->
      Printf.sprintf
        "region %s parked on decommissioned server %s: master's stale view calls it healthy"
        region server
  | Region_double_serve { region; servers } ->
      Printf.sprintf "region %s served by several region servers: %s" region
        (String.concat ", " servers)
  | Region_cas_wedged { region; server } ->
      Printf.sprintf
        "region %s stuck on departed server %s: every repair CAS fails on drifted revisions"
        region server

let bug_id = function
  | Duplicate_pod _ -> "K8s-59848"
  | Scheduler_livelock _ -> "K8s-56261"
  | Pvc_leak _ -> "CA-398"
  | Wrong_decommission _ -> "CA-400"
  | Live_claim_deleted _ -> "CA-402"
  | Replica_surplus _ -> "EXT-RS"
  | Healthy_pod_failed _ -> "EXT-NC"
  | Rollout_wedged _ -> "EXT-DEP"
  | Region_stale_assign _ -> "HB-ASSIGN"
  | Region_double_serve _ -> "HB-WATCH"
  | Region_cas_wedged _ -> "HB-FOLLOWER"

let components = function
  | Duplicate_pod { kubelets; _ } -> List.sort String.compare kubelets
  | Scheduler_livelock _ -> [ "scheduler" ]
  | Pvc_leak _ -> [ "volumectl" ]
  | Wrong_decommission _ | Live_claim_deleted _ -> [ "cassop" ]
  | Replica_surplus _ -> [ "rsctl" ]
  | Healthy_pod_failed _ -> [ "nodectl" ]
  | Rollout_wedged _ -> [ "depctl" ]
  | Region_stale_assign _ | Region_cas_wedged _ -> [ "master-1" ]
  | Region_double_serve { servers; _ } -> List.sort String.compare servers

let key v =
  match v with
  | Duplicate_pod { pod; _ } -> "dup:" ^ pod
  | Scheduler_livelock { pod; node; _ } -> Printf.sprintf "livelock:%s:%s" pod node
  | Pvc_leak { pvc; _ } -> "leak:" ^ pvc
  | Wrong_decommission { dc; marked; _ } -> Printf.sprintf "decom:%s:%d" dc marked
  | Live_claim_deleted { pvc; _ } -> "claimdel:" ^ pvc
  | Replica_surplus { rs; _ } -> "surplus:" ^ rs
  | Healthy_pod_failed { pod; _ } -> "evict:" ^ pod
  | Rollout_wedged { dep; _ } -> "wedged:" ^ dep
  | Region_stale_assign { region; _ } -> "hbassign:" ^ region
  | Region_double_serve { region; _ } -> "hbdup:" ^ region
  | Region_cas_wedged { region; _ } -> "hbwedge:" ^ region

type ledger = {
  engine : Dsim.Engine.t;
  commits : Etcdlike.Commits.view;  (* the store's anchors *)
  seen : (string, unit) Hashtbl.t;  (* dedup keys *)
  mutable found : (int * violation) list;  (* newest first *)
}

let ledger engine commits = { engine; commits; seen = Hashtbl.create 16; found = [] }

let found l = List.rev l.found

(* The causal anchor: a violation about a store key hangs off the last
   commit to that key, else the most recent commit, else the live
   frontier; one without a key (a commit-driven check, running inside
   the commit) off the live frontier, else the most recent commit. *)
let report ?about l v =
  let k = key v in
  if not (Hashtbl.mem l.seen k) then begin
    Hashtbl.replace l.seen k ();
    l.found <- (Dsim.Engine.now l.engine, v) :: l.found;
    let latest () = Etcdlike.Commits.(anchor l.commits ~rev:(rev l.commits)) in
    let live () = Dsim.Engine.current_cause l.engine in
    let ( ||| ) cause next = match cause with Some _ -> cause | None -> next () in
    let cause =
      match about with
      | Some key -> Etcdlike.Commits.key_anchor l.commits key ||| latest ||| live
      | None -> live () ||| latest
    in
    Dsim.Metrics.incr (Dsim.Engine.metrics l.engine) "oracle.violations";
    Dsim.Engine.record l.engine ~actor:"oracle" ~kind:"oracle.violation" ?cause
      (Printf.sprintf "[%s] %s" (bug_id v) (describe v))
  end

let check_period = 100_000

let livelock_threshold = 15

let leak_grace = 2_000_000

let duplicate_confirmations = 20

(* Each periodic check reads a few inputs: the mirror (and
   [pod_deleted_at], written only beside it), the kubelets' running sets
   and the scheduler's bind failures. Each input has a change count (the
   mirror's is the store feed's frontier: it moves with every commit),
   and a check re-derives its table only when one of its inputs moved; a
   tick whose inputs all stood still only advances the streaks and the
   leak clock. Reports repeat a table's findings every tick, as a full
   recompute would ({!report} ignores a repeated key). *)
type t = {
  cluster : Kube.Cluster.t;
  ledger : ledger;
  mutable mirror : Kube.Resource.value History.State.t;
      (* the store's ground truth as of the last commit seen *)
  pod_deleted_at : (string, int) Hashtbl.t;  (* pod name -> removal time *)
  mutable duplicate_streak : (string, int) Hashtbl.t;  (* pod -> consecutive dup sightings *)
  mutable wedge_streak : (string, (int * (string * int) list) * int) Hashtbl.t;
      (* deployment -> (intent fingerprint, consecutive unchanged sightings) *)
  (* The derived tables, and the input counts they were derived at. *)
  mutable duplicates : (string * string list) list;  (* pod -> kubelets, sighting order *)
  mutable duplicates_at : int;  (* kubelet starts + stops *)
  mutable livelock_at : int;  (* commits *)
  mutable failed_binds_at : int;
  mutable leaks : (int * string * violation) list;  (* deadline, about, violation *)
  mutable surplus_at : int;
  mutable wedged : (string * int * (int * (string * int) list)) list;
      (* deployment, generation, intent fingerprint *)
  mutable derived_at : int;  (* commits, for [leaks] and [wedged] *)
}

let commits t = Etcdlike.Commits.rev t.ledger.commits

let violations t = found t.ledger

let violated t = t.ledger.found <> []

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
        report t.ledger
          (Wrong_decommission { dc = Kube.Resource.name_of_key owner_key; marked; live_max })
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
              report t.ledger (Live_claim_deleted { pvc = pvc_name; owner_pod = owner })
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
              report t.ledger (Healthy_pod_failed { pod = before.Kube.Resource.pod_name; node })
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
  t.mirror <- Kube.Cluster.truth t.cluster;
  match e.History.Event.op, e.History.Event.value with
  | (History.Event.Create | History.Event.Update), Some (Kube.Resource.Pod p) ->
      check_decommission t p
  | _ -> ()

(* The sighting table is rebuilt the way it always was — kubelets in
   cluster order, each one's running pods sorted — so its iteration
   order, which orders same-tick duplicate reports, is unchanged. *)
let sight_duplicates t =
  let sightings = Hashtbl.create 16 in
  List.iter
    (fun kubelet ->
      List.iter
        (fun pod ->
          let owners = Option.value (Hashtbl.find_opt sightings pod) ~default:[] in
          Hashtbl.replace sightings pod (Kube.Kubelet.name kubelet :: owners))
        (Kube.Kubelet.running kubelet))
    (Kube.Cluster.kubelets t.cluster);
  let duplicates = ref [] in
  Hashtbl.iter
    (fun pod kubelets ->
      if List.length kubelets >= 2 then
        duplicates := (pod, List.sort String.compare kubelets) :: !duplicates)
    sightings;
  t.duplicates <- List.rev !duplicates

let check_duplicates t =
  let moves =
    List.fold_left
      (fun acc k -> acc + Kube.Kubelet.starts k + Kube.Kubelet.stops k)
      0 (Kube.Cluster.kubelets t.cluster)
  in
  if moves <> t.duplicates_at then begin
    t.duplicates_at <- moves;
    sight_duplicates t
  end;
  (* The streak table after a tick holds exactly the pods sighted twice
     now, each one sighting longer than before: a pod that drops out
     starts over. *)
  match t.duplicates with
  | [] -> Hashtbl.reset t.duplicate_streak
  | duplicates ->
      let streaks = Hashtbl.create 16 in
      List.iter
        (fun (pod, kubelets) ->
          let streak = 1 + Option.value (Hashtbl.find_opt t.duplicate_streak pod) ~default:0 in
          Hashtbl.replace streaks pod streak;
          if streak >= duplicate_confirmations then
            report ~about:(Kube.Resource.pod_key pod) t.ledger (Duplicate_pod { pod; kubelets }))
        duplicates;
      t.duplicate_streak <- streaks

let check_livelock t =
  let scheduler = Kube.Cluster.scheduler t.cluster in
  let failed_binds = Kube.Scheduler.failed_binds scheduler in
  if commits t <> t.livelock_at || failed_binds <> t.failed_binds_at then begin
    t.livelock_at <- commits t;
    t.failed_binds_at <- failed_binds;
    List.iter
      (fun ((pod, node), failures) ->
        if
          failures >= livelock_threshold
          && not (History.State.mem t.mirror (Kube.Resource.node_key node))
        then
          report ~about:(Kube.Resource.node_key node) t.ledger
            (Scheduler_livelock { pod; node; failures }))
      (Kube.Scheduler.bind_failures scheduler)
  end

let managed_claim name =
  not (String.length name >= 5 && String.equal (String.sub name 0 5) "data-")

(* Claims whose owner pod is gone from the mirror, in mirror key order,
   each with the time its leak grace runs out; a claim whose owner was
   never seen removed cannot leak, so it is left out. *)
let derive_leaks t =
  History.State.fold
    (fun _ (value, _) acc ->
      match value with
      | Kube.Resource.Pvc c when managed_claim c.Kube.Resource.pvc_name -> begin
          match c.Kube.Resource.owner_pod with
          | Some owner when not (History.State.mem t.mirror (Kube.Resource.pod_key owner)) -> (
              match Hashtbl.find_opt t.pod_deleted_at owner with
              | Some deleted_at ->
                  ( deleted_at + leak_grace,
                    Kube.Resource.pod_key owner,
                    Pvc_leak { pvc = c.Kube.Resource.pvc_name; owner_pod = owner } )
                  :: acc
              | None -> acc)
          | Some _ | None -> acc
        end
      | _ -> acc)
    t.mirror []
  |> List.rev

let check_leaks t =
  match t.leaks with
  | [] -> ()
  | leaks ->
      let now = Dsim.Engine.now (Kube.Cluster.engine t.cluster) in
      List.iter (fun (deadline, about, v) -> if now > deadline then report ~about t.ledger v) leaks

(* Over-provisioning: flagrantly more live pods than a set wants. The
   2x threshold ignores the off-by-a-few churn of normal replacement. *)
let check_surplus t =
  if commits t <> t.surplus_at then begin
    t.surplus_at <- commits t;
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
              report ~about:rs_key t.ledger
                (Replica_surplus { rs = spec.Kube.Resource.rs_name; live; desired })
        | _ -> ())
      t.mirror ()
  end

(* The deployments meeting (a) and (b) below, in mirror key order, each
   with the fingerprint of its sets' intents for (c). *)
let derive_wedged t =
  History.State.fold
    (fun _ (value, _) acc ->
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
              (dep, d.Kube.Resource.template, (intent, old_intents)) :: acc
          | _ -> acc)
      | _ -> acc)
    t.mirror []
  |> List.rev

(* A rollout is wedged when, for a long stretch, (a) an old generation's
   set is still deployed, (b) ground truth shows every new-generation pod
   the controller asked for actually Running — so nothing real blocks
   progress — and (c) none of the sets' intents change. A healthy
   rollout changes some intent every pass or two, and even a view frozen
   behind a partition thaws within ~4.5 s (partition + watchdog +
   re-list); 60 consecutive unchanged checks (6 s) means only the
   controller's view stands in the way, permanently. *)
let check_wedged_rollouts t =
  match t.wedged with
  | [] -> Hashtbl.reset t.wedge_streak
  | wedged ->
      let streaks = Hashtbl.create 16 in
      List.iter
        (fun (dep, generation, fingerprint) ->
          let streak =
            match Hashtbl.find_opt t.wedge_streak dep with
            | Some (previous, n) when previous = fingerprint -> n + 1
            | _ -> 1
          in
          Hashtbl.replace streaks dep (fingerprint, streak);
          if streak >= 60 then
            report ~about:(Kube.Resource.deployment_key dep) t.ledger
              (Rollout_wedged { dep; generation }))
        wedged;
      t.wedge_streak <- streaks

(* Re-derive the mirror's two time-dependent tables after a commit. *)
let derive t =
  if commits t <> t.derived_at then begin
    t.derived_at <- commits t;
    t.leaks <- derive_leaks t;
    t.wedged <- derive_wedged t
  end

let attach cluster =
  let commits = Kube.Etcd.commits (Kube.Cluster.etcd cluster) in
  let t =
    {
      cluster;
      ledger = ledger (Kube.Cluster.engine cluster) (Etcdlike.Commits.view commits);
      mirror = History.State.empty;
      pod_deleted_at = Hashtbl.create 16;
      duplicate_streak = Hashtbl.create 16;
      wedge_streak = Hashtbl.create 16;
      duplicates = [];
      duplicates_at = -1;
      livelock_at = -1;
      failed_binds_at = -1;
      leaks = [];
      surplus_at = -1;
      wedged = [];
      derived_at = -1;
    }
  in
  Etcdlike.Commits.on_commit commits (on_commit t);
  Dsim.Engine.every (Kube.Cluster.engine cluster) ~period:check_period (fun () ->
      derive t;
      check_duplicates t;
      check_livelock t;
      check_leaks t;
      check_surplus t;
      check_wedged_rollouts t;
      true);
  t
