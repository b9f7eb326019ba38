type case = {
  id : string;
  title : string;
  pattern : [ `Staleness | `Obs_gap | `Time_travel ];
  spec : Substrate.spec;
  horizon : int;
  matches : Oracle.violation -> bool;
  sieve_strategy : Strategy.t;
  fixed_spec : Substrate.spec;
}

let sec n = n * 1_000_000
let ms n = n * 1_000

(* Every kube case shares one workload between the buggy and the fixed
   run: the fix is always a config flag, never a different driving
   sequence. *)
let kube_case ~id ~title ~pattern ~config ~workload ~horizon ~matches ~sieve_strategy
    ~fixed_config =
  {
    id;
    title;
    pattern;
    spec = Substrate.Kube { config; workload };
    horizon;
    matches;
    sieve_strategy;
    fixed_spec = Substrate.Kube { config = fixed_config; workload };
  }

let hbase_case ~id ~title ~pattern ~config ~workload ~horizon ~matches ~sieve_strategy
    ~fixed_config =
  {
    id;
    title;
    pattern;
    spec = Substrate.Hbase { config; workload };
    horizon;
    matches;
    sieve_strategy;
    fixed_spec = Substrate.Hbase { config = fixed_config; workload };
  }

(* Kubernetes-59848 — Figure 2's walkthrough. Two apiservers, two
   kubelets. p1 is created on node-1, then migrated to node-2 at 3.0 s.
   api-2 loses etcd connectivity just before the migration, so its cache
   still places p1 on node-1. kubelet-1 crashes at 3.6 s; its next
   incarnation lists from api-2 (endpoint rotation) and dutifully starts
   p1 again. *)
let k8s_59848 () =
  let config = { Kube.Cluster.default_config with Kube.Cluster.nodes = 2 } in
  kube_case ~id:"K8s-59848"
    ~title:"stale reads violate pod safety: duplicate pod after kubelet restart"
    ~pattern:`Time_travel ~config
    ~workload:
      (Kube.Workload.rolling_upgrade ~start:(sec 1) ~pod:"p1" ~from_node:"node-1"
         ~to_node:"node-2" ())
    ~horizon:(sec 8)
    ~matches:(function
      | Oracle.Duplicate_pod { pod; _ } -> String.equal pod "p1" | _ -> false)
    ~sieve_strategy:
      (Strategy.time_travel ~stale_api:"api-2" ~victim:"kubelet-1" ~stale_from:(ms 2_800)
         ~crash_at:(ms 3_600) ~downtime:(ms 150) ())
    ~fixed_config:{ config with Kube.Cluster.kubelet_monotonic = true }

(* Kubernetes-56261 — the scheduler never hears that node-2 is gone and
   keeps offering it; every bind fails at etcd's Exists guard and the
   stale cache is never evicted. *)
let k8s_56261 () =
  let config = Kube.Cluster.default_config in
  kube_case ~id:"K8s-56261" ~title:"scheduler caches a deleted node and livelocks placement"
    ~pattern:`Obs_gap ~config
    ~workload:(Kube.Workload.node_churn ~start:(ms 1_500) ~node:"node-2" ~pods_after:6 ())
    ~horizon:(sec 8)
    ~matches:(function
      | Oracle.Scheduler_livelock { node; _ } -> String.equal node "node-2" | _ -> false)
    ~sieve_strategy:
      (Strategy.observability_gap ~dst:"scheduler" ~key_prefix:"nodes/node-2"
         ~op:History.Event.Delete ~limit:1 ~from:0 ~until:(sec 8) ())
    ~fixed_config:{ config with Kube.Cluster.scheduler_fixed = true }

(* cassandra-operator-398's pattern (= the Kubernetes controller bug the
   paper cites as [17]): the volume controller only releases a claim when
   it *sees* the owner pod marked for deletion; drop that one mark
   notification and the claim is orphaned forever. *)
let ca_398 () =
  let config = Kube.Cluster.default_config in
  kube_case ~id:"CA-398"
    ~title:"claim never released: deletion mark unobservable between sparse reads"
    ~pattern:`Obs_gap ~config
    ~workload:(Kube.Workload.pods_with_claims ~start:(sec 1) ~lifetime:(sec 2) ~n:2 ())
    ~horizon:(sec 8)
    ~matches:(function Oracle.Pvc_leak { pvc; _ } -> String.equal pvc "vol-0" | _ -> false)
    ~sieve_strategy:
      (* The mark is the only update to app-0 in this window. *)
      (Strategy.observability_gap ~dst:"volumectl" ~key_prefix:"pods/app-0"
         ~op:History.Event.Update ~from:(ms 2_800) ~until:(sec 8) ())
    ~fixed_config:{ config with Kube.Cluster.volume_fixed = true }

(* cassandra-operator-400 — hide the newest member (ordinal 3) from the
   operator's view; when the user scales 4 -> 2 the operator picks the
   max ordinal *it can see* (2) and decommissions a non-max member. *)
let ca_400 () =
  let config = Kube.Cluster.default_config in
  kube_case ~id:"CA-400" ~title:"wrong member decommissioned under a stale cached view"
    ~pattern:`Staleness ~config
    ~workload:
      (Kube.Workload.cassandra_scale ~start:(sec 1) ~dc:"cass"
         ~steps:[ (0, 2); (ms 2_500, 4); (sec 5, 2) ]
         ())
    ~horizon:(sec 9)
    ~matches:(function
      | Oracle.Wrong_decommission { dc; _ } -> String.equal dc "cass" | _ -> false)
    ~sieve_strategy:
      (Strategy.observability_gap ~dst:"cassop" ~key_prefix:"pods/cass-3" ~from:(sec 3)
         ~until:(sec 9) ())
    ~fixed_config:{ config with Kube.Cluster.operator_fixed = true }

(* cassandra-operator-402 — hide the new member pod (but not its claim)
   from the operator's view; orphan GC concludes the claim is garbage and
   deletes the data of a live Cassandra node. *)
let ca_402 () =
  let config = Kube.Cluster.default_config in
  kube_case ~id:"CA-402" ~title:"live member's data claim deleted from stale apiserver data"
    ~pattern:`Staleness ~config
    ~workload:
      (Kube.Workload.cassandra_scale ~start:(sec 1) ~dc:"cass" ~steps:[ (0, 2); (ms 2_500, 3) ]
         ())
    ~horizon:(sec 8)
    ~matches:(function
      | Oracle.Live_claim_deleted { pvc; _ } -> String.equal pvc "data-cass-2" | _ -> false)
    ~sieve_strategy:
      (Strategy.observability_gap ~dst:"cassop" ~key_prefix:"pods/cass-2" ~from:(sec 3)
         ~until:(sec 8) ())
    ~fixed_config:{ config with Kube.Cluster.operator_fixed = true }

let all () = [ k8s_59848 (); k8s_56261 (); ca_398 (); ca_400 (); ca_402 () ]

let kube_config case =
  match case.spec with
  | Substrate.Kube { config; _ } -> config
  | Substrate.Hbase _ -> invalid_arg (case.id ^ ": not a kube case")

let kube_workload case =
  match case.spec with
  | Substrate.Kube { workload; _ } -> workload
  | Substrate.Hbase _ -> invalid_arg (case.id ^ ": not a kube case")

let test_of_case case =
  {
    Runner.name = case.id ^ "/sieve";
    spec = case.spec;
    horizon = case.horizon;
    strategy = case.sieve_strategy;
  }

let reference_test_of_case case =
  {
    Runner.name = case.id ^ "/reference";
    spec = case.spec;
    horizon = case.horizon;
    strategy = Strategy.No_perturbation;
  }

let fixed_test_of_case case =
  {
    Runner.name = case.id ^ "/fixed";
    spec = case.fixed_spec;
    horizon = case.horizon;
    strategy = case.sieve_strategy;
  }

let hit case (outcome : Runner.outcome) =
  List.find_opt (fun (_, v) -> case.matches v) outcome.Runner.violations

type reproduction = { reference_clean : bool; exposed_at : int option; fix_closes : bool }

let reproduce case =
  let reference = Runner.run_test (reference_test_of_case case) in
  let focused = Runner.run_test (test_of_case case) in
  let fixed = Runner.run_test (fixed_test_of_case case) in
  {
    reference_clean = reference.Runner.violations = [];
    exposed_at = Option.map fst (hit case focused);
    fix_closes = Option.is_none (hit case fixed);
  }

let seal_hits ?strategy ~granularity case =
  let strategy = Option.value strategy ~default:case.sieve_strategy in
  let hits config =
    Option.is_some
      (hit case
         (Runner.run_test
            (Runner.base_test ~config ~workload:(kube_workload case) ~horizon:case.horizon
               strategy)))
  in
  let config = kube_config case in
  (hits config, hits { config with Kube.Cluster.api_epoch_seal = Some granularity })

(* ------------------------------------------------------------------ *)
(* Extension corpus: partial-history bug instances beyond the paper's
   five case studies, found in the extra controllers this reproduction
   adds. They follow the same discipline: clean reference, deterministic
   trigger, targeted fix. *)

(* EXT-RS — controller over-provisioning: the ReplicaSet controller
   counts replicas from its cached view; lag the view behind its own
   creations and it creates a fresh batch every reconcile pass. The fix
   is client-go's expectations mechanism. *)
let ext_rs_surplus () =
  let config = { Kube.Cluster.default_config with Kube.Cluster.with_replicaset = true } in
  kube_case ~id:"EXT-RS"
    ~title:"replica over-provisioning: controller counts from a lagging cache"
    ~pattern:`Staleness ~config
    ~workload:(Kube.Workload.replicaset_scale ~start:(sec 1) ~rs:"web" ~steps:[ (0, 3) ] ())
    ~horizon:(sec 7)
    ~matches:(function
      | Oracle.Replica_surplus { rs; _ } -> String.equal rs "web" | _ -> false)
    ~sieve_strategy:
      (Strategy.staleness ~dst:"rsctl" ~key_prefix:Kube.Resource.pods_prefix ~from:(ms 900)
         ~until:(ms 2_400) ~extra:(ms 1_500) ())
    ~fixed_config:{ config with Kube.Cluster.replicaset_fixed = true }

(* EXT-NC — wrongful eviction (observability gap): the node controller
   never observes a new node's creation, concludes every pod scheduled
   there is orphaned, and fails healthy workloads. The fix is a quorum
   read before acting. *)
let ext_nc_evict () =
  let config =
    {
      Kube.Cluster.default_config with
      Kube.Cluster.with_replicaset = true;
      with_node_controller = true;
    }
  in
  kube_case ~id:"EXT-NC" ~title:"healthy pods failed: node controller blind to a new node"
    ~pattern:`Obs_gap ~config
    ~workload:
      (Kube.Workload.node_failover ~start:(sec 1) ~new_node:"node-4" ~rs:"web" ~replicas:2 ()
      @ Kube.Workload.replicaset_scale ~start:(sec 3) ~rs:"web" ~steps:[ (0, 6) ] ())
    ~horizon:(sec 8)
    ~matches:(function Oracle.Healthy_pod_failed _ -> true | _ -> false)
    ~sieve_strategy:
      (Strategy.observability_gap ~dst:"nodectl" ~key_prefix:"nodes/node-4" ~from:0
         ~until:(sec 8) ())
    ~fixed_config:{ config with Kube.Cluster.node_controller_fixed = true }

(* EXT-DEP — a wedged rollout (observability gap): the Deployment
   controller never observes the new generation's pods running, so it
   never drains the old one; ground truth says the rollout could
   complete, the view says otherwise, forever. The fix is a quorum
   re-count when progress stalls. *)
let ext_dep_wedged () =
  let config =
    {
      Kube.Cluster.default_config with
      Kube.Cluster.with_replicaset = true;
      with_deployment = true;
    }
  in
  kube_case ~id:"EXT-DEP" ~title:"rollout wedged: controller blind to the new generation running"
    ~pattern:`Obs_gap ~config
    ~workload:
      (Kube.Workload.deployment_rollout ~start:(sec 1) ~dep:"web" ~replicas:2 ~generations:2
         ~gap:(sec 3) ())
    ~horizon:(sec 12)
    ~matches:(function
      | Oracle.Rollout_wedged { dep; _ } -> String.equal dep "web" | _ -> false)
    ~sieve_strategy:
      (* Hide the new generation's pods from the deployment controller:
         it keeps one old pod up forever, waiting for readiness it will
         never see. *)
      (Strategy.observability_gap ~dst:"depctl" ~key_prefix:"pods/web-g2" ~from:(ms 3_500)
         ~until:(sec 12) ())
    ~fixed_config:{ config with Kube.Cluster.deployment_fixed = true }

let extras () = [ ext_rs_surplus (); ext_nc_evict (); ext_dep_wedged () ]

let all_with_extras () = all () @ extras ()

(* ------------------------------------------------------------------ *)
(* Replicated-store scenario family: the same partial-history bug
   patterns, but manufactured below the gateway — by Raft replication
   lag instead of consumer-side fault injection. Kept out of
   [all_with_extras] so the pre-replication corpus (and its fixed-seed
   hunt journals) is byte-identical; reach these via [find]/[replicated].

   In every case the "fix" is routing reads to the leader: follower
   staleness is a read-placement decision, and linearizable reads close
   the window the same way the per-component fixes close theirs. *)

let leader_reads config =
  match config.Kube.Cluster.replication with
  | Some r ->
      {
        config with
        Kube.Cluster.replication = Some { r with Kube.Etcd.read = Replicated.Kv.Leader };
      }
  | None -> config

(* REP-STALE — a partitioned follower silently serves a re-list. Reads
   spread across replicas pin api-2 to etcd-2; cutting etcd-2's
   replication links (its client link stays up, so bookmarks keep
   flowing and nothing re-lists) freezes every read through api-2 just
   before p-rep is migrated. kubelet-1's next incarnation lists from
   api-2 and re-runs the pod — K8s-59848's shape, with the staleness
   manufactured by replication instead of an apiserver partition. *)
let rep_stale () =
  let config =
    {
      Kube.Cluster.default_config with
      Kube.Cluster.nodes = 2;
      replication =
        Some { Kube.Etcd.read = Replicated.Kv.Spread; read_fallback = `Stale };
    }
  in
  kube_case ~id:"REP-STALE"
    ~title:"stale follower serves a re-list: duplicate pod with no consumer-side fault"
    ~pattern:`Staleness ~config
    ~workload:
      (Kube.Workload.rolling_upgrade ~start:(sec 1) ~pod:"p-rep" ~from_node:"node-1"
         ~to_node:"node-2" ())
    ~horizon:(sec 8)
    ~matches:(function
      | Oracle.Duplicate_pod { pod; _ } -> String.equal pod "p-rep" | _ -> false)
    ~sieve_strategy:
      (Strategy.Combo
         [
           Strategy.Partition_window { a = "etcd-2"; b = "etcd-1"; from = ms 2_800; until = sec 8 };
           Strategy.Partition_window { a = "etcd-2"; b = "etcd-3"; from = ms 2_800; until = sec 8 };
           Strategy.Crash_restart { victim = "kubelet-1"; at = ms 3_600; downtime = ms 150 };
         ])
    ~fixed_config:(leader_reads config)

(* REP-CHURN — leader churn mid-watch (time travel). The leader
   crashes across the migration: the majority elects a successor and
   commits the writes, but api-1 (pinned to the dead leader,
   [`Reject]) keeps serving its frozen cache. kubelet-2's next
   incarnation lands on the fresh api-2 and starts the new pod while
   kubelet-1, watching frozen api-1, never hears the deletion. *)
let rep_churn () =
  let config =
    {
      Kube.Cluster.default_config with
      Kube.Cluster.nodes = 2;
      replication =
        Some { Kube.Etcd.read = Replicated.Kv.Spread; read_fallback = `Reject };
    }
  in
  kube_case ~id:"REP-CHURN"
    ~title:"leader churn mid-watch: consumers split across old and new history"
    ~pattern:`Time_travel ~config
    ~workload:
      (Kube.Workload.rolling_upgrade ~start:(sec 1) ~pod:"q-rep" ~from_node:"node-1"
         ~to_node:"node-2" ())
    ~horizon:(sec 8)
    ~matches:(function
      | Oracle.Duplicate_pod { pod; _ } -> String.equal pod "q-rep" | _ -> false)
    ~sieve_strategy:
      (Strategy.Combo
         [
           Strategy.Crash_restart { victim = "etcd-1"; at = ms 2_900; downtime = ms 3_600 };
           Strategy.Crash_restart { victim = "kubelet-2"; at = ms 3_500; downtime = ms 150 };
         ])
    ~fixed_config:(leader_reads config)

(* REP-MINORITY — minority-partition reads. Every read is pinned to
   follower etcd-3; isolating it from both peers right after the
   ReplicaSet is created leaves the whole control plane reconciling
   against a frozen minority view. The controller never observes its own
   creations and over-provisions without bound — EXT-RS's shape with the
   lag manufactured by a minority partition. *)
let rep_minority () =
  let config =
    {
      Kube.Cluster.default_config with
      Kube.Cluster.with_replicaset = true;
      replication =
        Some
          { Kube.Etcd.read = Replicated.Kv.Follower "etcd-3"; read_fallback = `Stale };
    }
  in
  kube_case ~id:"REP-MINORITY"
    ~title:"minority-partition reads: controller reconciles against a frozen follower"
    ~pattern:`Staleness ~config
    ~workload:(Kube.Workload.replicaset_scale ~start:(sec 1) ~rs:"mweb" ~steps:[ (0, 3) ] ())
    ~horizon:(sec 7)
    ~matches:(function
      | Oracle.Replica_surplus { rs; _ } -> String.equal rs "mweb" | _ -> false)
    ~sieve_strategy:
      (Strategy.Combo
         [
           Strategy.Partition_window { a = "etcd-3"; b = "etcd-1"; from = ms 1_100; until = sec 7 };
           Strategy.Partition_window { a = "etcd-3"; b = "etcd-2"; from = ms 1_100; until = sec 7 };
         ])
    ~fixed_config:(leader_reads config)

(* REP-RECOVER — crash-recovery with a shorter log (time travel).
   Follower etcd-2 crashes before the migration; api-2's reads are
   rejected ([`Reject]) so its cache freezes, and kubelet-1's next
   incarnation re-lists the pre-migration world from it. When etcd-2
   restarts it replays the committed suffix it missed and the
   duplicate self-heals — the oracle must fire inside the recovery
   window. *)
let rep_recover () =
  let config =
    {
      Kube.Cluster.default_config with
      Kube.Cluster.nodes = 2;
      replication =
        Some { Kube.Etcd.read = Replicated.Kv.Spread; read_fallback = `Reject };
    }
  in
  kube_case ~id:"REP-RECOVER"
    ~title:"crash recovery with a shorter log: staleness window closed by catch-up"
    ~pattern:`Time_travel ~config
    ~workload:
      (Kube.Workload.rolling_upgrade ~start:(sec 1) ~pod:"r-rep" ~from_node:"node-1"
         ~to_node:"node-2" ())
    ~horizon:(sec 8)
    ~matches:(function
      | Oracle.Duplicate_pod { pod; _ } -> String.equal pod "r-rep" | _ -> false)
    ~sieve_strategy:
      (Strategy.Combo
         [
           Strategy.Crash_restart { victim = "etcd-2"; at = ms 2_800; downtime = ms 3_500 };
           Strategy.Crash_restart { victim = "kubelet-1"; at = ms 3_450; downtime = ms 150 };
         ])
    ~fixed_config:(leader_reads config)

let replicated () = [ rep_stale (); rep_churn (); rep_minority (); rep_recover () ]

(* ------------------------------------------------------------------ *)
(* HBase scenario family: the same three Section 4.2 anti-patterns,
   manufactured in the ZooKeeper substrate. Like the REP family, kept
   out of [all_with_extras] so the kube corpus journals stay
   byte-identical; the hunt reaches these through the [hbase] campaign
   and the CLI through [find]. *)

let clock_ticks ~from ~until ~period =
  let rec go at acc =
    if at > until then List.rev acc
    else
      go (at + period)
        (Hbaselike.Cluster.Put { at; key = "meta/clock"; value = string_of_int at } :: acc)
  in
  go from []

(* HB-ASSIGN — HBASE-3136's shape (staleness): region transitions act
   on state read from a follower's cache. rs-2 is decommissioned at
   2 s (registry rewritten at the leader, server shut down), but the
   registry update's replication to the follower is delayed past the
   horizon. The master's cheap follower reads keep showing rs-2
   registered, so its liveness guard calls every rs-2 region healthy
   and never reassigns — regions stay parked on a dead server while
   ground truth says they must move. The HBASE-3137 fix
   ([sync_before_cas]) forces a catch-up pull before each balance
   read, which bypasses the delayed stream. *)
let hb_assign () =
  let config = Hbaselike.Cluster.default_config in
  hbase_case ~id:"HB-ASSIGN"
    ~title:"regions parked on a dead server: master balances from a stale follower view"
    ~pattern:`Staleness ~config
    ~workload:[ Hbaselike.Cluster.Decommission { at = sec 2; server = "rs-2" } ]
    ~horizon:(sec 8)
    ~matches:(function Oracle.Region_stale_assign _ -> true | _ -> false)
    ~sieve_strategy:
      (Strategy.staleness ~src:"zk-leader" ~dst:"zk-follower" ~key_prefix:"rs/registry"
         ~from:(ms 1_800) ~until:(sec 8) ~extra:(sec 7) ())
    ~fixed_config:{ config with Hbaselike.Cluster.sync_before_cas = true }

(* HB-WATCH — the one-shot watch observability gap (§4.2.3). r1 moves to
   rs-1 at 2.0 s and on to rs-2 at 2.3 s. rs-1's notification for the
   first move is delayed 1.2 s; its watch registration was consumed at
   that commit, so the second move fires only rs-2's (re-armed) watch.
   When the late notification finally lands, buggy-era rs-1 adopts its
   payload — "r1 is yours" — and serves a region rs-2 also serves, for
   good: nothing else ever commits on the key. The fix ([rearm_then_read])
   re-arms first and adopts the arm reply's *current* value instead of
   the event payload, closing the fire-to-rearm gap. *)
let hb_watch () =
  let config = Hbaselike.Cluster.default_config in
  hbase_case ~id:"HB-WATCH"
    ~title:"region served twice: one-shot watch misses the move between fire and re-arm"
    ~pattern:`Obs_gap ~config
    ~workload:
      [
        Hbaselike.Cluster.Move_region { at = sec 2; region = "r1"; to_ = "rs-1" };
        Hbaselike.Cluster.Move_region { at = ms 2_300; region = "r1"; to_ = "rs-2" };
      ]
    ~horizon:(sec 8)
    ~matches:(function
      | Oracle.Region_double_serve { region; _ } -> String.equal region "r1" | _ -> false)
    ~sieve_strategy:
      (Strategy.staleness ~src:"zk-leader" ~dst:"rs-1" ~key_prefix:"region/r1" ~from:(ms 1_900)
         ~until:(ms 2_200) ~extra:(ms 1_200) ())
    ~fixed_config:{ config with Hbaselike.Cluster.rearm_then_read = true }

(* HB-FOLLOWER — follower-local revision time travel. Metadata churn
   (clock ticks) plus a bounded leader log: while the follower is cut
   off (replication delayed AND catch-up pulls failing through the
   partition), the leader compacts past its frontier, so the first pull
   after healing forces a full-state resync. The snapshot compresses the
   missed duplicate-key writes into single puts, knocking the replica's
   local revision numbering permanently behind the leader's. A region
   moved *after* the resync then carries a drifted mod-revision: when
   rs-2 is decommissioned, the master sees the dead server fine (sync
   reads), but every repair CAS sends the follower's revision and fails
   at the leader, forever. The fix ([follower_leader_revs]) serves
   leader revisions from the replicated side table. *)
let hb_follower () =
  let config =
    {
      Hbaselike.Cluster.default_config with
      Hbaselike.Cluster.sync_before_cas = true;
      compaction_window = Some 12;
    }
  in
  hbase_case ~id:"HB-FOLLOWER"
    ~title:"repair CAS wedged: post-compaction resync drifts follower revisions"
    ~pattern:`Time_travel ~config
    ~workload:
      (clock_ticks ~from:(ms 200) ~until:(sec 8) ~period:(ms 100)
      @ [
          Hbaselike.Cluster.Move_region { at = sec 4; region = "r2"; to_ = "rs-2" };
          Hbaselike.Cluster.Decommission { at = sec 5; server = "rs-2" };
        ])
    ~horizon:(sec 8)
    ~matches:(function Oracle.Region_cas_wedged _ -> true | _ -> false)
    ~sieve_strategy:
      (Strategy.Combo
         [
           Strategy.staleness ~src:"zk-leader" ~dst:"zk-follower" ~from:(ms 800)
             ~until:(ms 3_400) ~extra:(ms 2_800) ();
           Strategy.Partition_window
             { a = "zk-leader"; b = "zk-follower"; from = ms 800; until = ms 3_400 };
         ])
    ~fixed_config:{ config with Hbaselike.Cluster.follower_leader_revs = true }

let hbase () = [ hb_assign (); hb_watch (); hb_follower () ]

let find id =
  let wanted = String.lowercase_ascii id in
  List.find_opt
    (fun case -> String.equal (String.lowercase_ascii case.id) wanted)
    (all_with_extras () @ replicated () @ hbase ())
