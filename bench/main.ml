(* Benchmark & experiment harness.

   One entry per paper artifact (see DESIGN.md's experiment index):
     fig1       architecture / cache topology with live revision lags
     fig2       the reproduced Kubernetes-59848 walkthrough
     fig3a      staleness divergence series
     fig3b      time-travel series (view revision moves backwards)
     fig3c      observability gaps (cancelled events, compacted windows)
     bugs       Section 7 results: the five-bug reproduction matrix
     baselines  Sieve planner vs CrashTuner / CoFI / random fault injection
     epochs     Section 6.2: epoch-bounded delivery trade-off
     perf       Section 4.1: cache offload + the HBase-3136/3137 trade-off
     lint       static-analysis cost: source lint + hazard-graph build
     store      store-tier hot path vs naive list/filter; BENCH_store.json
     micro      Bechamel micro-benchmarks of the substrate

   `dune exec bench/main.exe` runs everything; pass experiment names to
   run a subset. *)

let sec n = n * 1_000_000
let ms n = n * 1_000

let pct num den = if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

(* ------------------------------------------------------------------ *)
(* FIG1: architecture.                                                *)

let fig1 () =
  Sieve.Report.section "FIG1 — architecture: etcd -> apiservers -> components (cached views)";
  let cluster = Kube.Cluster.create () in
  Kube.Cluster.start cluster;
  Kube.Workload.schedule cluster (Kube.Workload.pod_churn ~n:4 ());
  Kube.Workload.schedule cluster
    (Kube.Workload.cassandra_scale ~dc:"cass" ~steps:[ (0, 2) ] ());
  Kube.Cluster.run cluster ~until:(sec 4);
  let truth_rev = Kube.Cluster.truth_rev cluster in
  Printf.printf "\ncommitted history H at etcd: %d events; %d live objects in S\n" truth_rev
    (History.State.cardinal (Kube.Cluster.truth cluster));
  Sieve.Report.subsection "apiserver caches (S' updated by etcd watch streams)";
  Sieve.Report.table ~header:[ "apiserver"; "cache rev"; "lag"; "subscribers" ]
    (List.map
       (fun api ->
         [
           Kube.Apiserver.name api;
           string_of_int (Kube.Apiserver.rev api);
           string_of_int (truth_rev - Kube.Apiserver.rev api);
           string_of_int (Kube.Apiserver.subscriber_count api);
         ])
       (Kube.Cluster.apiservers cluster));
  Sieve.Report.subsection "components (informer caches fed by apiserver watches)";
  let component_rows =
    List.map
      (fun k ->
        let informer = Kube.Kubelet.informer k in
        [
          Kube.Kubelet.name k;
          "pods/";
          Kube.Informer.current_endpoint informer;
          string_of_int (Kube.Informer.rev informer);
          String.concat "," (Kube.Kubelet.running k);
        ])
      (Kube.Cluster.kubelets cluster)
    @ (let s = Kube.Cluster.scheduler cluster and v = Kube.Cluster.volume_controller cluster in
       [
         [
           "scheduler";
           "pods/ nodes/";
           Kube.Informer.current_endpoint (Kube.Scheduler.pods_informer s);
           string_of_int (Kube.Informer.rev (Kube.Scheduler.pods_informer s));
           Printf.sprintf "%d binds" (Kube.Scheduler.binds s);
         ];
         [
           "volumectl";
           "pods/ pvcs/";
           Kube.Informer.current_endpoint (Kube.Volume_controller.pods_informer v);
           string_of_int (Kube.Informer.rev (Kube.Volume_controller.pods_informer v));
           Printf.sprintf "%d releases" (Kube.Volume_controller.releases v);
         ];
       ])
    @
    match Kube.Cluster.operator cluster with
    | Some o ->
        [
          [
            "cassop";
            "cassdcs/ pods/ pvcs/";
            Kube.Informer.current_endpoint (Kube.Cassandra_operator.pods_informer o);
            string_of_int (Kube.Informer.rev (Kube.Cassandra_operator.pods_informer o));
            Printf.sprintf "%d members created" (Kube.Cassandra_operator.member_creates o);
          ];
        ]
    | None -> []
  in
  Sieve.Report.table ~header:[ "component"; "watches"; "upstream"; "view rev"; "state" ]
    component_rows;
  Printf.printf
    "\nEvery component below etcd operates on a partial history H' of H;\n\
     in steady state the lags above are transient (bounded by stream latency).\n"

(* ------------------------------------------------------------------ *)
(* FIG2: Kubernetes-59848 walkthrough.                                *)

let fig2 () =
  Sieve.Report.section "FIG2 — Kubernetes-59848 reproduced (time travel after kubelet restart)";
  let case = Sieve.Bugs.k8s_59848 () in
  Printf.printf "\nstrategy: %s\n" (Sieve.Strategy.describe case.Sieve.Bugs.sieve_strategy);
  let outcome = Sieve.Runner.run_test (Sieve.Bugs.test_of_case case) in
  let interesting = [ "workload.step"; "kubelet.run"; "kubelet.stop"; "node.crash";
                      "node.restart"; "net.partition"; "informer.list"; "oracle.violation" ] in
  Printf.printf "\n";
  List.iter
    (fun e ->
      if List.mem e.Dsim.Trace.kind interesting then
        Printf.printf "  [%7.3f s] %-10s %-18s %s\n"
          (float_of_int e.Dsim.Trace.time /. 1e6)
          e.Dsim.Trace.actor e.Dsim.Trace.kind e.Dsim.Trace.detail)
    (Dsim.Trace.entries (Kube.Cluster.trace (Sieve.Runner.kube_cluster outcome)));
  (match outcome.Sieve.Runner.violations with
  | (time, v) :: _ ->
      Printf.printf "\n=> safety violated at %.3f s: %s\n" (float_of_int time /. 1e6)
        (Sieve.Oracle.describe v)
  | [] -> Printf.printf "\n=> (no violation — unexpected)\n");
  List.iter
    (fun k ->
      Printf.printf "   %s finally running: [%s]\n" (Kube.Kubelet.name k)
        (String.concat ", " (Kube.Kubelet.running k)))
    (Kube.Cluster.kubelets (Sieve.Runner.kube_cluster outcome))

(* ------------------------------------------------------------------ *)
(* FIG3a: staleness.                                                  *)

let fig3a () =
  Sieve.Report.section "FIG3a — staleness: (H', S') at api-2 lags (H, S) during a partition";
  let cluster = Kube.Cluster.create () in
  Kube.Cluster.start cluster;
  Kube.Workload.schedule cluster (Kube.Workload.pod_churn ~n:8 ~spacing:(ms 500) ());
  Sieve.Strategy.apply cluster
    (Sieve.Strategy.Partition_window { a = "etcd"; b = "api-2"; from = sec 2; until = ms 4_500 });
  let divergence = History.Divergence.create () in
  let api_2 = List.nth (Kube.Cluster.apiservers cluster) 1 in
  Dsim.Engine.every (Kube.Cluster.engine cluster) ~period:(ms 250) (fun () ->
      History.Divergence.record divergence
        ~time:(Dsim.Engine.now (Kube.Cluster.engine cluster))
        ~truth_rev:(Kube.Cluster.truth_rev cluster) ~view_rev:(Kube.Apiserver.rev api_2);
      true);
  Kube.Cluster.run cluster ~until:(sec 7);
  Printf.printf "\npartition etcd <-/-> api-2 during [2.0 s, 4.5 s]\n\n";
  Format.printf "%a" History.Divergence.pp_series divergence;
  Sieve.Report.kv
    [
      ("max lag (revisions)", string_of_int (History.Divergence.max_lag divergence));
      ("mean lag", Printf.sprintf "%.2f" (History.Divergence.mean_lag divergence));
      ( "fraction of samples stale",
        Printf.sprintf "%.0f%%" (100.0 *. History.Divergence.stale_fraction divergence) );
    ];
  Printf.printf
    "\nExpected shape: lag 0 before the cut, growing during it, snapping back\n\
     to ~0 after the heal + watchdog re-list.\n"

(* ------------------------------------------------------------------ *)
(* FIG3b: time travel.                                                *)

let fig3b () =
  Sieve.Report.section "FIG3b — time travel: kubelet-1's view revision moves backwards";
  let case = Sieve.Bugs.k8s_59848 () in
  let cluster = Kube.Cluster.create ~config:(Sieve.Bugs.kube_config case) () in
  let divergence = History.Divergence.create () in
  Sieve.Strategy.apply cluster case.Sieve.Bugs.sieve_strategy;
  Kube.Cluster.start cluster;
  Kube.Workload.schedule cluster (Sieve.Bugs.kube_workload case);
  let kubelet_1 = List.hd (Kube.Cluster.kubelets cluster) in
  Dsim.Engine.every (Kube.Cluster.engine cluster) ~period:(ms 250) (fun () ->
      History.Divergence.record divergence
        ~time:(Dsim.Engine.now (Kube.Cluster.engine cluster))
        ~truth_rev:(Kube.Cluster.truth_rev cluster)
        ~view_rev:(Kube.Informer.rev (Kube.Kubelet.informer kubelet_1));
      true);
  Kube.Cluster.run cluster ~until:(sec 6);
  Printf.printf "\n(kubelet-1 crashes at 3.6 s and re-lists from api-2, frozen since 2.8 s)\n\n";
  Format.printf "%a" History.Divergence.pp_series divergence;
  match History.Divergence.time_travel_points divergence with
  | [] -> Printf.printf "\n=> no backwards movement (unexpected)\n"
  | points ->
      List.iter
        (fun p ->
          Printf.printf "\n=> TIME TRAVEL at %.3f s: view revision fell to %d (truth at %d)\n"
            (float_of_int p.History.Divergence.time /. 1e6)
            p.History.Divergence.view_rev p.History.Divergence.truth_rev)
        points

(* ------------------------------------------------------------------ *)
(* FIG3c: observability gaps.                                         *)

let fig3c () =
  Sieve.Report.section "FIG3c — observability gaps";
  Sieve.Report.subsection "(i) events cancelled in S': sparse reads cannot recover H";
  let cluster = Kube.Cluster.create () in
  let events = ref [] in
  Etcdlike.Commits.on_commit (Kube.Etcd.commits (Kube.Cluster.etcd cluster)) (fun e ->
      events := e :: !events);
  Kube.Cluster.start cluster;
  Kube.Workload.schedule cluster (Kube.Workload.pod_churn ~n:5 ~lifetime:(sec 1) ());
  Kube.Cluster.run cluster ~until:(sec 8);
  let history = List.rev !events in
  let shadowed = History.Partial.unobservable_in_state history in
  Printf.printf
    "history H has %d events; %d of them (%.0f%%) are invisible in the final state S\n\
     (a later event on the same key shadows them — every churn pod's\n\
     create/bind/run/mark/delete sequence collapses to nothing).\n"
    (List.length history) (List.length shadowed)
    (pct (List.length shadowed) (List.length history));
  Sieve.Report.subsection "(ii) rolling watch windows: resuming too late fails";
  let rows =
    List.map
      (fun window ->
        let kv = Etcdlike.Kv.create () in
        (* 200 committed events; a subscriber disconnected after rev 40
           tries to resume. *)
        for i = 1 to 200 do
          ignore (Etcdlike.Kv.put kv (Printf.sprintf "k%d" (i mod 37)) "v");
          match window with Some w -> Etcdlike.Kv.compact_keep_last kv w | None -> ()
        done;
        let outcome =
          match Etcdlike.Kv.since kv ~rev:40 with
          | Ok events -> Printf.sprintf "resume ok (%d events replayed)" (List.length events)
          | Error (`Compacted rev) ->
              Printf.sprintf "ERR_COMPACTED (window starts at %d): re-list; gap permanent" rev
        in
        [
          (match window with Some w -> string_of_int w | None -> "unlimited");
          outcome;
        ])
      [ None; Some 180; Some 100; Some 20 ]
  in
  Sieve.Report.table ~header:[ "retained window"; "watch resume from rev 40" ] rows;
  Sieve.Report.subsection "(iii) a dropped notification is undetectable while bookmarks flow";
  let case = Sieve.Bugs.k8s_56261 () in
  let outcome = Sieve.Runner.run_test (Sieve.Bugs.test_of_case case) in
  let trace = Kube.Cluster.trace (Sieve.Runner.kube_cluster outcome) in
  Printf.printf
    "dropped 1 node-deletion event to the scheduler: %d stream deaths detected,\n\
     %d total (re-)lists — the gap never heals; violation: %s\n"
    (List.length (Dsim.Trace.find_all trace ~kind:"informer.stream-dead"))
    (List.length (Dsim.Trace.find_all trace ~kind:"informer.list"))
    (match outcome.Sieve.Runner.violations with
    | (_, v) :: _ -> Sieve.Oracle.describe v
    | [] -> "(none)")

(* ------------------------------------------------------------------ *)
(* T-BUGS: the Section 7 matrix.                                      *)

let pattern_name = function
  | `Staleness -> "staleness"
  | `Obs_gap -> "observability gap"
  | `Time_travel -> "time travel"

let bugs () =
  Sieve.Report.section "T-BUGS — Section 7 results: 2 known + 3 new bugs, reproduced";
  let rows cases =
    List.map
      (fun case ->
        let reference = Sieve.Runner.run_test (Sieve.Bugs.reference_test_of_case case) in
        let sieve = Sieve.Runner.run_test (Sieve.Bugs.test_of_case case) in
        let fixed = Sieve.Runner.run_test (Sieve.Bugs.fixed_test_of_case case) in
        let hit (o : Sieve.Runner.outcome) =
          List.find_opt (fun (_, v) -> case.Sieve.Bugs.matches v) o.Sieve.Runner.violations
        in
        [
          case.Sieve.Bugs.id;
          pattern_name case.Sieve.Bugs.pattern;
          (if reference.Sieve.Runner.violations = [] then "clean" else "VIOLATION!");
          (match hit sieve with
          | Some (t, _) -> Printf.sprintf "yes @ %.1f s" (float_of_int t /. 1e6)
          | None -> "NO");
          (match hit fixed with None -> "closed" | Some _ -> "STILL OPEN");
        ])
      cases
  in
  Printf.printf "\n";
  Sieve.Report.table
    ~header:[ "bug"; "pattern (4.2)"; "unperturbed"; "Sieve reproduces"; "with fix" ]
    (rows (Sieve.Bugs.all ()));
  Sieve.Report.subsection
    "extension corpus (bugs in the extra controllers this reproduction adds)";
  Sieve.Report.table
    ~header:[ "bug"; "pattern (4.2)"; "unperturbed"; "Sieve reproduces"; "with fix" ]
    (rows (Sieve.Bugs.extras ()));
  Printf.printf "\nper-bug strategy:\n";
  List.iter
    (fun case ->
      Printf.printf "  %-10s %s\n" case.Sieve.Bugs.id
        (Sieve.Strategy.describe case.Sieve.Bugs.sieve_strategy))
    (Sieve.Bugs.all_with_extras ())

(* ------------------------------------------------------------------ *)
(* T-BASE: planner vs baseline testers.                               *)

let baselines () =
  Sieve.Report.section
    "T-BASE — tests-to-first-reproduction: partial-history planner vs prior heuristics";
  let random_budget = 400 in
  let rows =
    List.map
      (fun case ->
        let config = (Sieve.Bugs.kube_config case) in
        let horizon = case.Sieve.Bugs.horizon in
        let commits = Sieve.Runner.reference_commits (Sieve.Bugs.reference_test_of_case case) in
        let events =
          List.map
            (fun c -> (c.Sieve.Runner.time, c.Sieve.Runner.key, c.Sieve.Runner.op))
            commits
        in
        let components, apiservers = Sieve.Baselines.targets case.Sieve.Bugs.spec in
        let campaign strategies =
          let arr = Array.of_list strategies in
          let result =
            Sieve.Runner.run_campaign
              ~make_test:(fun i ->
                Sieve.Runner.base_test ~config ~workload:(Sieve.Bugs.kube_workload case) ~horizon arr.(i))
              ~candidates:(Array.length arr) ~target:case.Sieve.Bugs.matches ()
          in
          match result.Sieve.Runner.found with
          | Some _ -> string_of_int result.Sieve.Runner.tests_run
          | None -> Printf.sprintf "miss (%d)" result.Sieve.Runner.tests_run
        in
        [
          case.Sieve.Bugs.id;
          pattern_name case.Sieve.Bugs.pattern;
          campaign
            (List.map
               (fun p -> p.Sieve.Planner.strategy)
               (Sieve.Planner.candidates ~config ~events ~horizon ()));
          campaign
            (List.map
               (fun p -> p.Sieve.Planner.strategy)
               (Sieve.Planner.candidates_causal ~config ~commits ~horizon ()));
          campaign (Sieve.Baselines.crashtuner ~events ~components);
          campaign (Sieve.Baselines.cofi ~events ~components ~apiservers);
          campaign
            (Sieve.Baselines.random_faults ~seed:42L ~components ~apiservers ~horizon
               ~n:random_budget);
        ])
      (Sieve.Bugs.all_with_extras ())
  in
  Printf.printf "\n(all approaches share workloads and oracles; numbers are tests until the\n\
                 target bug first fires; 'miss (n)' = not found within n candidates)\n\n";
  Sieve.Report.table
    ~header:
      [ "bug"; "pattern"; "planner"; "planner+causal"; "CrashTuner-like"; "CoFI-like"; "random" ]
    rows;
  Printf.printf
    "\nExpected shape (paper sections 5-7): the partial-history planner finds every\n\
     bug; the crash-recovery heuristic finds none of them; the partition heuristic\n\
     finds only bugs whose buggy logic makes transient divergence permanent; random\n\
     needs many more tests where it succeeds at all.\n";
  (* Why: the perturbation-space cells each approach can even touch
     (measured on the K8s-56261 scenario's space). *)
  Sieve.Report.subsection
    "coverage of the (component x object x pattern) space per approach (56261 scenario)";
  let case = Sieve.Bugs.k8s_56261 () in
  let events = Sieve.Runner.reference_events (Sieve.Bugs.reference_test_of_case case) in
  let config = (Sieve.Bugs.kube_config case) in
  let components, apiservers = Sieve.Baselines.targets case.Sieve.Bugs.spec in
  let coverage_row name strategies =
    let c = Sieve.Coverage.create ~config ~events in
    List.iter (Sieve.Coverage.note c) strategies;
    let cell pattern =
      let _, covered, total =
        List.find (fun (p, _, _) -> p = pattern) (Sieve.Coverage.by_pattern c)
      in
      Printf.sprintf "%d/%d" covered total
    in
    [
      name;
      cell `Staleness;
      cell `Obs_gap;
      cell `Time_travel;
      Printf.sprintf "%.0f%%" (100.0 *. Sieve.Coverage.ratio c);
    ]
  in
  Sieve.Report.table
    ~header:[ "approach"; "staleness"; "obs-gap"; "time-travel"; "overall" ]
    [
      coverage_row "planner"
        (List.map (fun p -> p.Sieve.Planner.strategy)
           (Sieve.Planner.candidates ~config ~events ~horizon:case.Sieve.Bugs.horizon ()));
      coverage_row "CrashTuner-like" (Sieve.Baselines.crashtuner ~events ~components);
      coverage_row "CoFI-like" (Sieve.Baselines.cofi ~events ~components ~apiservers);
      coverage_row "random (400)"
        (Sieve.Baselines.random_faults ~seed:42L ~components ~apiservers
           ~horizon:case.Sieve.Bugs.horizon ~n:random_budget);
    ];
  Printf.printf
    "\nNo amount of crash or partition injection reaches an observability-gap\n\
     cell: those perturbations need event-level suppression, which is exactly\n\
     what the partial-history interceptor adds.\n"

(* ------------------------------------------------------------------ *)
(* T-YIELD: distinct bugs per test budget on one rich workload.       *)

let yield_curve () =
  Sieve.Report.section
    "T-YIELD — distinct bugs found per test budget (one combined workload)";
  let config =
    {
      Kube.Cluster.default_config with
      Kube.Cluster.with_replicaset = true;
      with_deployment = true;
    }
  in
  let horizon = sec 12 in
  let workload =
    Kube.Workload.pods_with_claims ~start:(sec 1) ~lifetime:(sec 2) ~n:2 ()
    @ Kube.Workload.cassandra_scale ~start:(ms 1_200) ~dc:"dc" ~steps:[ (0, 2); (ms 2_500, 3) ] ()
    @ Kube.Workload.node_churn ~start:(sec 2) ~node:"node-3" ~pods_after:3 ()
    @ Kube.Workload.deployment_rollout ~start:(ms 1_400) ~dep:"front" ~replicas:2
        ~generations:2 ~gap:(sec 4) ()
  in
  let reference = Sieve.Runner.base_test ~config ~workload ~horizon Sieve.Strategy.No_perturbation in
  let commits = Sieve.Runner.reference_commits reference in
  let events =
    List.map (fun c -> (c.Sieve.Runner.time, c.Sieve.Runner.key, c.Sieve.Runner.op)) commits
  in
  let components, apiservers = Sieve.Baselines.targets reference.Sieve.Runner.spec in
  let budgets = [ 50; 100; 200; 400 ] in
  let distinct_bugs strategies budget =
    let found = Hashtbl.create 8 in
    List.iteri
      (fun i strategy ->
        if i < budget then
          let outcome =
            Sieve.Runner.run_test (Sieve.Runner.base_test ~config ~workload ~horizon strategy)
          in
          List.iter
            (fun (_, v) -> Hashtbl.replace found (Sieve.Oracle.bug_id v) ())
            outcome.Sieve.Runner.violations)
      strategies;
    Hashtbl.length found
  in
  let row name strategies =
    name :: List.map (fun budget -> string_of_int (distinct_bugs strategies budget)) budgets
  in
  let rows =
    [
      row "planner+causal"
        (List.map (fun p -> p.Sieve.Planner.strategy)
           (Sieve.Planner.candidates_causal ~config ~commits ~horizon ()));
      row "planner"
        (List.map (fun p -> p.Sieve.Planner.strategy)
           (Sieve.Planner.candidates ~config ~events ~horizon ()));
      row "CrashTuner-like" (Sieve.Baselines.crashtuner ~events ~components);
      row "CoFI-like" (Sieve.Baselines.cofi ~events ~components ~apiservers);
      row "random"
        (Sieve.Baselines.random_faults ~seed:42L ~components ~apiservers ~horizon ~n:400);
    ]
  in
  Printf.printf
    "\n(distinct bug classes — by oracle id — exposed within the first N tests;\n\
     a claims + Cassandra + node-churn + rollout workload on one cluster)\n\n";
  Sieve.Report.table
    ~header:("approach" :: List.map (fun b -> Printf.sprintf "N=%d" b) budgets)
    rows;
  Printf.printf
    "\nExpected shape: the planner's yield dominates at every budget and the\n\
     causal ranking pulls discoveries earlier; fault-injection baselines\n\
     plateau at the classes reachable without event-level suppression.\n"

(* ------------------------------------------------------------------ *)
(* T-EPOCH: the Section 6.2 programming model.                        *)

let epochs () =
  Sieve.Report.section "T-EPOCH — epoch-bounded delivery: anomalies vs coordination cost";
  let rng = Dsim.Rng.create 2024L in
  let n = 2_000 in
  (* Commit times 1 ms apart; per-event delivery latency is exponential,
     so notifications arrive out of order: the raw consumer observes
     history out of order, the epoch consumer never does. *)
  let commit_time rev = rev * 1_000 in
  let arrival =
    Array.init (n + 1) (fun rev ->
        if rev = 0 then 0
        else commit_time rev + int_of_float (Dsim.Rng.exponential rng ~mean:20_000.0))
  in
  let order = List.init n (fun i -> i + 1) in
  let by_arrival = List.sort (fun a b -> compare arrival.(a) arrival.(b)) order in
  let raw_anomalies = ref 0 and raw_frontier = ref 0 in
  List.iter
    (fun rev -> if rev < !raw_frontier then incr raw_anomalies else raw_frontier := rev)
    by_arrival;
  let raw_latency =
    List.fold_left (fun acc rev -> acc + (arrival.(rev) - commit_time rev)) 0 order
  in
  let rows =
    [
      "raw (no epochs)";
      string_of_int !raw_anomalies;
      Printf.sprintf "%.1f" (float_of_int raw_latency /. float_of_int n /. 1000.0);
    ]
    :: List.map
         (fun g ->
           let deliveries = ref [] in
           let batcher =
             History.Epoch.create ~granularity:g ~deliver:(fun batch ->
                 deliveries := batch :: !deliveries)
           in
           let clock = ref 0 in
           let latency = ref 0 and delivered = ref 0 and anomalies = ref 0 and frontier = ref 0 in
           List.iter
             (fun rev ->
               clock := arrival.(rev);
               History.Epoch.offer batcher
                 (History.Event.make ~rev ~key:"k" ~op:History.Event.Update (Some rev));
               List.iter
                 (fun batch ->
                   List.iter
                     (fun (e : int History.Event.t) ->
                       let rev = e.History.Event.rev in
                       if rev < !frontier then incr anomalies else frontier := rev;
                       latency := !latency + (!clock - commit_time rev);
                       incr delivered)
                     batch)
                 (List.rev !deliveries);
               deliveries := [])
             by_arrival;
           [
             Printf.sprintf "epochs g=%d" g;
             string_of_int !anomalies;
             Printf.sprintf "%.1f"
               (float_of_int !latency /. float_of_int (max 1 !delivered) /. 1000.0);
           ])
         [ 1; 2; 5; 10; 25; 50 ]
  in
  Printf.printf "\n%d events, 1 ms apart; delivery latency ~ Exp(20 ms) per event\n\n" n;
  Sieve.Report.table ~header:[ "consumer"; "order anomalies observed"; "mean latency (ms)" ] rows;
  Printf.printf
    "\nExpected shape: the raw consumer observes many out-of-order (time-traveling)\n\
     events; epoch delivery eliminates them at a latency cost that grows with the\n\
     granularity — the coordination cost the paper predicts for bounding partial\n\
     histories.\n"

(* ------------------------------------------------------------------ *)
(* T-SEAL: the Section 6.2 epoch protocol, in vivo.                   *)

let seals () =
  Sieve.Report.section
    "T-SEAL — epoch seals in vivo: which corpus bugs the 6.2 protocol closes";
  let rows =
    List.map
      (fun case ->
        let run config =
          Sieve.Runner.run_test
            (Sieve.Runner.base_test ~config ~workload:(Sieve.Bugs.kube_workload case)
               ~horizon:case.Sieve.Bugs.horizon case.Sieve.Bugs.sieve_strategy)
        in
        let hit (o : Sieve.Runner.outcome) =
          List.exists (fun (_, v) -> case.Sieve.Bugs.matches v) o.Sieve.Runner.violations
        in
        let plain = run (Sieve.Bugs.kube_config case) in
        let sealed =
          run { (Sieve.Bugs.kube_config case) with Kube.Cluster.api_epoch_seal = Some 5 }
        in
        [
          case.Sieve.Bugs.id;
          pattern_name case.Sieve.Bugs.pattern;
          (if hit plain then "reproduced" else "clean");
          (if hit sealed then "still reproduced" else "CLOSED");
        ])
      (Sieve.Bugs.all_with_extras ())
  in
  (* CA-400/402 are staleness-pattern bugs whose corpus strategies use the
     drop *vector*; show that the pure-delay vector for the same bug
     survives seals. *)
  let delay_variant =
    let case = Sieve.Bugs.ca_402 () in
    let strategy =
      Sieve.Strategy.staleness ~dst:"cassop" ~key_prefix:Kube.Resource.pods_prefix
        ~from:(sec 3) ~until:(sec 5) ~extra:(ms 1_200) ()
    in
    let run config =
      Sieve.Runner.run_test
        (Sieve.Runner.base_test ~config ~workload:(Sieve.Bugs.kube_workload case)
           ~horizon:case.Sieve.Bugs.horizon strategy)
    in
    let hit (o : Sieve.Runner.outcome) =
      List.exists (fun (_, v) -> case.Sieve.Bugs.matches v) o.Sieve.Runner.violations
    in
    let plain = run (Sieve.Bugs.kube_config case) in
    let sealed = run { (Sieve.Bugs.kube_config case) with Kube.Cluster.api_epoch_seal = Some 5 } in
    [
      "CA-402 (delay vector)";
      "staleness";
      (if hit plain then "reproduced" else "clean");
      (if hit sealed then "still reproduced" else "CLOSED");
    ]
  in
  Printf.printf
    "\n(apiserver watch streams seal every 5 revisions and at every bookmark tick;\n\
     a consumer whose event count disagrees with a seal re-lists immediately)\n\n";
  Sieve.Report.table ~header:[ "bug"; "pattern"; "without seals"; "with seals" ]
    (rows @ [ delay_variant ]);
  Printf.printf
    "\nExpected shape: every silent-loss vector closes — a dropped notification\n\
     becomes a detected integrity failure healed within one epoch. Freshness\n\
     failures rightly survive: seals prove *completeness*, not *recency* — a\n\
     frozen apiserver seals its own stale stream consistently (59848), FIFO\n\
     delays arrive before their seal (EXT-RS and CA-402's delay vector). Those\n\
     need monotonicity/quorum medicine — the division of labor section 6.2\n\
     anticipates when it says epochs eliminate staleness and gaps only\n\
     *within* an epoch.\n"

(* ------------------------------------------------------------------ *)
(* T-PERF: why caches exist, and what the HBase fix costs.            *)

(* RPCs the etcd node has served so far: the store load. *)
let etcd_rpcs cluster = Dsim.Metrics.count (Kube.Cluster.metrics cluster) "rpc.etcd"

let perf_read_offload () =
  Sieve.Report.subsection "(a) read path: apiserver caches shield etcd (section 4.1)";
  let run_mode ~quorum =
    let cluster = Kube.Cluster.create () in
    Kube.Cluster.start cluster;
    Kube.Workload.schedule cluster (Kube.Workload.pod_churn ~n:4 ());
    let engine = Kube.Cluster.engine cluster in
    let net = Kube.Cluster.net cluster in
    let latencies = ref [] and reads = ref 0 in
    let readers = 8 in
    for r = 1 to readers do
      let name = Printf.sprintf "reader-%d" r in
      Dsim.Network.join net name;
      let reader = Dsim.Network.peer net name in
      let api = Dsim.Network.peer net (Printf.sprintf "api-%d" (1 + (r mod 2))) in
      Dsim.Engine.every engine ~period:(ms 20) (fun () ->
          let t0 = Dsim.Engine.now engine in
          Kube.Messages.Store.call ~src:reader ~dst:api
            (Kube.Messages.List { prefix = "pods/"; quorum })
            (fun _ ->
              incr reads;
              latencies := float_of_int (Dsim.Engine.now engine - t0) :: !latencies);
          true)
    done;
    let etcd_before = etcd_rpcs cluster in
    Kube.Cluster.run cluster ~until:(sec 6);
    let etcd_load = etcd_rpcs cluster - etcd_before in
    let mean =
      List.fold_left ( +. ) 0.0 !latencies /. float_of_int (max 1 (List.length !latencies))
    in
    (!reads, etcd_load, mean /. 1000.0)
  in
  let cached_reads, cached_etcd, cached_lat = run_mode ~quorum:false in
  let quorum_reads, quorum_etcd, quorum_lat = run_mode ~quorum:true in
  Sieve.Report.table
    ~header:[ "read mode"; "reads served"; "etcd RPCs"; "mean latency (ms)" ]
    [
      [ "apiserver cache (watch-fed)"; string_of_int cached_reads; string_of_int cached_etcd;
        Printf.sprintf "%.2f" cached_lat ];
      [ "quorum (forwarded to etcd)"; string_of_int quorum_reads; string_of_int quorum_etcd;
        Printf.sprintf "%.2f" quorum_lat ];
    ];
  Printf.printf
    "\nExpected shape: cached reads keep etcd load near zero (watch stream only)\n\
     and halve latency; quorum reads put every read on etcd — the bottleneck\n\
     pressure that makes partial histories unavoidable.\n"

let perf_hbase_cas () =
  Sieve.Report.subsection "(b) HBase-3136/3137: CAS on cached state vs sync-before-CAS";
  let run_mode ~quorum_read =
    let cluster = Kube.Cluster.create () in
    (* Make api-1's view of the contended key persistently ~40 ms stale,
       as the HBase report describes for the cached ZooKeeper state. *)
    Sieve.Strategy.apply cluster
      (Sieve.Strategy.Delay_stream
         {
           src = Some "etcd";
           dst = Some "api-1";
           matching = Sieve.Strategy.match_event ~key_prefix:"pods/region" ();
           from = 0;
           until = sec 30;
           extra = ms 40;
         });
    Kube.Cluster.start cluster;
    let engine = Kube.Cluster.engine cluster in
    let net = Kube.Cluster.net cluster in
    (* Background writer: region state changes every 120 ms. *)
    Dsim.Engine.every engine ~period:(ms 120) (fun () ->
        Kube.Workload.create_pod ~node:"node-1" cluster "region";
        Kube.Workload.delete_pod_now cluster "region";
        true);
    Dsim.Network.join net "cas-client";
    let client = Dsim.Network.peer net "cas-client" and api = Dsim.Network.peer net "api-1" in
    let call request k = Kube.Messages.Store.call ~src:client ~dst:api request k in
    let attempts = ref 0 and successes = ref 0 in
    Dsim.Engine.every engine ~period:(ms 60) (fun () ->
        call (Kube.Messages.Get { key = "pods/region"; quorum = quorum_read }) (function
          | Ok (Ok (Some (_, mod_rev))) ->
              incr attempts;
              let txn =
                Etcdlike.Txn.put_if_unchanged ~key:"pods/region" ~expected_mod_rev:mod_rev
                  (Kube.Resource.make_pod ~node:"node-1" "region")
              in
              call (Kube.Messages.Txn { txn; origin = "cas-client"; lease = None }) (function
                | Ok (Ok { succeeded; _ }) -> if succeeded then incr successes
                | Ok (Error `Unavailable) | Error _ -> ())
          | Ok (Ok None | Error `Unavailable) | Error _ -> ());
        true);
    let etcd_before = etcd_rpcs cluster in
    Kube.Cluster.run cluster ~until:(sec 10);
    (!attempts, !successes, etcd_rpcs cluster - etcd_before)
  in
  let c_att, c_succ, c_load = run_mode ~quorum_read:false in
  let q_att, q_succ, q_load = run_mode ~quorum_read:true in
  Sieve.Report.table
    ~header:[ "CAS read path"; "attempts"; "successes"; "success rate"; "etcd RPCs" ]
    [
      [ "cached read (HBASE-3136)"; string_of_int c_att; string_of_int c_succ;
        Printf.sprintf "%.0f%%" (pct c_succ c_att); string_of_int c_load ];
      [ "sync-before-CAS (HBASE-3137)"; string_of_int q_att; string_of_int q_succ;
        Printf.sprintf "%.0f%%" (pct q_succ q_att); string_of_int q_load ];
    ];
  Printf.printf
    "\nExpected shape: CAS against the stale cache mostly fails (the 3136 bug);\n\
     forcing a sync first restores success at the cost of extra etcd load (the\n\
     3137 regression) — staleness cannot be eliminated for free.\n"

let perf () =
  Sieve.Report.section "T-PERF — the cache/consistency trade-off (sections 4.1, 4.2.1)";
  perf_read_offload ();
  perf_hbase_cas ()

(* ------------------------------------------------------------------ *)
(* ROBUST: reproductions are not knife-edge.                          *)

let robustness () =
  Sieve.Report.section
    "ROBUST — reproductions across seeds and latency distributions";
  let latency_models =
    [
      ("uniform 0.5-2 ms (default)", None);
      ("uniform 2-8 ms", Some (Dsim.Network.Uniform { min = 2_000; max = 8_000 }));
      ("exponential mean 1.5 ms", Some (Dsim.Network.Exponential { mean = 1_500.0; floor = 200 }));
    ]
  in
  let seeds = 10 in
  let rows =
    List.map
      (fun case ->
        case.Sieve.Bugs.id
        :: List.map
             (fun (_, model) ->
               let hits = ref 0 in
               for seed = 1 to seeds do
                 let config =
                   { (Sieve.Bugs.kube_config case) with Kube.Cluster.seed = Int64.of_int seed }
                 in
                 let cluster = Kube.Cluster.create ~config () in
                 (match model with
                 | Some m -> Dsim.Network.set_latency_model (Kube.Cluster.net cluster) m
                 | None -> ());
                 let oracle = Sieve.Oracle.attach cluster in
                 Sieve.Strategy.apply cluster case.Sieve.Bugs.sieve_strategy;
                 Kube.Cluster.start cluster;
                 Kube.Workload.schedule cluster (Sieve.Bugs.kube_workload case);
                 Kube.Cluster.run cluster ~until:case.Sieve.Bugs.horizon;
                 if
                   List.exists (fun (_, v) -> case.Sieve.Bugs.matches v)
                     (Sieve.Oracle.violations oracle)
                 then incr hits
               done;
               Printf.sprintf "%d/%d" !hits seeds)
             latency_models)
      (Sieve.Bugs.all_with_extras ())
  in
  Printf.printf "\n(each cell: seeds on which the corpus strategy reproduces the bug)\n\n";
  Sieve.Report.table ~header:("bug" :: List.map fst latency_models) rows;
  Printf.printf
    "\nExpected shape: near-total reproduction everywhere — the strategies aim at\n\
     structural windows (hundreds of milliseconds), not lucky interleavings, so\n\
     neither the seed nor the latency distribution matters much.\n"

(* ------------------------------------------------------------------ *)
(* SCALE: cluster growth and the cache architecture (section 4.1).    *)

let scale () =
  Sieve.Report.section
    "SCALE — why the architecture looks like this: growth vs store load";
  let run ~nodes =
    let config =
      { Kube.Cluster.default_config with Kube.Cluster.nodes; with_operator = false }
    in
    let cluster = Kube.Cluster.create ~config () in
    Kube.Cluster.start cluster;
    Kube.Workload.schedule cluster
      (Kube.Workload.pod_churn ~start:(sec 1) ~spacing:(ms 50) ~lifetime:(sec 3)
         ~n:(nodes * 2) ());
    let wall_start = Unix.gettimeofday () in
    Kube.Cluster.run cluster ~until:(sec 10);
    let wall = Unix.gettimeofday () -. wall_start in
    let lags =
      List.map
        (fun k ->
          Kube.Cluster.truth_rev cluster - Kube.Informer.rev (Kube.Kubelet.informer k))
        (Kube.Cluster.kubelets cluster)
    in
    let max_lag = List.fold_left max 0 lags in
    ( Kube.Cluster.truth_rev cluster,
      etcd_rpcs cluster,
      max_lag,
      wall )
  in
  let rows =
    List.map
      (fun nodes ->
        let rev, etcd_rpcs, max_lag, wall = run ~nodes in
        [
          string_of_int nodes;
          string_of_int (nodes * 2);
          string_of_int rev;
          string_of_int etcd_rpcs;
          string_of_int max_lag;
          Printf.sprintf "%.2f s" wall;
        ])
      [ 5; 15; 40 ]
  in
  Sieve.Report.table
    ~header:
      [ "nodes"; "pods churned"; "events in H"; "etcd RPCs"; "max view lag"; "wall time" ]
    rows;
  Printf.printf
    "\nExpected shape: the committed history grows with the workload, but etcd's\n\
     request count stays a small multiple of component count (writes + initial\n\
     lists) because every read is absorbed by the cache tiers — the design\n\
     pressure (section 4.1) that makes partial histories unavoidable. Views\n\
     stay in lockstep (lag ~0) in a calm cluster regardless of scale.\n"

(* ------------------------------------------------------------------ *)
(* HBASE: the same patterns in a second infrastructure.               *)

let hbase () =
  Sieve.Report.section
    "HBASE — generality: the same patterns in a ZooKeeper/HBase-style system";
  Sieve.Report.subsection
    "(a) HBASE-3136/3137 on the native system: CAS vs follower replication lag";
  let run ~lag ~sync =
    let engine = Dsim.Engine.create ~seed:13L () in
    let net = Dsim.Network.create engine in
    let zk = Hbaselike.Zk.create ~net ~replication_lag:lag () in
    let master =
      Hbaselike.Master.create ~net ~name:"master-1" ~zk
        ~regions:[ "r1"; "r2"; "r3"; "r4"; "r5"; "r6" ] ~sync_before_cas:sync ()
    in
    let region_servers =
      List.init 3 (fun i ->
          Hbaselike.Regionserver.create ~net ~name:(Printf.sprintf "rs-%d" (i + 1)) ~zk ())
    in
    Hbaselike.Master.start master;
    List.iter Hbaselike.Regionserver.start region_servers;
    Dsim.Engine.run ~until:(sec 6) engine;
    (Hbaselike.Master.transitions master, Hbaselike.Master.cas_failures master,
     Hbaselike.Zk.leader_ops zk)
  in
  let rows =
    List.concat_map
      (fun lag ->
        let bt, bf, bl = run ~lag ~sync:false in
        let ft, ff, fl = run ~lag ~sync:true in
        [
          [ Printf.sprintf "%d ms" (lag / 1000); "cached read (3136)"; string_of_int bt;
            string_of_int bf; string_of_int bl ];
          [ ""; "sync-before-CAS (3137)"; string_of_int ft; string_of_int ff;
            string_of_int fl ];
        ])
      [ ms 10; ms 100; ms 400 ]
  in
  Sieve.Report.table
    ~header:[ "replication lag"; "read path"; "transitions"; "CAS failures"; "leader ops" ]
    rows;
  Printf.printf
    "\nExpected shape: CAS failures grow with follower lag on the cached path and\n\
     stay near zero with sync-before-CAS — which pays for it in leader load.\n";
  Sieve.Report.subsection "(b) HBASE-5755: cached master location after failover";
  let run_5755 ~relookup =
    let engine = Dsim.Engine.create ~seed:13L () in
    let net = Dsim.Network.create engine in
    let zk = Hbaselike.Zk.create ~net () in
    let master =
      Hbaselike.Master.create ~net ~name:"master-1" ~zk ~regions:[ "r1"; "r2" ] ()
    in
    let rs =
      Hbaselike.Regionserver.create ~net ~name:"rs-1" ~zk ~relookup_on_failure:relookup ()
    in
    Hbaselike.Master.start master;
    Hbaselike.Regionserver.start rs;
    Dsim.Engine.run ~until:(sec 2) engine;
    Dsim.Network.crash net "master-1";
    let master2 =
      Hbaselike.Master.create ~net ~name:"master-2" ~zk ~regions:[ "r1"; "r2" ] ()
    in
    Hbaselike.Master.start master2;
    Dsim.Engine.run ~until:(sec 8) engine;
    (Option.value (Hbaselike.Regionserver.cached_master rs) ~default:"-",
     Hbaselike.Regionserver.consecutive_failures rs)
  in
  let stale_master, stale_failures = run_5755 ~relookup:false in
  let fixed_master, fixed_failures = run_5755 ~relookup:true in
  Sieve.Report.table
    ~header:[ "region server"; "believes master is"; "consecutive heartbeat failures" ]
    [
      [ "bug-era (cached forever)"; stale_master; string_of_int stale_failures ];
      [ "fixed (re-lookup on failure)"; fixed_master; string_of_int fixed_failures ];
    ];
  Printf.printf
    "\n'Region server looking for master forever with cached stale data' — the\n\
     reference [27] bug, on a different infrastructure, same staleness pattern.\n"

(* ------------------------------------------------------------------ *)
(* T-LEASE: the lease trade-off (section 4.1).                        *)

let leases () =
  Sieve.Report.section
    "T-LEASE — leases: exclusive access at the price of blocked failover (section 4.1)";
  let run_ttl ttl =
    let config = { Kube.Cluster.default_config with Kube.Cluster.with_operator = false } in
    let cluster = Kube.Cluster.create ~config () in
    Kube.Cluster.start cluster;
    let electors =
      List.init 2 (fun i ->
          Kube.Elector.create
            ~net:(Kube.Cluster.net cluster)
            ~name:(Printf.sprintf "cand-%d" (i + 1))
            ~lock:"controller"
            ~endpoints:(Kube.Cluster.apiserver_names cluster)
            ~ttl ())
    in
    List.iter Kube.Elector.start electors;
    Kube.Cluster.run cluster ~until:(sec 3);
    let leader = List.find Kube.Elector.believes_leader electors in
    Dsim.Network.crash (Kube.Cluster.net cluster) (Kube.Elector.name leader);
    Kube.Cluster.run cluster ~until:(sec 3 + (4 * ttl) + sec 2);
    let standby =
      List.find
        (fun e -> not (String.equal (Kube.Elector.name e) (Kube.Elector.name leader)))
        electors
    in
    let takeover =
      List.find_map (fun (at, gained) -> if gained then Some (at - sec 3) else None)
        (Kube.Elector.transitions standby)
    in
    let lost =
      List.find_map (fun (at, gained) -> if gained then None else Some at)
        (Kube.Elector.transitions leader)
    in
    ( ttl,
      takeover,
      match takeover, lost with
      | Some gained_delta, Some lost_at -> lost_at <= sec 3 + gained_delta
      | _ -> false )
  in
  let rows =
    List.map
      (fun ttl ->
        let ttl, takeover, safe = run_ttl ttl in
        [
          Printf.sprintf "%d ms" (ttl / 1000);
          (match takeover with
          | Some us -> Printf.sprintf "%d ms" (us / 1000)
          | None -> "no takeover");
          (if safe then "no overlap" else "OVERLAP!");
        ])
      [ ms 500; sec 1; sec 2; sec 4 ]
  in
  Printf.printf "\n(active/standby controllers; active crashes at 3 s)\n\n";
  Sieve.Report.table
    ~header:[ "lease TTL"; "standby takeover after crash"; "belief handoff" ] rows;
  Printf.printf
    "\nExpected shape: takeover latency tracks the lease term — the availability\n\
     cost the paper names — while beliefs never overlap (the old holder's local\n\
     deadline is always at or before the store-side expiry). And leases bound\n\
     *who acts*, not *what they see*: the new leader starts from its own cached\n\
     view, which can be just as stale as anyone's.\n"

(* ------------------------------------------------------------------ *)
(* RAFT: the store tier itself (footnote 1 + section 4.1).            *)

let raft () =
  Sieve.Report.section
    "RAFT — the replicated store tier: failover cost and committed-only histories";
  (* (a) Leader failover latency across seeds. *)
  let failover_times =
    List.filter_map
      (fun seed ->
        let engine = Dsim.Engine.create ~seed:(Int64.of_int seed) () in
        let net = Dsim.Network.create engine in
        let group = Raftlite.Group.create ~net ~n:5 () in
        Raftlite.Group.start group;
        Dsim.Engine.run ~until:(sec 2) engine;
        match Raftlite.Group.leader group with
        | None -> None
        | Some leader ->
            let crash_at = Dsim.Engine.now engine in
            Dsim.Network.crash net (Raftlite.Node.id leader);
            let elected_at = ref None in
            Dsim.Engine.every engine ~period:(ms 5) (fun () ->
                (match Raftlite.Group.leader group, !elected_at with
                | Some fresh, None
                  when not (String.equal (Raftlite.Node.id fresh) (Raftlite.Node.id leader)) ->
                    elected_at := Some (Dsim.Engine.now engine)
                | _ -> ());
                true);
            Dsim.Engine.run ~until:(crash_at + sec 3) engine;
            Option.map (fun at -> float_of_int (at - crash_at) /. 1000.0) !elected_at)
      (List.init 30 (fun i -> i + 1))
  in
  let n = List.length failover_times in
  let mean = List.fold_left ( +. ) 0.0 failover_times /. float_of_int (max 1 n) in
  let sorted = List.sort compare failover_times in
  let pick p = List.nth sorted (min (n - 1) (int_of_float (p *. float_of_int n))) in
  Sieve.Report.subsection "(a) leader failover, 5 replicas, 30 seeded runs";
  Sieve.Report.kv
    [
      ("elections completed", Printf.sprintf "%d/30" n);
      ("mean time to new leader", Printf.sprintf "%.0f ms" mean);
      ("median / p90", Printf.sprintf "%.0f ms / %.0f ms" (pick 0.5) (pick 0.9));
    ];
  Printf.printf
    "\n(election timeouts are uniform in [150,300] ms, so the shape to expect is\n\
     a little over one timeout — randomization avoids split votes)\n";
  (* (b) Footnote 1: H contains only committed events; a minority
     leader's replicated-but-uncommitted suffix is NOT a partial
     history and disappears on heal. *)
  Sieve.Report.subsection "(b) a partial history is not a partially-replicated log (footnote 1)";
  let engine = Dsim.Engine.create ~seed:11L () in
  let net = Dsim.Network.create engine in
  let group = Raftlite.Group.create ~net ~n:5 () in
  Raftlite.Group.start group;
  Dsim.Engine.run ~until:(sec 2) engine;
  ignore (Raftlite.Group.propose_via_leader group "committed-1");
  Dsim.Engine.run ~until:(Dsim.Engine.now engine + ms 500) engine;
  let leader = Option.get (Raftlite.Group.leader group) in
  let leader_id = Raftlite.Node.id leader in
  let rest =
    List.filter (fun id -> not (String.equal id leader_id)) (Raftlite.Group.names group)
  in
  let minority_peer = List.hd rest and majority = List.tl rest in
  List.iter
    (fun a -> List.iter (fun b -> Dsim.Network.partition net a b) majority)
    [ leader_id; minority_peer ];
  for i = 1 to 3 do
    ignore (Raftlite.Node.propose leader (Printf.sprintf "doomed-%d" i))
  done;
  Dsim.Engine.run ~until:(Dsim.Engine.now engine + sec 2) engine;
  ignore (Raftlite.Group.propose_via_leader group "committed-2");
  Dsim.Engine.run ~until:(Dsim.Engine.now engine + sec 1) engine;
  Printf.printf "during the partition:\n";
  Printf.printf "  minority leader %s: log length %d, applied (= H view) %d\n" leader_id
    (Raftlite.Node.log_length leader)
    (List.length (Raftlite.Group.applied group leader_id));
  Printf.printf "  committed history H: [%s]\n"
    (String.concat "; " (Raftlite.Group.committed_prefix group));
  Dsim.Network.heal_all net;
  Dsim.Engine.run ~until:(Dsim.Engine.now engine + sec 2) engine;
  Printf.printf "after healing:\n";
  Printf.printf "  %s log length %d (doomed suffix erased by the new leader)\n" leader_id
    (Raftlite.Node.log_length leader);
  Printf.printf "  committed history H everywhere: [%s]\n"
    (String.concat "; " (Raftlite.Group.committed_prefix group));
  Printf.printf
    "\nThe replicated-but-uncommitted suffix was never observable as history:\n\
     H' in the paper's model is a subsequence of *committed* events only.\n"

(* ------------------------------------------------------------------ *)
(* T-MIN: strategy minimization.                                      *)

let minimize () =
  Sieve.Report.section "T-MIN — minimized reproductions: what each bug actually needs";
  let rows =
    List.map
      (fun case ->
        let test = Sieve.Bugs.test_of_case case in
        let minimized, cost =
          Sieve.Minimize.minimize ~test ~target:case.Sieve.Bugs.matches ()
        in
        [
          case.Sieve.Bugs.id;
          Sieve.Strategy.describe minimized.Sieve.Runner.strategy;
          string_of_int cost;
        ])
      (Sieve.Bugs.all_with_extras ())
  in
  Printf.printf "\n";
  Sieve.Report.table ~header:[ "bug"; "locally minimal strategy"; "runs" ] rows;
  Printf.printf
    "\nEverything left in a minimized strategy is load-bearing: the windows say\n\
     *when* the partial history must diverge, the limits say *how little* —\n\
     several bugs need exactly one suppressed or delayed notification.\n"

(* ------------------------------------------------------------------ *)
(* MICRO: Bechamel micro-benchmarks.                                  *)

(* Minor words allocated, read with [Gc.minor_words]. Bechamel's own
   [Toolkit.Instance.minor_allocated] reads [Gc.quick_stat], whose
   minor-word count on OCaml 5.1 only moves at a minor collection, so a
   run that allocates less than a minor heap reads as 0 or as a whole
   heap. *)
module Minor_words = struct
  type witness = unit

  let label () = "minor-words"
  let unit () = "words"
  let make () = ()
  let load () = ()
  let unload () = ()
  let get () = Gc.minor_words ()
end

let minor_words =
  Bechamel.Measure.instance (module Minor_words) (Bechamel.Measure.register (module Minor_words))

(* A one-request service: the round trip with the least handler work. *)
type _ ping = Ping : unit ping

module Ping = Dsim.Network.Service (struct
  type 'a request = 'a ping
  type 'a reply = 'a
  let name = "ping"
end)

let micro () =
  Sieve.Report.section
    "MICRO — substrate micro-benchmarks (Bechamel, wall clock and minor allocation)";
  let open Bechamel in
  let test_kv_put =
    Test.make ~name:"kv.put x100" (Staged.stage (fun () ->
        let kv = Etcdlike.Kv.create () in
        for i = 1 to 100 do
          ignore (Etcdlike.Kv.put kv (Printf.sprintf "k%d" (i mod 10)) i)
        done))
  in
  let test_state_apply =
    let events =
      List.init 100 (fun i ->
          History.Event.make ~rev:(i + 1) ~key:(Printf.sprintf "k%d" (i mod 10))
            ~op:History.Event.Update (Some i))
    in
    Test.make ~name:"state.apply x100" (Staged.stage (fun () ->
        ignore (List.fold_left History.State.apply History.State.empty events)))
  in
  let test_log_since =
    let log = History.Log.create () in
    for i = 1 to 1_000 do
      ignore
        (History.Log.append log ~key:(Printf.sprintf "k%d" (i mod 50)) ~op:History.Event.Update
           (Some i))
    done;
    Test.make ~name:"log.since (1k events)" (Staged.stage (fun () ->
        ignore (History.Log.since log ~rev:500)))
  in
  let test_engine =
    Test.make ~name:"engine: 1k timer events" (Staged.stage (fun () ->
        let e = Dsim.Engine.create () in
        for i = 1 to 1_000 do
          ignore (Dsim.Engine.schedule e ~delay:i (fun () -> ()))
        done;
        Dsim.Engine.run e))
  in
  (* The queue's traffic in an HBase trial: about 20 fault-plan and
     workload actions wait seconds out while periodic ticks send 0.5-2 ms
     requests and replies, each guarded by a 1 s timeout that the reply
     cancels. *)
  let test_engine_traffic =
    Test.make ~name:"engine: hbase-like traffic (1 virtual s)" (Staged.stage (fun () ->
        let e = Dsim.Engine.create () in
        let rng = Dsim.Engine.rng e in
        let latency () = 500 + Dsim.Rng.int rng 1_500 in
        for _ = 1 to 20 do
          ignore (Dsim.Engine.schedule e ~delay:(sec 2 + Dsim.Rng.int rng (sec 6)) ignore)
        done;
        let call () =
          let timeout = Dsim.Engine.schedule e ~delay:(sec 1) ignore in
          ignore
            (Dsim.Engine.schedule e ~delay:(latency ()) (fun () ->
                 ignore
                   (Dsim.Engine.schedule e ~delay:(latency ()) (fun () ->
                        Dsim.Engine.cancel e timeout))))
        in
        for node = 1 to 8 do
          Dsim.Engine.every e ~period:(if node mod 2 = 0 then ms 100 else ms 150) (fun () ->
              for _ = 1 to 4 do
                call ()
              done;
              true)
        done;
        Dsim.Engine.run ~until:(sec 1) e))
  in
  let test_network =
    Test.make ~name:"network: 1k RPC round trips" (Staged.stage (fun () ->
        let e = Dsim.Engine.create () in
        let net = Dsim.Network.create e in
        Ping.register net "server"
          { serve = (fun (type a) ~src:_ (Ping : a ping) (reply : a -> unit) -> reply ()) };
        Dsim.Network.join net "client";
        let client = Dsim.Network.peer net "client" and server = Dsim.Network.peer net "server" in
        for _ = 1 to 1_000 do
          Ping.call ~src:client ~dst:server Ping ignore;
          Dsim.Engine.run e
        done))
  in
  let test_trace_ring =
    Test.make ~name:"trace: 1k caused emits (ring 256)" (Staged.stage (fun () ->
        let t = Dsim.Trace.create ~capacity:256 () in
        for i = 1 to 1_000 do
          ignore (Dsim.Trace.emit t ~time:i ~actor:"a" ~kind:"k" ~cause:(max 1 (i - 1)) "d")
        done))
  in
  let test_metrics_hist =
    Test.make ~name:"metrics: 1k observes + p99" (Staged.stage (fun () ->
        let m = Dsim.Metrics.create () in
        for i = 1 to 1_000 do
          Dsim.Metrics.observe m "h" (float_of_int (i mod 97))
        done;
        ignore (Dsim.Metrics.percentile m "h" 0.99)))
  in
  let test_trace_jsonl =
    let trace = Dsim.Trace.create () in
    for i = 1 to 1_000 do
      ignore
        (Dsim.Trace.emit trace ~time:i ~actor:"etcd" ~kind:"etcd.commit" ~cause:Dsim.Trace.no_cause
           "rev detail")
    done;
    Test.make ~name:"trace: jsonl dump+parse (1k)" (Staged.stage (fun () ->
        match Dsim.Trace.of_jsonl (Dsim.Trace.to_jsonl trace) with
        | Ok _ -> ()
        | Error msg -> failwith msg))
  in
  let test_cluster_second =
    Test.make ~name:"cluster: 1 virtual second" (Staged.stage (fun () ->
        let cluster = Kube.Cluster.create () in
        Kube.Cluster.start cluster;
        Kube.Cluster.run cluster ~until:(sec 1)))
  in
  let test_bug_repro =
    Test.make ~name:"full CA-402 sieve test" (Staged.stage (fun () ->
        ignore (Sieve.Runner.run_test (Sieve.Bugs.test_of_case (Sieve.Bugs.ca_402 ())))))
  in
  let tests =
    [ test_kv_put; test_state_apply; test_log_since; test_engine; test_engine_traffic;
      test_network; test_trace_ring; test_metrics_hist; test_trace_jsonl; test_cluster_second;
      test_bug_repro ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.3) ~kde:None () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let clock = Toolkit.Instance.monotonic_clock in
  let alloc = minor_words in
  let cell ols_result render =
    match Analyze.OLS.estimates ols_result with Some (estimate :: _) -> render estimate | _ -> "?"
  in
  Printf.printf "\n";
  let rows =
    List.concat_map
      (fun test ->
        let results = Benchmark.all cfg [ clock; alloc ] test in
        let words = Analyze.all ols alloc results in
        Hashtbl.fold
          (fun name time acc ->
            [
              name;
              cell time (fun ns -> Printf.sprintf "%.1f us/run" (ns /. 1000.0));
              cell (Hashtbl.find words name) (Printf.sprintf "%.0f words/run");
            ]
            :: acc)
          (Analyze.all ols clock results) [])
      tests
  in
  Sieve.Report.table ~header:[ "benchmark"; "wall time"; "minor allocation" ] rows

(* ------------------------------------------------------------------ *)
(* LINT: static-analysis cost.                                        *)

let lint_bench () =
  Sieve.Report.section
    "LINT — static analysis cost: parse + taint fixpoint + lint + hazard-graph build";
  let dirs =
    List.filter Sys.file_exists
      [
        Filename.concat "lib" "kube";
        Filename.concat "lib" "hbase";
        Filename.concat "lib" "replicated";
      ]
  in
  if dirs = [] then
    Printf.printf "\n(lib/kube not found — run from the repository root)\n"
  else begin
    let paths =
      List.concat_map
        (fun dir ->
          Sys.readdir dir |> Array.to_list
          |> List.filter (fun f -> Filename.check_suffix f ".ml")
          |> List.sort String.compare
          |> List.map (Filename.concat dir))
        dirs
    in
    let time_n n f =
      let started = Unix.gettimeofday () in
      for _ = 1 to n do
        f ()
      done;
      (Unix.gettimeofday () -. started) /. float_of_int n
    in
    (* Parse once up front so the taint row times the dataflow fixpoint
       alone (summaries + propagation), not the compiler frontend. *)
    let parse path =
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let src = really_input_string ic n in
      close_in ic;
      let lexbuf = Lexing.from_string src in
      Location.init lexbuf (Filename.basename path);
      Parse.implementation lexbuf
    in
    let structures = List.map parse paths in
    let lint_runs = 20 in
    let findings, errors = Analysis.Lint.files paths in
    let lint_wall = time_n lint_runs (fun () -> ignore (Analysis.Lint.files paths)) in
    let taint_runs = 20 in
    let taint_paths =
      List.fold_left
        (fun acc s -> acc + List.length (Analysis.Taint.analyze s).Analysis.Taint.complete)
        0 structures
    in
    let taint_wall =
      time_n taint_runs (fun () ->
          List.iter (fun s -> ignore (Analysis.Taint.analyze s)) structures)
    in
    let config = Sieve.Bugs.kube_config (Sieve.Bugs.ca_402 ()) in
    let hazard_runs = 2_000 in
    let hazards = Analysis.Hazard.of_config config in
    let hazard_wall = time_n hazard_runs (fun () -> ignore (Analysis.Hazard.of_config config)) in
    Printf.printf "\n";
    Sieve.Report.table
      ~header:[ "stage"; "input"; "output"; "wall time" ]
      [
        [
          Printf.sprintf "layer-1 lint, parse included (x%d)" lint_runs;
          Printf.sprintf "%d files" (List.length paths);
          Printf.sprintf "%d findings, %d errors" (List.length findings) (List.length errors);
          Printf.sprintf "%.2f ms/pass" (lint_wall *. 1e3);
        ];
        [
          Printf.sprintf "taint fixpoint alone (x%d)" taint_runs;
          Printf.sprintf "%d parsed structures" (List.length structures);
          Printf.sprintf "%d complete paths" taint_paths;
          Printf.sprintf "%.2f ms/pass" (taint_wall *. 1e3);
        ];
        [
          Printf.sprintf "layer-2 hazard graph (x%d)" hazard_runs;
          "CA-402 config";
          Printf.sprintf "%d hazards" (List.length hazards);
          Printf.sprintf "%.1f us/build" (hazard_wall *. 1e6);
        ];
      ];
    let json =
      Dsim.Json.Obj
        [
          ("schema", Dsim.Json.String "bench-lint/1");
          ("files", Dsim.Json.Int (List.length paths));
          ("findings", Dsim.Json.Int (List.length findings));
          ("taint_paths", Dsim.Json.Int taint_paths);
          ("hazards", Dsim.Json.Int (List.length hazards));
          ("lint_ms_per_pass", Dsim.Json.Float (lint_wall *. 1e3));
          ("taint_ms_per_pass", Dsim.Json.Float (taint_wall *. 1e3));
          ("hazard_us_per_build", Dsim.Json.Float (hazard_wall *. 1e6));
        ]
    in
    let oc = open_out "BENCH_lint.json" in
    output_string oc (Dsim.Json.to_string json);
    output_char oc '\n';
    close_out oc;
    Printf.printf
      "\nwrote BENCH_lint.json. Expected shape: the whole static pass costs\n\
       milliseconds — two orders of magnitude under a single simulated trial —\n\
       and the taint fixpoint is the bulk of it (the parse is most of the rest),\n\
       so hazard-ranked scheduling (`hunt --hazard-rank`) is effectively free\n\
       relative to the trials it saves.\n"
  end

(* ------------------------------------------------------------------ *)
(* STORE: the store-tier hot path, indexed vs the naive reference.    *)

(* Every trial the hunt engine runs is dominated by this tier: watch
   syncs call [Log.since], re-lists call the prefix scan, a ZooKeeper
   compaction window compacts after every commit. Each microbench times the
   indexed implementation against the pre-PR naive one (full
   list/filter, filter-then-refind), reimplemented here verbatim, and
   [BENCH_store.json] records the trajectory for future PRs to diff.
   [append] and [compact] consume their store, so each runs once per
   fresh store, over at least 5 stores, and the median is recorded; the
   read benches repeat their call [reps] times on one store. *)

let store_bench () =
  Sieve.Report.section
    "STORE — indexed event window + range scans vs the naive list/filter tier";
  let sizes = [ 1_000; 10_000; 100_000 ] in
  let groups = 50 in
  let key i = Printf.sprintf "r%02d/k%06d" (i mod groups) i in
  let scan_prefix = Printf.sprintf "r%02d/" (groups / 2) in
  let time_per_op reps ops f =
    let started = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    (Unix.gettimeofday () -. started) /. float_of_int (reps * ops) *. 1e9
  in
  (* The median of [runs] timings, each of one call of the operation
     [setup ()] returns: the setup (building a store to consume) stays
     off the clock. *)
  let median_per_op ~runs ops setup =
    let timings =
      List.init runs (fun _ ->
          let op = setup () in
          time_per_op 1 ops op)
    in
    List.nth (List.sort Float.compare timings) (runs / 2)
  in
  let results = ref [] in
  let rows = ref [] in
  let record ~bench ~n ~ops ~indexed ~naive =
    let speedup = Option.map (fun naive -> naive /. Float.max indexed 1e-3) naive in
    results :=
      Dsim.Json.Obj
        [
          ("bench", Dsim.Json.String bench);
          ("keys", Dsim.Json.Int n);
          ("ops", Dsim.Json.Int ops);
          ("indexed_ns_per_op", Dsim.Json.Float indexed);
          ( "naive_ns_per_op",
            match naive with Some v -> Dsim.Json.Float v | None -> Dsim.Json.Null );
          ( "speedup",
            match speedup with Some v -> Dsim.Json.Float v | None -> Dsim.Json.Null );
        ]
      :: !results;
    rows :=
      [
        bench;
        string_of_int n;
        Printf.sprintf "%.0f ns/op" indexed;
        (match naive with Some v -> Printf.sprintf "%.0f ns/op" v | None -> "-");
        (match speedup with Some v -> Printf.sprintf "%.1fx" v | None -> "-");
      ]
      :: !rows
  in
  List.iter
    (fun n ->
      let reps = max 5 (200_000 / n) in
      let runs = max 5 (100_000 / n) in
      (* append: n commits into a fresh store; the last store filled
         serves the read benches. *)
      let fill kv =
        for i = 1 to n do
          ignore (Etcdlike.Kv.put kv (key i) i)
        done
      in
      let kv = ref (Etcdlike.Kv.create ()) in
      let append_ns =
        median_per_op ~runs n (fun () ->
            let fresh = Etcdlike.Kv.create () in
            kv := fresh;
            fun () -> fill fresh)
      in
      let kv = !kv in
      record ~bench:"append" ~n ~ops:n ~indexed:append_ns ~naive:None;
      let state = Etcdlike.Kv.state kv in
      (* The pre-PR store kept the retained events as a newest-first
         list; rebuild that representation for the naive timings. *)
      let naive_events = List.rev (History.Log.events (Etcdlike.Kv.history kv)) in
      let naive_since rev =
        List.rev (List.filter (fun (e : int History.Event.t) -> e.History.Event.rev > rev) naive_events)
      in
      let naive_range prefix =
        History.State.keys state
        |> List.filter (fun k -> String.starts_with ~prefix k)
        |> List.filter_map (fun k ->
               match History.State.find state k with
               | Some (v, mod_rev) -> Some (k, v, mod_rev)
               | None -> None)
      in
      (* since: a watch sync fetching the last 1000 events. *)
      let k_since = min 1_000 n in
      let since_rev = n - k_since in
      let since_ns =
        time_per_op reps k_since (fun () ->
            match Etcdlike.Kv.since kv ~rev:since_rev with Ok _ -> () | Error _ -> assert false)
      in
      let since_naive_ns = time_per_op reps k_since (fun () -> ignore (naive_since since_rev)) in
      record ~bench:"since" ~n ~ops:k_since ~indexed:since_ns ~naive:(Some since_naive_ns);
      (* prefix-scan: one component's re-list of its resource prefix. *)
      let k_scan = List.length (Etcdlike.Kv.range kv ~prefix:scan_prefix) in
      let range_ns =
        time_per_op reps k_scan (fun () -> ignore (Etcdlike.Kv.range kv ~prefix:scan_prefix))
      in
      let range_naive_ns = time_per_op reps k_scan (fun () -> ignore (naive_range scan_prefix)) in
      record ~bench:"prefix-scan" ~n ~ops:k_scan ~indexed:range_ns ~naive:(Some range_naive_ns);
      (* watch-backlog: a subscriber re-syncing 64 revisions behind the
         head — the backlog slice plus the per-subscriber prefix filter
         a watch stream applies before delivery. *)
      let k_backlog = min 64 n in
      let backlog_rev = n - k_backlog in
      let deliver backlog =
        List.iter
          (fun e -> if History.Event.matches_prefix (Some scan_prefix) e then ignore (Sys.opaque_identity e))
          backlog
      in
      let backlog_ns =
        time_per_op reps k_backlog (fun () ->
            match Etcdlike.Kv.since kv ~rev:backlog_rev with
            | Ok backlog -> deliver backlog
            | Error _ -> assert false)
      in
      let backlog_naive_ns =
        time_per_op reps k_backlog (fun () -> deliver (naive_since backlog_rev))
      in
      record ~bench:"watch-backlog" ~n ~ops:k_backlog ~indexed:backlog_ns
        ~naive:(Some backlog_naive_ns);
      (* compact: shrink the log to a rolling window of a tenth of it
         (at least 100 events). *)
      let keep = max 100 (n / 10) in
      let dropped = n - keep in
      let compact_ns =
        median_per_op ~runs dropped (fun () ->
            let victim = Etcdlike.Kv.create () in
            fill victim;
            fun () -> Etcdlike.Kv.compact_keep_last victim keep)
      in
      let compact_naive_ns =
        median_per_op ~runs dropped (fun () ->
            fun () ->
              let kept =
                List.filter
                  (fun (e : int History.Event.t) -> e.History.Event.rev > n - keep)
                  naive_events
              in
              ignore (List.length kept))
      in
      record ~bench:"compact" ~n ~ops:dropped ~indexed:compact_ns ~naive:(Some compact_naive_ns))
    sizes;
  let rows = List.rev !rows in
  Printf.printf "\n";
  Sieve.Report.table
    ~header:[ "bench"; "keys"; "indexed"; "naive (pre-PR)"; "speedup" ]
    rows;
  let json =
    Dsim.Json.Obj
      [
        ("schema", Dsim.Json.String "bench-store/1");
        ("sizes", Dsim.Json.List (List.map (fun n -> Dsim.Json.Int n) sizes));
        ("results", Dsim.Json.List (List.rev !results));
      ]
  in
  let oc = open_out "BENCH_store.json" in
  output_string oc (Dsim.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "\nwrote BENCH_store.json. Expected shape: since / watch-backlog / prefix-scan\n\
     are O(answer) instead of O(retained events | keyspace), so their speedups\n\
     grow linearly with the store size; append stays O(log n); compact is an\n\
     O(k) window shift that no longer rebuilds the kept suffix.\n"

(* ------------------------------------------------------------------ *)
(* REPLICATION: consensus costs of the Raft-backed store.             *)

(* Three numbers per group size: propose->commit latency (virtual time
   from submission to the canonical first apply — what every mutation
   now pays versus the single store's zero), apply throughput (wall
   clock: committed entries applied across all replicas per second of
   real time — the simulator-side cost of replaying consensus), and
   churn recovery (virtual time from leader crash to the next committed
   write, covering detection, election and the proposal retry). *)

let replication_bench () =
  Sieve.Report.section
    "REPLICATION — Raft-lite under the store: commit latency, apply rate, churn recovery";
  let sizes = [ 1; 3; 5 ] in
  let ops = 400 in
  let results = ref [] and rows = ref [] in
  List.iter
    (fun n ->
      let engine = Dsim.Engine.create ~seed:7L () in
      let net = Dsim.Network.create engine in
      let kv : int Replicated.Kv.t = Replicated.Kv.create ~net ~n ~canonical:ignore () in
      Replicated.Kv.start kv;
      Dsim.Engine.run ~until:1_000_000 engine;
      (* Closed loop: one outstanding proposal, the commit callback
         submits the next — latency samples never queue behind each
         other. *)
      let latencies = ref [] in
      let failed = ref 0 in
      let rec submit i =
        if i <= ops then begin
          let t0 = Dsim.Engine.now engine in
          Replicated.Kv.put kv (Printf.sprintf "bench/k%03d" (i mod 64)) i (fun r ->
              (match r with Ok _ -> () | Error `Unavailable -> incr failed);
              latencies := (Dsim.Engine.now engine - t0) :: !latencies;
              submit (i + 1))
        end
      in
      let wall0 = Unix.gettimeofday () in
      submit 1;
      Dsim.Engine.run ~until:(Dsim.Engine.now engine + 60_000_000) engine;
      let wall = Unix.gettimeofday () -. wall0 in
      if List.length !latencies < ops then
        failwith (Printf.sprintf "replication bench: only %d/%d proposals resolved"
                    (List.length !latencies) ops);
      let sorted = List.sort compare !latencies in
      let pct p = List.nth sorted (min (ops - 1) (p * ops / 100)) in
      let p50 = pct 50 and p95 = pct 95 in
      (* Every committed entry is applied once per replica. *)
      let throughput = float_of_int (ops * n) /. Float.max wall 1e-9 in
      (* Churn: kill the current leader mid-stream and time the next
         commit — failure detection + election + proposal retry. *)
      let leader = Option.get (Replicated.Kv.leader kv) in
      Dsim.Network.crash net leader;
      let t0 = Dsim.Engine.now engine in
      let recovered = ref None in
      let attempts = ref 0 in
      (* A client that re-submits on outage: recovery is the time from
         the crash to the first write committed again. Slow elections
         (vote splits past the 2 s proposal deadline) show up as extra
         attempts, not as a lost measurement. *)
      let rec recover_put () =
        incr attempts;
        Replicated.Kv.put kv "bench/recovery" !attempts (fun r ->
            match r with
            | Ok _ -> recovered := Some (Dsim.Engine.now engine - t0)
            | Error `Unavailable -> recover_put ())
      in
      recover_put ();
      if n = 1 then
        ignore
          (Dsim.Engine.schedule engine ~delay:200_000 (fun () ->
               Dsim.Network.restart net leader));
      Dsim.Engine.run ~until:(Dsim.Engine.now engine + 30_000_000) engine;
      let recovery =
        match !recovered with
        | Some us -> us
        | None -> failwith "replication bench: no commit after leader churn"
      in
      rows :=
        [
          string_of_int n;
          Printf.sprintf "%.2f ms" (float_of_int p50 /. 1e3);
          Printf.sprintf "%.2f ms" (float_of_int p95 /. 1e3);
          Printf.sprintf "%.0f applies/s" throughput;
          Printf.sprintf "%.0f ms" (float_of_int recovery /. 1e3);
        ]
        :: !rows;
      results :=
        Dsim.Json.Obj
          [
            ("replicas", Dsim.Json.Int n);
            ("ops", Dsim.Json.Int ops);
            ("failed", Dsim.Json.Int !failed);
            ("commit_latency_p50_us", Dsim.Json.Int p50);
            ("commit_latency_p95_us", Dsim.Json.Int p95);
            ("apply_throughput_per_s", Dsim.Json.Float throughput);
            ("churn_recovery_us", Dsim.Json.Int recovery);
            ("churn_recovery_attempts", Dsim.Json.Int !attempts);
          ]
        :: !results)
    sizes;
  Sieve.Report.table
    ~header:[ "replicas"; "commit p50"; "commit p95"; "apply rate"; "churn recovery" ]
    (List.rev !rows);
  let json =
    Dsim.Json.Obj
      [
        ("schema", Dsim.Json.String "bench-replication/1");
        ("sizes", Dsim.Json.List (List.map (fun n -> Dsim.Json.Int n) sizes));
        ("results", Dsim.Json.List (List.rev !results));
      ]
  in
  let oc = open_out "BENCH_replication.json" in
  output_string oc (Dsim.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "\nwrote BENCH_replication.json. Expected shape: n=1 commits synchronously\n\
     (latency ~= one gateway round trip), n=3/5 pay a broadcast plus the\n\
     follower-ack quorum; recovery sits in the election-timeout band\n\
     (150-300 ms) plus a proposal retry — vote splits (common at n=5,\n\
     where four near-synchronized candidates collide) can stretch it past\n\
     the 2 s client deadline and cost an extra attempt; the apply rate is\n\
     committed entries replayed across all replicas per wall second.\n"

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig3a", fig3a);
    ("fig3b", fig3b);
    ("fig3c", fig3c);
    ("bugs", bugs);
    ("baselines", baselines);
    ("yield", yield_curve);
    ("epochs", epochs);
    ("seals", seals);
    ("perf", perf);
    ("robust", robustness);
    ("scale", scale);
    ("hbase", hbase);
    ("leases", leases);
    ("raft", raft);
    ("minimize", minimize);
    ("lint", lint_bench);
    ("store", store_bench);
    ("replication", replication_bench);
    ("micro", micro);
  ]

let () =
  let requested = List.tl (Array.to_list Sys.argv) in
  let to_run =
    match requested with
    | [] -> experiments
    | names ->
        List.map
          (fun name ->
            match List.assoc_opt name experiments with
            | Some f -> (name, f)
            | None ->
                Printf.eprintf "unknown experiment %S (available: %s)\n" name
                  (String.concat ", " (List.map fst experiments));
                exit 1)
          names
  in
  List.iter (fun (_, f) -> f ()) to_run
