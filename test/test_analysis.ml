(* Test the static analyzer: the layer-1 lint against its fixture
   corpus and against lib/kube itself, the layer-2 footprints against
   the planner's watch sets (so the static and dynamic views of "what
   each component observes" cannot drift), the hazard graph's content,
   and the hazard-ranked scheduler against greedy coverage ordering. *)

let fixture name = Filename.concat (Filename.concat "fixtures" "lint") name

(* --- layer 1: lint ------------------------------------------------- *)

let check_findings name path expected =
  match Analysis.Lint.file path with
  | Error e -> Alcotest.failf "%s: parse error: %s" name e
  | Ok findings ->
      Alcotest.(check (list (pair string string)))
        (name ^ " findings")
        expected
        (List.map (fun (f : Analysis.Lint.finding) -> (f.rule, f.func)) findings)

let test_fixture_stale_write () =
  check_findings "stale_delete_buggy"
    (fixture "stale_delete_buggy.ml")
    [ ("stale-write", "gc_surplus") ];
  (match Analysis.Lint.file (fixture "stale_delete_buggy.ml") with
  | Ok [ f ] ->
      Alcotest.(check string) "pattern" "staleness"
        (Sieve.Coverage.pattern_to_string f.pattern)
  | _ -> Alcotest.fail "expected exactly one finding");
  check_findings "stale_delete_fixed" (fixture "stale_delete_fixed.ml") []

let test_fixture_edge_trigger () =
  check_findings "edge_trigger_buggy"
    (fixture "edge_trigger_buggy.ml")
    [ ("edge-trigger", "on_node_event") ];
  (match Analysis.Lint.file (fixture "edge_trigger_buggy.ml") with
  | Ok [ f ] ->
      Alcotest.(check string) "pattern" "observability-gap"
        (Sieve.Coverage.pattern_to_string f.pattern)
  | _ -> Alcotest.fail "expected exactly one finding");
  check_findings "edge_trigger_fixed" (fixture "edge_trigger_fixed.ml") []

(* The kube components' shared reconcile loop is as periodic as the
   engine's own: a handler whose prefix a [Controller.every] pass
   re-lists is level-triggered. *)
let test_fixture_edge_trigger_shared_loop () =
  check_findings "edge_trigger_shared_loop" (fixture "edge_trigger_shared_loop.ml") []

(* A pass that walks the informer store in place re-lists its prefix as
   surely as one that lists the keys: the same handler is silent with
   the walk and flagged without it. *)
let test_fixture_edge_trigger_walk () =
  check_findings "edge_trigger_walk_buggy"
    (fixture "edge_trigger_walk_buggy.ml")
    [ ("edge-trigger", "on_node_event") ];
  check_findings "edge_trigger_walk_fixed" (fixture "edge_trigger_walk_fixed.ml") []

let test_fixture_stale_resync () =
  check_findings "stale_resync_buggy"
    (fixture "stale_resync_buggy.ml")
    [ ("stale-resync", "start") ];
  (match Analysis.Lint.file (fixture "stale_resync_buggy.ml") with
  | Ok [ f ] ->
      Alcotest.(check string) "pattern" "time-travel"
        (Sieve.Coverage.pattern_to_string f.pattern)
  | _ -> Alcotest.fail "expected exactly one finding");
  check_findings "stale_resync_fixed" (fixture "stale_resync_fixed.ml") []

(* --- the four taint-engine patterns (PR-8) -------------------------- *)

let test_fixture_follower_read () =
  check_findings "follower_read_buggy"
    (fixture "follower_read_buggy.ml")
    [ ("follower-read-then-write", "trim") ];
  (match Analysis.Lint.file (fixture "follower_read_buggy.ml") with
  | Ok [ f ] ->
      Alcotest.(check string) "pattern" "staleness"
        (Sieve.Coverage.pattern_to_string f.pattern)
  | _ -> Alcotest.fail "expected exactly one finding");
  check_findings "follower_read_fixed" (fixture "follower_read_fixed.ml") []

(* The same shape through [Replicated.Kv.route]: the routed replica's
   store is a replica-read source, so what is ranged from it is too. *)
let test_fixture_follower_route () =
  check_findings "follower_route_buggy"
    (fixture "follower_route_buggy.ml")
    [ ("follower-read-then-write", "trim") ];
  check_findings "follower_route_fixed" (fixture "follower_route_fixed.ml") []

let test_fixture_retry_nodedup () =
  check_findings "retry_nodedup_buggy"
    (fixture "retry_nodedup_buggy.ml")
    [ ("retry-no-dedup", "bump") ];
  check_findings "retry_nodedup_fixed" (fixture "retry_nodedup_fixed.ml") []

let test_fixture_zk_watch () =
  check_findings "zk_watch_buggy"
    (fixture "zk_watch_buggy.ml")
    [ ("zk-one-shot-watch", "on_master_change") ];
  (match Analysis.Lint.file (fixture "zk_watch_buggy.ml") with
  | Ok [ f ] ->
      Alcotest.(check string) "pattern" "observability-gap"
        (Sieve.Coverage.pattern_to_string f.pattern)
  | _ -> Alcotest.fail "expected exactly one finding");
  check_findings "zk_watch_fixed" (fixture "zk_watch_fixed.ml") []

let test_fixture_region_assign () =
  check_findings "region_assign_buggy"
    (fixture "region_assign_buggy.ml")
    [ ("stale-region-assign", "reassign") ];
  check_findings "region_assign_fixed" (fixture "region_assign_fixed.ml") []

(* Every fixed twin in the fixture corpus must be silent — the guards
   (quorum re-read, revision precondition, sync leader read, proposal-id
   dedup, watch re-arm) are exactly what the engine must credit. *)
let test_no_false_positives_on_fixed_twins () =
  Sys.readdir (Filename.concat "fixtures" "lint")
  |> Array.to_list |> List.sort String.compare
  |> List.filter (fun f -> Filename.check_suffix f "_fixed.ml")
  |> List.iter (fun f -> check_findings f (fixture f) [])

(* The evidence path: source, propagation steps, sink, missing guard —
   what --explain prints and what Hazard/Diagnosis ingest. *)
let test_explain_evidence_path () =
  match Analysis.Lint.file (fixture "stale_delete_buggy.ml") with
  | Ok [ f ] ->
      let explain = Analysis.Lint.explain f in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        nn = 0 || go 0
      in
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "explain mentions %S" needle)
            true (contains explain needle))
        [ "source"; "sink"; "missing guard"; "stale_delete_buggy.ml" ];
      Alcotest.(check bool) "json carries the path" true
        (contains (Dsim.Json.to_string (Analysis.Lint.to_json f)) "missing_guard")
  | Ok fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)
  | Error e -> Alcotest.failf "parse error: %s" e

(* --- self-lint: the shipped controllers ----------------------------- *)

let lint_dir dir =
  let paths =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ml")
    |> List.sort String.compare
    |> List.map (Filename.concat dir)
  in
  Analysis.Lint.files paths

let check_dir_baselined name dir expected_suppressed =
  let findings, errors = lint_dir dir in
  Alcotest.(check (list string)) (name ^ " parse errors") [] errors;
  let baseline = Analysis.Lint.load_baseline (Filename.concat ".." ".sievelint") in
  let fresh, suppressed = Analysis.Lint.suppress ~baseline findings in
  Alcotest.(check (list string))
    (name ^ " fresh findings")
    []
    (List.map Analysis.Lint.key fresh);
  Alcotest.(check (list string))
    (name ^ " suppressed findings")
    expected_suppressed
    (List.map Analysis.Lint.key suppressed)

(* lib/kube must produce no findings beyond the committed baseline: the
   three deliberate bug-era shapes, suppressed in .sievelint with
   rationale. Anything fresh is a lint regression (or a new bug). *)
let test_kube_baselined () =
  check_dir_baselined "lib/kube"
    (Filename.concat ".." (Filename.concat "lib" "kube"))
    [
      "deployment.ml:staleness:reconcile_deployment";
      "kubelet.ml:observability-gap:on_event";
      "scheduler.ml:observability-gap:on_node_event";
    ]

(* lib/hbase: the master's CAS-from-the-follower (HBASE-3136) is the one
   deliberate shape; the region server and the ZooKeeper model itself
   must be clean — the follower serving path moves data it never acts
   on, which is exactly what value-taint distinguishes. *)
let test_hbase_baselined () =
  check_dir_baselined "lib/hbase"
    (Filename.concat ".." (Filename.concat "lib" "hbase"))
    [ "master.ml:staleness:balance_region" ]

(* lib/replicated is the store itself: its retry loop resubmits the
   *same* pending proposal under Engine.every (not a continuation
   retry), so the retry-no-dedup rule must not fire on it. *)
let test_replicated_clean () =
  check_dir_baselined "lib/replicated"
    (Filename.concat ".." (Filename.concat "lib" "replicated"))
    []

(* Baselines have one key format: a legacy rule:file:func key
   suppresses nothing, and a save_baseline round-trip produces
   file:pattern:func keys that suppress the findings. *)
let test_baseline_migration () =
  let dir = Filename.concat ".." (Filename.concat "lib" "kube") in
  let findings, _ = lint_dir dir in
  let legacy =
    [
      "stale-write:deployment.ml:reconcile_deployment";
      "edge-trigger:kubelet.ml:on_event";
      "edge-trigger:scheduler.ml:on_node_event";
    ]
  in
  let fresh, suppressed = Analysis.Lint.suppress ~baseline:legacy findings in
  Alcotest.(check int) "legacy keys suppress nothing" 0 (List.length suppressed);
  Alcotest.(check int) "every finding fresh under legacy baseline" (List.length findings)
    (List.length fresh);
  let tmp = Filename.temp_file "sievelint" ".baseline" in
  Analysis.Lint.save_baseline ~path:tmp findings;
  let rewritten = Analysis.Lint.load_baseline tmp in
  Sys.remove tmp;
  Alcotest.(check (list string))
    "rewritten baseline is the new format, sorted"
    [
      "deployment.ml:staleness:reconcile_deployment";
      "kubelet.ml:observability-gap:on_event";
      "scheduler.ml:observability-gap:on_node_event";
    ]
    rewritten;
  let fresh', _ = Analysis.Lint.suppress ~baseline:rewritten findings in
  Alcotest.(check (list string)) "rewritten baseline still suppresses" []
    (List.map Analysis.Lint.key fresh')

(* --- layer 2: footprints ------------------------------------------- *)

(* The planner's targets are projected from the footprints, on every
   substrate; every edge-triggered prefix is one of the component's
   cached reads. *)
let test_footprint_consistency () =
  List.iter
    (fun (case : Sieve.Bugs.case) ->
      let footprints, targets =
        match case.Sieve.Bugs.spec with
        | Sieve.Substrate.Kube { config; _ } ->
            (Sieve.Footprint.of_config config, Sieve.Planner.targets_of_config config)
        | Sieve.Substrate.Hbase { config; _ } ->
            (Sieve.Footprint.of_hbase_config config, Sieve.Planner.targets_hbase config)
      in
      Alcotest.(check (list (pair string (list string))))
        (case.Sieve.Bugs.id ^ " cached reads = watched prefixes")
        (List.map
           (fun (fp : Sieve.Footprint.t) -> (fp.component, fp.cached_reads))
           footprints)
        (List.map (fun (t : Sieve.Planner.target) -> (t.component, t.watched_prefixes)) targets);
      List.iter
        (fun (fp : Sieve.Footprint.t) ->
          List.iter
            (fun p ->
              Alcotest.(check bool)
                (Printf.sprintf "%s edge-triggered %s is a cached read" fp.component p)
                true (List.mem p fp.cached_reads))
            fp.edge_triggered)
        footprints)
    (Sieve.Bugs.all_with_extras () @ Sieve.Bugs.replicated () @ Sieve.Bugs.hbase ())

(* The hand-written footprints mirror lib/kube: their components are the
   owners of the cluster's informers, and each footprint's cached reads
   are its informers' prefixes. *)
let test_footprint_mirrors_cluster () =
  let sorted = List.sort_uniq String.compare in
  let check label config =
    let informers = Kube.Cluster.informers (Kube.Cluster.create ~config ()) in
    let footprints = Sieve.Footprint.of_config config in
    Alcotest.(check (list string))
      (label ^ " components")
      (sorted (List.map Kube.Informer.owner informers))
      (sorted (List.map (fun (fp : Sieve.Footprint.t) -> fp.component) footprints));
    List.iter
      (fun (fp : Sieve.Footprint.t) ->
        Alcotest.(check (list string))
          (Printf.sprintf "%s %s cached reads" label fp.component)
          (sorted
             (List.filter_map
                (fun i ->
                  if String.equal (Kube.Informer.owner i) fp.component then
                    Some (Kube.Informer.prefix i)
                  else None)
                informers))
          (sorted fp.cached_reads))
      footprints
  in
  let base = Kube.Cluster.default_config in
  check "default" base;
  check "every controller"
    {
      base with
      Kube.Cluster.with_replicaset = true;
      with_node_controller = true;
      with_deployment = true;
    };
  List.iter
    (fun (case : Sieve.Bugs.case) -> check case.Sieve.Bugs.id (Sieve.Bugs.kube_config case))
    (Sieve.Bugs.all_with_extras () @ Sieve.Bugs.replicated ())

(* The edge_triggered sets mirror the lint's edge-trigger findings: the
   kubelet's pod handler and the scheduler's node cache, nothing else. *)
let test_footprint_edge_triggered_mirrors_lint () =
  let case = Sieve.Bugs.k8s_56261 () in
  let footprints = Sieve.Footprint.of_config (Sieve.Bugs.kube_config case) in
  List.iter
    (fun (fp : Sieve.Footprint.t) ->
      let expected =
        if String.length fp.Sieve.Footprint.component >= 7
           && String.sub fp.Sieve.Footprint.component 0 7 = "kubelet"
        then [ Kube.Resource.pods_prefix ]
        else if fp.Sieve.Footprint.component = "scheduler" then
          [ Kube.Resource.nodes_prefix ]
        else []
      in
      Alcotest.(check (list string))
        (fp.Sieve.Footprint.component ^ " edge_triggered")
        expected fp.Sieve.Footprint.edge_triggered)
    footprints

(* Replication demotes quorum reads: with Follower/Spread routing the
   apiserver's quorum forwards can be served by a lagging replica, so
   the fix flags' quorum_reads evaporate into cached_reads — while the
   cached_reads lists (and hence the planner's targets) are unchanged,
   and Leader routing keeps the guard credit. *)
let test_footprint_replication () =
  let fixed_flags config =
    {
      config with
      Kube.Cluster.operator_fixed = true;
      scheduler_fixed = true;
      node_controller_fixed = true;
      deployment_fixed = true;
      with_operator = true;
      with_deployment = true;
      with_node_controller = true;
    }
  in
  let replicated read =
    {
      (fixed_flags Kube.Cluster.default_config) with
      Kube.Cluster.replication =
        Some { Kube.Etcd.read; read_fallback = `Stale };
    }
  in
  let follower = Sieve.Footprint.of_config (replicated (Replicated.Kv.Follower "etcd-3")) in
  let spread = Sieve.Footprint.of_config (replicated Replicated.Kv.Spread) in
  let leader = Sieve.Footprint.of_config (replicated Replicated.Kv.Leader) in
  let unreplicated = Sieve.Footprint.of_config (fixed_flags Kube.Cluster.default_config) in
  List.iter
    (fun (name, fps) ->
      List.iter
        (fun (fp : Sieve.Footprint.t) ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s: %s has no quorum reads" name fp.Sieve.Footprint.component)
            [] fp.Sieve.Footprint.quorum_reads)
        fps)
    [ ("follower", follower); ("spread", spread) ];
  (* Leader routing is linearizable: footprints match the unreplicated
     fixed config exactly, quorum credit included. *)
  List.iter2
    (fun (l : Sieve.Footprint.t) (u : Sieve.Footprint.t) ->
      Alcotest.(check string) "component" u.Sieve.Footprint.component l.Sieve.Footprint.component;
      Alcotest.(check (list string))
        (l.Sieve.Footprint.component ^ " leader quorum reads")
        u.Sieve.Footprint.quorum_reads l.Sieve.Footprint.quorum_reads)
    leader unreplicated;
  (* The operator's demoted quorum prefix was already a cached read, so
     cached_reads — and with them the planner's targets — are stable. *)
  List.iter2
    (fun (f : Sieve.Footprint.t) (u : Sieve.Footprint.t) ->
      Alcotest.(check (list string))
        (f.Sieve.Footprint.component ^ " cached reads unchanged by routing")
        u.Sieve.Footprint.cached_reads f.Sieve.Footprint.cached_reads)
    follower unreplicated

(* --- hazard graph -------------------------------------------------- *)

let find_hazard hazards ~pattern ~component ~prefix =
  List.find_opt
    (fun (h : Analysis.Hazard.t) ->
      h.Analysis.Hazard.pattern = pattern
      && String.equal h.Analysis.Hazard.component component
      && String.equal h.Analysis.Hazard.prefix prefix)
    hazards

let severity_of hazards ~pattern ~component ~prefix =
  match find_hazard hazards ~pattern ~component ~prefix with
  | Some h -> h.Analysis.Hazard.severity
  | None -> 0

let test_hazard_graph_content () =
  (* Bug-era operator config: the 400/402 shape is a sev-3 staleness
     hazard; the fixed config's quorum re-list closes it for pods. *)
  let ca = Sieve.Bugs.ca_402 () in
  let hazards = Analysis.Hazard.of_config (Sieve.Bugs.kube_config ca) in
  Alcotest.(check int) "cassop stale destructive pods" 3
    (severity_of hazards ~pattern:`Staleness ~component:"cassop"
       ~prefix:Kube.Resource.pods_prefix);
  Alcotest.(check int) "kubelet stale destructive pods" 3
    (severity_of hazards ~pattern:`Staleness ~component:"kubelet-1"
       ~prefix:Kube.Resource.pods_prefix);
  (* The fix's quorum re-list closes the unguarded-destructive hazard;
     the sev-2 write/write conflict on pods remains (it is structural,
     not a guard question). *)
  let fixed =
    match ca.Sieve.Bugs.fixed_spec with
    | Sieve.Substrate.Kube { config; _ } -> Analysis.Hazard.of_config config
    | _ -> Alcotest.fail "CA-402 is a kube case"
  in
  Alcotest.(check bool) "fixed operator: unguarded destructive staleness closed" true
    (severity_of fixed ~pattern:`Staleness ~component:"cassop"
       ~prefix:Kube.Resource.pods_prefix
    < 3);
  (* The scheduler's node cache is edge-triggered: maximal obs-gap. *)
  let k8s = Sieve.Bugs.k8s_56261 () in
  let hazards = Analysis.Hazard.of_config (Sieve.Bugs.kube_config k8s) in
  Alcotest.(check int) "scheduler edge-triggered nodes" 3
    (severity_of hazards ~pattern:`Obs_gap ~component:"scheduler"
       ~prefix:Kube.Resource.nodes_prefix);
  (* Restartable kubelet with destructive writes: time-travel hazard. *)
  let tt = Sieve.Bugs.k8s_59848 () in
  let hazards = Analysis.Hazard.of_config (Sieve.Bugs.kube_config tt) in
  Alcotest.(check int) "kubelet restart time travel" 2
    (severity_of hazards ~pattern:`Time_travel ~component:"kubelet-1"
       ~prefix:Kube.Resource.pods_prefix);
  (* Scoring matches by key prefix, not exact key. *)
  let ca_hazards = Analysis.Hazard.of_config (Sieve.Bugs.kube_config ca) in
  Alcotest.(check int) "score matches by prefix" 3
    (Analysis.Hazard.score ca_hazards ~component:"cassop" ~key:"pods/cass-1"
       ~pattern:`Staleness);
  Alcotest.(check int) "score 0 off-graph" 0
    (Analysis.Hazard.score ca_hazards ~component:"cassop" ~key:"locks/leader"
       ~pattern:`Staleness)

(* Lint findings become per-path hazards: one entry per evidence path,
   severity by sink class, components mapped into the runtime
   namespace, matching any key (empty prefix). Additive only —
   of_config stays byte-identical, which the journal tests pin. *)
let test_hazard_of_lint () =
  let file = Filename.concat ".." (Filename.concat "lib" (Filename.concat "kube" "deployment.ml")) in
  match Analysis.Lint.file file with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok findings -> (
      let hazards = Analysis.Hazard.of_lint findings in
      Alcotest.(check int) "one hazard per path" (List.length findings) (List.length hazards);
      match hazards with
      | [ h ] ->
          Alcotest.(check string) "runtime component name" "depctl" h.Analysis.Hazard.component;
          Alcotest.(check int) "destructive sink is sev 3" 3 h.Analysis.Hazard.severity;
          Alcotest.(check string) "pattern" "staleness"
            (Sieve.Coverage.pattern_to_string h.Analysis.Hazard.pattern);
          Alcotest.(check int) "empty prefix implicates every key" 3
            (Analysis.Hazard.score hazards ~component:"depctl" ~key:"rsets/web-1"
               ~pattern:`Staleness)
      | hs -> Alcotest.failf "expected exactly one hazard, got %d" (List.length hs))

(* --- hazard-ranked scheduling -------------------------------------- *)

(* First trial index (in dispatch order) whose execution exposes the
   case's bug, under one Campaign.plan ordering. *)
let first_exposure ~hazard_rank (case : Sieve.Bugs.case) =
  let planned = Hunt.Campaign.plan ~hazard_rank ~cases:[ case ] () in
  let n = Array.length planned.Hunt.Campaign.trials in
  let rec go i =
    if i >= n then None
    else
      let t = planned.Hunt.Campaign.trials.(i) in
      let o = Sieve.Runner.run_test t.Hunt.Campaign.test in
      if
        List.exists
          (fun (_, v) -> case.Sieve.Bugs.matches v)
          o.Sieve.Runner.violations
      then Some i
      else go (i + 1)
  in
  go 0

(* The ISSUE's acceptance bar: with --hazard-rank every corpus bug is
   still found within the planner's trial budget, and the first
   exposure is no later than greedy coverage ordering for the three
   operator bugs. (Empirically hazard ranking is currently no later on
   the whole corpus; the test pins only the guaranteed subset so planner
   evolution doesn't spuriously fail it.) *)
let test_hazard_rank_regression () =
  let operator_ids = [ "CA-398"; "CA-400"; "CA-402" ] in
  List.iter
    (fun (case : Sieve.Bugs.case) ->
      match first_exposure ~hazard_rank:true case with
      | None ->
          Alcotest.failf "%s: not exposed within the hazard-ranked budget"
            case.Sieve.Bugs.id
      | Some hazard ->
          if List.mem case.Sieve.Bugs.id operator_ids then begin
            match first_exposure ~hazard_rank:false case with
            | None ->
                Alcotest.failf "%s: not exposed within the greedy budget"
                  case.Sieve.Bugs.id
            | Some greedy ->
                if hazard > greedy then
                  Alcotest.failf "%s: hazard-ranked exposure at trial %d, greedy at %d"
                    case.Sieve.Bugs.id hazard greedy
          end)
    (Sieve.Bugs.all_with_extras ())

let suites =
  [
    ( "analysis.lint",
      [
        Alcotest.test_case "fixture: stale-write" `Quick test_fixture_stale_write;
        Alcotest.test_case "fixture: edge-trigger" `Quick test_fixture_edge_trigger;
        Alcotest.test_case "fixture: edge-trigger under the shared loop" `Quick
          test_fixture_edge_trigger_shared_loop;
        Alcotest.test_case "fixture: edge-trigger healed by an in-place walk" `Quick
          test_fixture_edge_trigger_walk;
        Alcotest.test_case "fixture: stale-resync" `Quick test_fixture_stale_resync;
        Alcotest.test_case "fixture: follower-read-then-write" `Quick
          test_fixture_follower_read;
        Alcotest.test_case "fixture: follower-read-then-write via route" `Quick
          test_fixture_follower_route;
        Alcotest.test_case "fixture: retry-no-dedup" `Quick test_fixture_retry_nodedup;
        Alcotest.test_case "fixture: zk-one-shot-watch" `Quick test_fixture_zk_watch;
        Alcotest.test_case "fixture: stale-region-assign" `Quick
          test_fixture_region_assign;
        Alcotest.test_case "no false positives on fixed twins" `Quick
          test_no_false_positives_on_fixed_twins;
        Alcotest.test_case "explain carries the evidence path" `Quick
          test_explain_evidence_path;
        Alcotest.test_case "lib/kube clean modulo baseline" `Quick test_kube_baselined;
        Alcotest.test_case "lib/hbase clean modulo baseline" `Quick test_hbase_baselined;
        Alcotest.test_case "lib/replicated clean" `Quick test_replicated_clean;
        Alcotest.test_case "baseline legacy migration" `Quick test_baseline_migration;
      ] );
    ( "analysis.footprint",
      [
        Alcotest.test_case "cached reads = planner watch sets" `Quick
          test_footprint_consistency;
        Alcotest.test_case "footprints mirror the cluster's informers" `Quick
          test_footprint_mirrors_cluster;
        Alcotest.test_case "edge_triggered mirrors lint" `Quick
          test_footprint_edge_triggered_mirrors_lint;
        Alcotest.test_case "replication demotes quorum reads" `Quick
          test_footprint_replication;
      ] );
    ( "analysis.hazard",
      [
        Alcotest.test_case "graph content" `Quick test_hazard_graph_content;
        Alcotest.test_case "lint findings become per-path hazards" `Quick
          test_hazard_of_lint;
        Alcotest.test_case "hazard rank no later than greedy" `Slow
          test_hazard_rank_regression;
      ] );
  ]
