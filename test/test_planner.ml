(* Planner: component targets, causal pruning, candidate structure. *)

let targets_cover_components () =
  let targets = Sieve.Planner.targets_of_config Kube.Cluster.default_config in
  let names = List.map (fun t -> t.Sieve.Planner.component) targets in
  List.iter
    (fun expected -> Alcotest.(check bool) expected true (List.mem expected names))
    [ "kubelet-1"; "kubelet-2"; "kubelet-3"; "scheduler"; "volumectl"; "cassop" ]

let targets_respect_disabled () =
  let config = { Kube.Cluster.default_config with Kube.Cluster.with_operator = false } in
  let names =
    List.map (fun t -> t.Sieve.Planner.component) (Sieve.Planner.targets_of_config config)
  in
  Alcotest.(check bool) "no operator" false (List.mem "cassop" names);
  Alcotest.(check bool) "scheduler kept" true (List.mem "scheduler" names)

let consumed_by_filters () =
  let scheduler =
    List.find
      (fun t -> String.equal t.Sieve.Planner.component "scheduler")
      (Sieve.Planner.targets_of_config Kube.Cluster.default_config)
  in
  Alcotest.(check bool) "consumes nodes" true (Sieve.Planner.consumed_by scheduler "nodes/n");
  Alcotest.(check bool) "consumes pods" true (Sieve.Planner.consumed_by scheduler "pods/p");
  Alcotest.(check bool) "ignores claims" false (Sieve.Planner.consumed_by scheduler "pvcs/c")

let events = [ (1_000, "pods/a", History.Event.Create); (2_000, "nodes/n", History.Event.Delete) ]

let candidates_cover_three_patterns () =
  let plans =
    Sieve.Planner.candidates ~config:Kube.Cluster.default_config ~events ~horizon:1_000_000 ()
  in
  let patterns =
    List.sort_uniq compare (List.map (fun p -> Sieve.Strategy.pattern p.Sieve.Planner.strategy) plans)
  in
  Alcotest.(check bool) "obs gap present" true (List.mem `Obs_gap patterns);
  Alcotest.(check bool) "staleness present" true (List.mem `Staleness patterns);
  Alcotest.(check bool) "time travel present" true (List.mem `Time_travel patterns);
  Alcotest.(check bool) "non-empty rationale" true
    (List.for_all (fun p -> p.Sieve.Planner.rationale <> "") plans)

let candidates_prune_by_consumption () =
  (* With only claims changing, kubelets (which watch pods only) must not
     be targeted. *)
  let claim_events = [ (1_000, "pvcs/c", History.Event.Create) ] in
  let plans =
    Sieve.Planner.candidates ~config:Kube.Cluster.default_config ~events:claim_events
      ~horizon:1_000_000 ()
  in
  let mentions_kubelet p =
    let s = Sieve.Strategy.describe p.Sieve.Planner.strategy in
    let has_sub needle hay =
      let n = String.length needle and h = String.length hay in
      let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
      go 0
    in
    has_sub "kubelet" s
  in
  Alcotest.(check bool) "no kubelet candidates" false (List.exists mentions_kubelet plans)

let duplicate_anchors_collapsed () =
  let duplicated =
    [ (1_000, "pods/a", History.Event.Create); (2_000, "pods/a", History.Event.Create) ]
  in
  let count evs =
    List.length
      (Sieve.Planner.candidates ~config:Kube.Cluster.default_config ~events:evs
         ~horizon:1_000_000 ())
  in
  Alcotest.(check int) "second occurrence adds nothing"
    (count [ (1_000, "pods/a", History.Event.Create) ])
    (count duplicated)

let first_candidates_are_diverse () =
  let plans =
    Sieve.Planner.candidates ~config:Kube.Cluster.default_config ~events ~horizon:1_000_000 ()
  in
  match plans with
  | a :: b :: c :: _ ->
      let ps =
        List.sort_uniq compare
          (List.map (fun p -> Sieve.Strategy.pattern p.Sieve.Planner.strategy) [ a; b; c ])
      in
      Alcotest.(check int) "first three span the patterns" 3 (List.length ps)
  | _ -> Alcotest.fail "expected at least 3 candidates"

let suites =
  [
    ( "planner",
      [
        Alcotest.test_case "targets cover components" `Quick targets_cover_components;
        Alcotest.test_case "targets respect disabled" `Quick targets_respect_disabled;
        Alcotest.test_case "consumed_by filters" `Quick consumed_by_filters;
        Alcotest.test_case "candidates cover three patterns" `Quick
          candidates_cover_three_patterns;
        Alcotest.test_case "candidates prune by consumption" `Quick
          candidates_prune_by_consumption;
        Alcotest.test_case "duplicate anchors collapsed" `Quick duplicate_anchors_collapsed;
        Alcotest.test_case "first candidates are diverse" `Quick first_candidates_are_diverse;
      ] );
  ]
