(* The crown tests: every case-study bug (i) does not fire unperturbed,
   (ii) reproduces deterministically under its Sieve strategy, and
   (iii) stays closed when the corresponding fix is enabled. Also the
   baseline generators. *)

let hit case (outcome : Sieve.Runner.outcome) =
  List.exists (fun (_, v) -> case.Sieve.Bugs.matches v) outcome.Sieve.Runner.violations

let check_case case () =
  let reference = Sieve.Runner.run_test (Sieve.Bugs.reference_test_of_case case) in
  Alcotest.(check int) "reference run clean" 0 (List.length reference.Sieve.Runner.violations);
  let sieve = Sieve.Runner.run_test (Sieve.Bugs.test_of_case case) in
  Alcotest.(check bool) "sieve strategy reproduces the bug" true (hit case sieve);
  let fixed = Sieve.Runner.run_test (Sieve.Bugs.fixed_test_of_case case) in
  Alcotest.(check bool) "fix closes the bug" false (hit case fixed)

let corpus_metadata () =
  let cases = Sieve.Bugs.all () in
  Alcotest.(check int) "five cases" 5 (List.length cases);
  Alcotest.(check (list string)) "ids"
    [ "K8s-59848"; "K8s-56261"; "CA-398"; "CA-400"; "CA-402" ]
    (List.map (fun c -> c.Sieve.Bugs.id) cases);
  (* Two known Kubernetes bugs + three new operator bugs, as in §7. *)
  Alcotest.(check bool) "find works" true (Sieve.Bugs.find "CA-400" <> None);
  Alcotest.(check bool) "find misses unknown" true (Sieve.Bugs.find "nope" = None)

let patterns_cover_section_4_2 () =
  let patterns = List.map (fun c -> c.Sieve.Bugs.pattern) (Sieve.Bugs.all ()) in
  Alcotest.(check bool) "staleness represented" true (List.mem `Staleness patterns);
  Alcotest.(check bool) "obs gap represented" true (List.mem `Obs_gap patterns);
  Alcotest.(check bool) "time travel represented" true (List.mem `Time_travel patterns)

let reproduction_is_deterministic () =
  let case = Sieve.Bugs.ca_402 () in
  let time () =
    match (Sieve.Runner.run_test (Sieve.Bugs.test_of_case case)).Sieve.Runner.violations with
    | (t, _) :: _ -> t
    | [] -> -1
  in
  let t1 = time () in
  Alcotest.(check bool) "found" true (t1 > 0);
  Alcotest.(check int) "identical timing across runs" t1 (time ())

(* Baseline generators. *)
let random_baseline_shape () =
  let strategies =
    Sieve.Baselines.random_faults ~seed:1L ~components:[ "c1"; "c2" ]
      ~apiservers:[ "api-1" ] ~horizon:1_000_000 ~n:25
  in
  Alcotest.(check int) "n strategies" 25 (List.length strategies);
  List.iter
    (fun s ->
      match s with
      | Sieve.Strategy.Combo [ Sieve.Strategy.Crash_restart _; Sieve.Strategy.Partition_window _ ] ->
          ()
      | _ -> Alcotest.fail "expected crash+partition combos")
    strategies;
  let again =
    Sieve.Baselines.random_faults ~seed:1L ~components:[ "c1"; "c2" ] ~apiservers:[ "api-1" ]
      ~horizon:1_000_000 ~n:25
  in
  Alcotest.(check bool) "seeded determinism" true (strategies = again)

let crashtuner_targets_meta_info () =
  let events =
    [
      (100, "pods/a", History.Event.Create);
      (200, "pvcs/c", History.Event.Create);
      (300, "nodes/n", History.Event.Delete);
    ]
  in
  let strategies = Sieve.Baselines.crashtuner ~events ~components:[ "x" ] in
  (* Only the pod and node events are meta-info: 2 candidates. *)
  Alcotest.(check int) "two candidates" 2 (List.length strategies);
  List.iter
    (fun s ->
      match s with
      | Sieve.Strategy.Crash_restart { victim = "x"; at; _ } ->
          Alcotest.(check bool) "crash right after commit" true (at = 2_100 || at = 2_300)
      | _ -> Alcotest.fail "expected crash/restart")
    strategies

let cofi_partitions_links () =
  let events = [ (100, "pods/a", History.Event.Create) ] in
  let strategies =
    Sieve.Baselines.cofi ~events ~components:[ "c1"; "c2" ] ~apiservers:[ "api-1"; "api-2" ]
  in
  (* links: 2 components x 2 apiservers + 2 etcd links = 6. *)
  Alcotest.(check int) "six links" 6 (List.length strategies);
  List.iter
    (fun s ->
      match s with
      | Sieve.Strategy.Partition_window { from = 100; until; _ } ->
          Alcotest.(check int) "window" 1_200_100 until
      | _ -> Alcotest.fail "expected partition windows")
    strategies

let suites =
  let case_tests =
    List.map
      (fun case ->
        Alcotest.test_case
          (Printf.sprintf "%s: ref clean, sieve reproduces, fix closes" case.Sieve.Bugs.id)
          `Slow (check_case case))
      (Sieve.Bugs.all ())
  in
  [
    ( "bugs",
      case_tests
      @ [
          Alcotest.test_case "corpus metadata" `Quick corpus_metadata;
          Alcotest.test_case "patterns cover section 4.2" `Quick patterns_cover_section_4_2;
          Alcotest.test_case "reproduction is deterministic" `Slow reproduction_is_deterministic;
          Alcotest.test_case "random baseline shape" `Quick random_baseline_shape;
          Alcotest.test_case "crashtuner targets meta-info" `Quick crashtuner_targets_meta_info;
          Alcotest.test_case "cofi partitions links" `Quick cofi_partitions_links;
        ] );
  ]
