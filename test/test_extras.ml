(* Extension bug cases (EXT-RS, EXT-NC) under the corpus discipline, and
   a cross-matrix check that fixes are targeted: each fix closes its own
   bug and no fix masks a different bug's strategy. *)

let hit case (outcome : Sieve.Runner.outcome) =
  List.exists (fun (_, v) -> case.Sieve.Bugs.matches v) outcome.Sieve.Runner.violations

let check_case case () =
  let reference = Sieve.Runner.run_test (Sieve.Bugs.reference_test_of_case case) in
  Alcotest.(check int) "reference clean" 0 (List.length reference.Sieve.Runner.violations);
  let sieve = Sieve.Runner.run_test (Sieve.Bugs.test_of_case case) in
  Alcotest.(check bool) "reproduced" true (hit case sieve);
  let fixed = Sieve.Runner.run_test (Sieve.Bugs.fixed_test_of_case case) in
  Alcotest.(check bool) "fix closes" false (hit case fixed)

let extras_metadata () =
  let extras = Sieve.Bugs.extras () in
  Alcotest.(check (list string)) "ids" [ "EXT-RS"; "EXT-NC"; "EXT-DEP" ]
    (List.map (fun c -> c.Sieve.Bugs.id) extras);
  Alcotest.(check int) "all_with_extras = 8" 8 (List.length (Sieve.Bugs.all_with_extras ()));
  Alcotest.(check bool) "find resolves extras" true (Sieve.Bugs.find "EXT-RS" <> None)

(* A fix must be targeted: applying bug A's fix must not stop bug B's
   strategy from firing (they are different root causes). We spot-check
   the pair living in the same component family. *)
let fixes_are_targeted () =
  let rs_case = Sieve.Bugs.ext_rs_surplus () in
  (* Run EXT-RS's strategy against a config where only the *node
     controller* fix is applied: the surplus must still happen. *)
  let config =
    {
      (Sieve.Bugs.kube_config rs_case) with
      Kube.Cluster.with_node_controller = true;
      node_controller_fixed = true;
    }
  in
  let outcome =
    Sieve.Runner.run_test
      (Sieve.Runner.base_test ~config
         ~workload:(Sieve.Bugs.kube_workload rs_case)
         ~horizon:rs_case.Sieve.Bugs.horizon rs_case.Sieve.Bugs.sieve_strategy)
  in
  Alcotest.(check bool) "unrelated fix does not mask EXT-RS" true (hit rs_case outcome)

(* The planner, pointed at the extension scenario, finds the bug without
   being told the strategy. *)
let planner_finds_ext_rs () =
  let case = Sieve.Bugs.ext_rs_surplus () in
  let reference = Sieve.Bugs.reference_test_of_case case in
  let trials =
    Array.of_list
      (List.map
         (fun (p : Sieve.Planner.plan) ->
           (case.Sieve.Bugs.id, { reference with Sieve.Runner.strategy = p.strategy }))
         (Sieve.Family.candidates Sieve.Family.Planner ~spec:case.Sieve.Bugs.spec
            ~horizon:case.Sieve.Bugs.horizon (Sieve.Runner.reference_commits reference)))
  in
  (* Jobs 1 and 2 emit the same trials and stop at the same one. *)
  let first_hit jobs =
    let emitted = ref [] and found = ref None in
    ignore
      (Hunt.Campaign.execute ~jobs ~check_conformance:false ~stop_at:case.Sieve.Bugs.matches
         trials ~emit:(fun i violations _ ->
           emitted := i :: !emitted;
           if List.exists (fun (_, v) -> case.Sieve.Bugs.matches v) violations then
             found := Some (i + 1)));
    (List.rev !emitted, !found)
  in
  let emitted, found = first_hit 1 in
  Alcotest.(check bool)
    (Printf.sprintf "found within %d tests" (List.length emitted))
    true (found <> None);
  Alcotest.(check (pair (list int) (option int))) "jobs 2 emits what jobs 1 emits" (emitted, found)
    (first_hit 2)

let suites =
  let case_tests =
    List.map
      (fun case ->
        Alcotest.test_case
          (Printf.sprintf "%s: ref clean, sieve reproduces, fix closes" case.Sieve.Bugs.id)
          `Slow (check_case case))
      (Sieve.Bugs.extras ())
  in
  [
    ( "extras",
      case_tests
      @ [
          Alcotest.test_case "extras metadata" `Quick extras_metadata;
          Alcotest.test_case "fixes are targeted" `Slow fixes_are_targeted;
          Alcotest.test_case "planner finds EXT-RS unaided" `Slow planner_finds_ext_rs;
        ] );
  ]
