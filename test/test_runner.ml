(* Test runner, and campaigns through the engine ([Hunt.Campaign.execute]). *)

let simple_test strategy =
  Sieve.Runner.base_test ~config:Kube.Cluster.default_config
    ~workload:(Kube.Workload.pod_churn ~n:1 ())
    ~horizon:5_000_000 strategy

let run_test_isolated () =
  let outcome = Sieve.Runner.run_test (simple_test Sieve.Strategy.No_perturbation) in
  Alcotest.(check bool) "committed something" true (outcome.Sieve.Runner.truth_rev > 0);
  Alcotest.(check int) "clean" 0 (List.length outcome.Sieve.Runner.violations)

let reference_events_ordered () =
  let commits = Sieve.Runner.reference_commits (simple_test Sieve.Strategy.No_perturbation) in
  Alcotest.(check bool) "non-empty" true (commits <> []);
  let times = List.map (fun (c : Sieve.Runner.commit) -> c.time) commits in
  Alcotest.(check (list int)) "chronological" (List.sort compare times) times;
  Alcotest.(check bool) "contains the pod create" true
    (List.exists
       (fun (c : Sieve.Runner.commit) -> c.key = "pods/churn-0" && c.op = History.Event.Create)
       commits)

let reference_ignores_strategy () =
  (* reference_commits must run unperturbed even when the test carries a
     violent strategy. *)
  let test =
    simple_test (Sieve.Strategy.Crash_restart { victim = "kubelet-1"; at = 0; downtime = 10_000_000 })
  in
  let with_strategy = Sieve.Runner.reference_commits test in
  let without = Sieve.Runner.reference_commits (simple_test Sieve.Strategy.No_perturbation) in
  Alcotest.(check int) "same event count" (List.length without) (List.length with_strategy)

(* Runs the trials through the engine at jobs 1 and at jobs 2, checks
   that both emit the same sequence, and returns it: each emitted
   trial's index, whether a violation of it satisfies [target], and its
   described violations, in emit order. *)
let emitted ~target ?stop_at trials =
  let at jobs =
    let out = ref [] in
    ignore
      (Hunt.Campaign.execute ~jobs ~check_conformance:false ?stop_at trials
         ~emit:(fun i violations _ ->
           out :=
             ( i,
               List.exists (fun (_, v) -> target v) violations,
               List.map (fun (time, v) -> (time, Sieve.Oracle.describe v)) violations )
             :: !out));
    List.rev !out
  in
  let sequential = at 1 in
  Alcotest.(check (list (triple int bool (list (pair int string)))))
    "jobs 2 emits what jobs 1 emits" sequential (at 2);
  sequential

let index (i, _, _) = i

let hit (_, hit, _) = hit

(* Trials of K8s-56261: its corpus strategy at the given indices, its
   unperturbed reference everywhere else. *)
let k8s_56261_trials n ~sieve_at =
  let case = Sieve.Bugs.k8s_56261 () in
  ( case,
    Array.init n (fun i ->
        ( case.Sieve.Bugs.id,
          if List.mem i sieve_at then Sieve.Bugs.test_of_case case
          else Sieve.Bugs.reference_test_of_case case )) )

let livelock = function Sieve.Oracle.Scheduler_livelock _ -> true | _ -> false

let campaign_stops_at_first_hit () =
  let case, trials = k8s_56261_trials 10 ~sieve_at:[ 2 ] in
  let out = emitted ~target:livelock ~stop_at:case.Sieve.Bugs.matches trials in
  Alcotest.(check (list int)) "stopped at the third trial" [ 0; 1; 2 ] (List.map index out);
  Alcotest.(check (list bool)) "a livelock at the last one only" [ false; false; true ]
    (List.map hit out)

let campaign_exhausts_on_miss () =
  let case, trials = k8s_56261_trials 3 ~sieve_at:[] in
  let out = emitted ~target:case.Sieve.Bugs.matches ~stop_at:case.Sieve.Bugs.matches trials in
  Alcotest.(check (list int)) "all ran" [ 0; 1; 2 ] (List.map index out);
  Alcotest.(check bool) "nothing found" false (List.exists hit out)

let campaign_reports_all_within_budget () =
  (* Without the stop the engine emits every trial, every hit among
     them; with it, the run ends at the first hit. *)
  let case, trials = k8s_56261_trials 5 ~sieve_at:[ 1; 3 ] in
  let out = emitted ~target:case.Sieve.Bugs.matches trials in
  Alcotest.(check (list int)) "full list" [ 0; 1; 2; 3; 4 ] (List.map index out);
  Alcotest.(check (list int)) "every hit" [ 1; 3 ] (List.map index (List.filter hit out));
  let stopped = emitted ~target:case.Sieve.Bugs.matches ~stop_at:case.Sieve.Bugs.matches trials in
  Alcotest.(check (list int)) "stopping run ends early" [ 0; 1 ] (List.map index stopped);
  Alcotest.(check bool) "the stopping run is a prefix of the full one" true
    (stopped = List.filteri (fun i _ -> i < 2) out)

let campaign_target_filters () =
  (* The 56261 sieve test produces a livelock; a target looking for
     duplicates must not stop the run. *)
  let _, trials = k8s_56261_trials 2 ~sieve_at:[ 0; 1 ] in
  let duplicate = function Sieve.Oracle.Duplicate_pod _ -> true | _ -> false in
  let out = emitted ~target:duplicate ~stop_at:duplicate trials in
  Alcotest.(check (list int)) "not stopped under a wrong target" [ 0; 1 ] (List.map index out);
  Alcotest.(check bool) "no hit" false (List.exists hit out);
  Alcotest.(check bool) "violations still reported" true
    (List.for_all (fun (_, _, violations) -> violations <> []) out)

(* The engine against the loop it replaced: the family's candidates run
   straight, one at a time, until the first whose violations hit the
   case's bug. Returns the number of tests run, or None on a miss. *)
let first_hit_straight case family =
  let reference = Sieve.Bugs.reference_test_of_case case in
  let plans =
    Sieve.Family.candidates family ~spec:case.Sieve.Bugs.spec ~horizon:case.Sieve.Bugs.horizon
      (Sieve.Runner.reference_commits reference)
  in
  let rec go tests = function
    | [] -> None
    | (p : Sieve.Planner.plan) :: rest ->
        let outcome = Sieve.Runner.run_test { reference with Sieve.Runner.strategy = p.strategy } in
        if List.exists (fun (_, v) -> case.Sieve.Bugs.matches v) outcome.Sieve.Runner.violations
        then Some (tests + 1)
        else go (tests + 1) rest
  in
  go 0 plans

let first_hit_engine case family =
  let reference = Sieve.Bugs.reference_test_of_case case in
  let trials =
    Array.of_list
      (List.map
         (fun (p : Sieve.Planner.plan) ->
           (case.Sieve.Bugs.id, { reference with Sieve.Runner.strategy = p.strategy }))
         (Sieve.Family.candidates family ~spec:case.Sieve.Bugs.spec
            ~horizon:case.Sieve.Bugs.horizon (Sieve.Runner.reference_commits reference)))
  in
  match List.rev (emitted ~target:case.Sieve.Bugs.matches ~stop_at:case.Sieve.Bugs.matches trials) with
  | (last, true, _) :: _ -> Some (last + 1)
  | _ -> None

let engine_first_hit_matches_straight_loop () =
  List.iter
    (fun (case, family, name, expected) ->
      let label = Printf.sprintf "%s %s" case.Sieve.Bugs.id name in
      Alcotest.(check (option int)) (label ^ ": straight loop") (Some expected)
        (first_hit_straight case family);
      Alcotest.(check (option int)) (label ^ ": engine") (Some expected)
        (first_hit_engine case family))
    [
      (Sieve.Bugs.k8s_59848 (), Sieve.Family.Planner, "planner", 60);
      (Sieve.Bugs.ext_rs_surplus (), Sieve.Family.Cofi, "cofi", 61);
      (Sieve.Bugs.ca_398 (), Sieve.Family.Random, "random", 121);
    ]

let suites =
  [
    ( "runner",
      [
        Alcotest.test_case "run_test isolated" `Quick run_test_isolated;
        Alcotest.test_case "reference events ordered" `Quick reference_events_ordered;
        Alcotest.test_case "reference ignores strategy" `Quick reference_ignores_strategy;
        Alcotest.test_case "campaign stops at first hit" `Quick campaign_stops_at_first_hit;
        Alcotest.test_case "campaign exhausts on miss" `Quick campaign_exhausts_on_miss;
        Alcotest.test_case "campaign reports all within budget" `Quick
          campaign_reports_all_within_budget;
        Alcotest.test_case "campaign target filters" `Quick campaign_target_filters;
        Alcotest.test_case "engine first hit = straight loop" `Slow
          engine_first_hit_matches_straight_loop;
      ] );
  ]
