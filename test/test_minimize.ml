(* Strategy minimization: shrink proposals and the greedy loop. *)

let shrinks_combo_by_dropping_parts () =
  let combo =
    Sieve.Strategy.Combo
      [
        Sieve.Strategy.Crash_restart { victim = "a"; at = 0; downtime = 40_000 };
        Sieve.Strategy.Partition_window { a = "x"; b = "y"; from = 0; until = 100_000 };
      ]
  in
  let candidates = Sieve.Minimize.shrink_candidates combo in
  (* Dropping either part yields the other, bare. *)
  Alcotest.(check bool) "contains bare crash" true
    (List.exists
       (function Sieve.Strategy.Crash_restart { victim = "a"; _ } -> true | _ -> false)
       candidates);
  Alcotest.(check bool) "contains bare partition" true
    (List.exists
       (function Sieve.Strategy.Partition_window _ -> true | _ -> false)
       candidates)

let shrinks_windows_and_magnitudes () =
  let drop =
    Sieve.Strategy.observability_gap ~dst:"c" ~from:0 ~until:1_000_000 ()
  in
  let candidates = Sieve.Minimize.shrink_candidates drop in
  Alcotest.(check bool) "narrower windows proposed" true
    (List.exists
       (function
         | Sieve.Strategy.Drop_events { from; until; _ } -> until - from < 1_000_000
         | _ -> false)
       candidates);
  Alcotest.(check bool) "limit-1 variant proposed" true
    (List.exists
       (function
         | Sieve.Strategy.Drop_events { matching = { Sieve.Strategy.limit = Some 1; _ }; _ } ->
             true
         | _ -> false)
       candidates)

let unbounded_partition_becomes_finite () =
  let p = Sieve.Strategy.Partition_window { a = "x"; b = "y"; from = 10; until = max_int } in
  match Sieve.Minimize.shrink_candidates p with
  | [ Sieve.Strategy.Partition_window { until; _ } ] ->
      Alcotest.(check bool) "finite" true (until < max_int)
  | _ -> Alcotest.fail "expected one finite variant"

let no_shrink_for_nothing () =
  Alcotest.(check int) "no candidates" 0
    (List.length (Sieve.Minimize.shrink_candidates Sieve.Strategy.No_perturbation))

let minimize_keeps_failure () =
  let case = Sieve.Bugs.k8s_56261 () in
  let test = Sieve.Bugs.test_of_case case in
  let minimized, cost = Sieve.Minimize.minimize ~test ~target:case.Sieve.Bugs.matches () in
  Alcotest.(check bool) "spent some executions" true (cost > 1);
  (* The minimized strategy must still reproduce. *)
  let outcome = Sieve.Runner.run_test minimized in
  Alcotest.(check bool) "still fails" true
    (List.exists (fun (_, v) -> case.Sieve.Bugs.matches v) outcome.Sieve.Runner.violations);
  (* ... and must be no bigger: for 56261 it should pin the limit to 1. *)
  match minimized.Sieve.Runner.strategy with
  | Sieve.Strategy.Drop_events { matching = { Sieve.Strategy.limit = Some 1; _ }; _ } -> ()
  | s -> Alcotest.fail ("expected a limit-1 drop, got " ^ Sieve.Strategy.describe s)

let minimize_rejects_non_failing_input () =
  let case = Sieve.Bugs.k8s_56261 () in
  let test = Sieve.Bugs.reference_test_of_case case in
  let minimized, cost = Sieve.Minimize.minimize ~test ~target:case.Sieve.Bugs.matches () in
  Alcotest.(check int) "one execution only" 1 cost;
  Alcotest.(check bool) "unchanged" true
    (minimized.Sieve.Runner.strategy = Sieve.Strategy.No_perturbation)

(* With [~exposed:true] the loop takes the caller's word that the test
   fails instead of simulating it: on a failing test it returns exactly
   what the simulating loop does, one run fewer, and on the clean
   reference run it goes on to try every shrink candidate, which a
   simulated first verdict would have stopped. *)
let minimize_trusts_exposed () =
  let case = Sieve.Bugs.k8s_56261 () in
  let target = case.Sieve.Bugs.matches in
  let shrink ~test ~exposed =
    Sieve.Minimize.shrink ~prefix:None ~test ~target ~budget:200 ~exposed
  in
  let test = Sieve.Bugs.test_of_case case in
  let simulated = shrink ~test ~exposed:false in
  let trusted = shrink ~test ~exposed:true in
  Alcotest.(check string) "same minimized strategy"
    (Sieve.Strategy.describe simulated.test.Sieve.Runner.strategy)
    (Sieve.Strategy.describe trusted.test.Sieve.Runner.strategy);
  Alcotest.(check int) "same executions counted" simulated.executions trusted.executions;
  Alcotest.(check int) "one run fewer" (simulated.simulated - 1) trusted.simulated;
  let harmless = Sieve.Strategy.observability_gap ~dst:"nobody" ~from:0 ~until:1 () in
  let clean = { (Sieve.Bugs.reference_test_of_case case) with Sieve.Runner.strategy = harmless } in
  Alcotest.(check int) "simulated: clean at once" 1
    (shrink ~test:clean ~exposed:false).executions;
  Alcotest.(check int) "trusted: every candidate tried"
    (1 + List.length (Sieve.Minimize.shrink_candidates harmless))
    (shrink ~test:clean ~exposed:true).executions

let minimize_is_idempotent_on_corpus () =
  (* A minimized plan is a fixpoint: the greedy loop ran out of shrink
     candidates that still reproduce, so a second pass must return the
     plan unchanged (cost > 1 allowed — it re-verifies candidates). *)
  List.iter
    (fun case ->
      let test = Sieve.Bugs.test_of_case case in
      let once, _ = Sieve.Minimize.minimize ~test ~target:case.Sieve.Bugs.matches () in
      let twice, _ = Sieve.Minimize.minimize ~test:once ~target:case.Sieve.Bugs.matches () in
      Alcotest.(check string)
        (case.Sieve.Bugs.id ^ " minimization is idempotent")
        (Sieve.Strategy.describe once.Sieve.Runner.strategy)
        (Sieve.Strategy.describe twice.Sieve.Runner.strategy))
    (Sieve.Bugs.all_with_extras ())

let minimize_respects_budget () =
  let case = Sieve.Bugs.k8s_59848 () in
  let test = Sieve.Bugs.test_of_case case in
  let _, cost = Sieve.Minimize.minimize ~test ~target:case.Sieve.Bugs.matches ~budget:5 () in
  Alcotest.(check bool) "bounded" true (cost <= 5)

(* The greedy loop as it ran before verdicts were cached: every
   candidate is simulated, repeats included. Returns the minimized
   strategy, the executions and every strategy simulated, in order. *)
let uncached_minimize ~(test : Sieve.Runner.test) ~target ~budget =
  let simulated = ref [] in
  let fails strategy =
    simulated := strategy :: !simulated;
    let outcome = Sieve.Runner.run_test { test with Sieve.Runner.strategy } in
    List.exists (fun (_, v) -> target v) outcome.Sieve.Runner.violations
  in
  let executions = ref 1 in
  let current = ref test.Sieve.Runner.strategy in
  if fails !current then begin
    let progress = ref true in
    while !progress && !executions < budget do
      progress := false;
      let rec try_candidates = function
        | [] -> ()
        | candidate :: rest ->
            if !executions < budget then begin
              incr executions;
              if fails candidate then begin
                current := candidate;
                progress := true
              end
              else try_candidates rest
            end
      in
      try_candidates (Sieve.Minimize.shrink_candidates !current)
    done
  end;
  (!current, !executions, List.rev !simulated)

(* K8s-59848's combo proposes a rejected part again in later rounds. The
   minimizer simulates each distinct candidate once and still reports
   every evaluation, so shrink_runs keep their value. *)
let minimize_simulates_repeats_once () =
  let case = Sieve.Bugs.k8s_59848 () in
  let test = Sieve.Bugs.test_of_case case in
  let target = case.Sieve.Bugs.matches in
  let expect, expect_runs, simulated = uncached_minimize ~test ~target ~budget:200 in
  let distinct = List.length (List.sort_uniq compare simulated) in
  Alcotest.(check bool) "candidate lists repeat a strategy" true
    (distinct < List.length simulated);
  let minimized, shrink_runs = Sieve.Minimize.minimize ~test ~target () in
  Alcotest.(check bool) "same minimized strategy" true
    (minimized.Sieve.Runner.strategy = expect);
  Alcotest.(check int) "same shrink_runs" expect_runs shrink_runs;
  let calls = ref 0 in
  let fails strategy =
    incr calls;
    let outcome = Sieve.Runner.run_test { test with Sieve.Runner.strategy } in
    List.exists (fun (_, v) -> target v) outcome.Sieve.Runner.violations
  in
  let strategy, runs = Sieve.Minimize.greedy ~budget:200 ~fails test.Sieve.Runner.strategy in
  Alcotest.(check bool) "greedy agrees" true (strategy = expect && runs = expect_runs);
  Alcotest.(check int) "one simulation per distinct candidate" distinct !calls

let suites =
  [
    ( "minimize",
      [
        Alcotest.test_case "shrinks combo by dropping parts" `Quick
          shrinks_combo_by_dropping_parts;
        Alcotest.test_case "shrinks windows and magnitudes" `Quick
          shrinks_windows_and_magnitudes;
        Alcotest.test_case "unbounded partition becomes finite" `Quick
          unbounded_partition_becomes_finite;
        Alcotest.test_case "no shrink for no-perturbation" `Quick no_shrink_for_nothing;
        Alcotest.test_case "minimize keeps failure (56261)" `Slow minimize_keeps_failure;
        Alcotest.test_case "minimize rejects non-failing input" `Quick
          minimize_rejects_non_failing_input;
        Alcotest.test_case "minimize respects budget" `Slow minimize_respects_budget;
        Alcotest.test_case "minimize takes an exposed test's verdict" `Slow minimize_trusts_exposed;
        Alcotest.test_case "repeated candidates simulated once" `Slow
          minimize_simulates_repeats_once;
        Alcotest.test_case "minimize is idempotent on the corpus" `Slow
          minimize_is_idempotent_on_corpus;
      ] );
  ]
