(* Observable bytes: every corpus case, under its strategy, its reference
   run and its fixed configuration, with the conformance monitor and
   divergence tracking off and on, must render the same trace JSONL,
   metrics snapshot and run artifact as when the fixture was recorded.
   Journals carry no trace ids, causes, details or metric names; these
   digests do, so a kernel change that moves any of them fails here.
   After an intended change of observable output, regenerate the fixture
   by printing [lines ()], one per line. *)

let cases () = Sieve.Bugs.all_with_extras () @ Sieve.Bugs.replicated () @ Sieve.Bugs.hbase ()

let variants =
  [
    ("bug", Sieve.Bugs.test_of_case);
    ("reference", Sieve.Bugs.reference_test_of_case);
    ("fixed", Sieve.Bugs.fixed_test_of_case);
  ]

let digest (o : Sieve.Runner.outcome) =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          [
            Sieve.Runner.trace_jsonl o;
            Dsim.Json.to_string (Sieve.Runner.metrics_json o);
            Dsim.Json.to_string (Sieve.Runner.artifact o);
          ]))

(* One line per (case, variant, monitor): "<id> <variant> <off|on> <md5>". *)
let lines () =
  List.concat_map
    (fun (case : Sieve.Bugs.case) ->
      List.concat_map
        (fun (variant, test_of) ->
          let test = test_of case in
          List.map
            (fun monitor ->
              let on = monitor = "on" in
              let o = Sieve.Runner.run_test ~check_conformance:on ~diagnose:on test in
              Printf.sprintf "%s %s %s %s" case.Sieve.Bugs.id variant monitor (digest o))
            [ "off"; "on" ])
        variants)
    (cases ())

let fixture = Filename.concat "fixtures" "observable.digests"

let digests_match_fixture () =
  let expected = Fixture.read_lines fixture in
  let actual = lines () in
  Alcotest.(check int) "15 cases x 3 variants x 2 monitor settings" 90 (List.length expected);
  List.iter2 (fun e a -> Alcotest.(check string) "observable digest" e a) expected actual

(* Planner candidates: for every case, the plain list (the planner
   family, as campaign/coverage/explore use it) and the causal list (the
   planner+causal family, as hunt uses it), both from {!Sieve.Family}. One line per
   (case, list): "<id> <plain|causal> <count> <md5>", the md5 over each
   plan's description and rationale. Regenerate like the digests above,
   by printing [planner_lines ()]. *)
let planner_lines () =
  let digest plans =
    Printf.sprintf "%d %s" (List.length plans)
      (Digest.to_hex
         (Digest.string
            (String.concat "\n"
               (List.map
                  (fun (p : Sieve.Planner.plan) ->
                    Sieve.Strategy.describe p.strategy ^ "\t" ^ p.rationale)
                  plans))))
  in
  List.concat_map
    (fun (case : Sieve.Bugs.case) ->
      let commits = Sieve.Runner.reference_commits (Sieve.Bugs.reference_test_of_case case) in
      let family family =
        Sieve.Family.candidates family ~spec:case.Sieve.Bugs.spec ~horizon:case.Sieve.Bugs.horizon
          commits
      in
      let plain = family Sieve.Family.Planner and causal = family Sieve.Family.Planner_causal in
      [
        Printf.sprintf "%s plain %s" case.Sieve.Bugs.id (digest plain);
        Printf.sprintf "%s causal %s" case.Sieve.Bugs.id (digest causal);
      ])
    (cases ())

let planner_fixture = Filename.concat "fixtures" "planner.digests"

let planner_matches_fixture () =
  let expected = Fixture.read_lines planner_fixture in
  let actual = planner_lines () in
  Alcotest.(check int) "15 cases x plain/causal" 30 (List.length expected);
  List.iter2 (fun e a -> Alcotest.(check string) "planner digest" e a) expected actual

(* Baseline candidates: for every case, CrashTuner, CoFI and 400 seeded
   random plans over the case's own fault targets, as {!Sieve.Family}
   gives them to the CLI and the bench. One line per (case, baseline): "<id> <baseline> <count>
   <md5>", the md5 over each strategy's description. *)
let baselines_lines () =
  let digest strategies =
    Printf.sprintf "%d %s" (List.length strategies)
      (Digest.to_hex (Digest.string (String.concat "\n" (List.map Sieve.Strategy.describe strategies))))
  in
  List.concat_map
    (fun (case : Sieve.Bugs.case) ->
      let commits = Sieve.Runner.reference_commits (Sieve.Bugs.reference_test_of_case case) in
      let line name family =
        Printf.sprintf "%s %s %s" case.Sieve.Bugs.id name
          (digest
             (List.map
                (fun (p : Sieve.Planner.plan) -> p.strategy)
                (Sieve.Family.candidates family ~spec:case.Sieve.Bugs.spec
                   ~horizon:case.Sieve.Bugs.horizon commits)))
      in
      [
        line "crashtuner" Sieve.Family.Crashtuner;
        line "cofi" Sieve.Family.Cofi;
        line "random" Sieve.Family.Random;
      ])
    (cases ())

let baselines_fixture = Filename.concat "fixtures" "baselines.digests"

let baselines_match_fixture () =
  let expected = Fixture.read_lines baselines_fixture in
  Alcotest.(check int) "15 cases x 3 baselines" 45 (List.length expected);
  List.iter2
    (fun e a -> Alcotest.(check string) "baseline digest" e a)
    expected (baselines_lines ())

let suites =
  [
    ( "observable",
      [
        Alcotest.test_case "trace, metrics and artifact bytes match the fixture" `Quick
          digests_match_fixture;
        Alcotest.test_case "planner candidates and rationales match the fixture" `Quick
          planner_matches_fixture;
        Alcotest.test_case "baseline candidates match the fixture" `Quick
          baselines_match_fixture;
      ] );
  ]
