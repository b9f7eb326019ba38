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

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | line -> go (if String.trim line = "" then acc else line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let digests_match_fixture () =
  let expected = read_lines fixture in
  let actual = lines () in
  Alcotest.(check int) "15 cases x 3 variants x 2 monitor settings" 90 (List.length expected);
  List.iter2 (fun e a -> Alcotest.(check string) "observable digest" e a) expected actual

let suites =
  [
    ( "observable",
      [ Alcotest.test_case "trace, metrics and artifact bytes match the fixture" `Quick
          digests_match_fixture ] );
  ]
