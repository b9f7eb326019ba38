(* Allocation budget: the minor words of one [Runner.run_test] per
   substrate, against test/fixtures/alloc.budget. Allocation is
   deterministic, so it is the regression gate for trial cost; a run may
   exceed its recorded figure by at most 2%. Each case runs once to warm
   up lazily built tables, then once measured. After an intended change
   of allocation, regenerate the fixture by printing [lines ()], one per
   line. *)

let case id =
  match Sieve.Bugs.find id with Some case -> case | None -> failwith ("unknown case " ^ id)

let runs =
  let open Sieve in
  [
    ("CA-402 reference", fun () -> Runner.run_test (Bugs.reference_test_of_case (case "CA-402")));
    ( "REP-STALE sieve conformance",
      fun () -> Runner.run_test ~check_conformance:true (Bugs.test_of_case (case "REP-STALE")) );
    ( "HB-ASSIGN sieve conformance",
      fun () -> Runner.run_test ~check_conformance:true (Bugs.test_of_case (case "HB-ASSIGN")) );
  ]

let minor_words run =
  ignore (run ());
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (run ()));
  Gc.minor_words () -. before

(* One line per run: "<words> <name>". *)
let lines () = List.map (fun (name, run) -> Printf.sprintf "%.0f %s" (minor_words run) name) runs

let read_budget () =
  List.map
    (fun line ->
      let i = String.index line ' ' in
      (String.sub line (i + 1) (String.length line - i - 1), float_of_string (String.sub line 0 i)))
    (Fixture.read_lines (Filename.concat "fixtures" "alloc.budget"))

let within_budget () =
  let budget = read_budget () in
  Alcotest.(check (list string))
    "one budget line per run" (List.map fst runs) (List.map fst budget);
  List.iter2
    (fun (name, run) (_, limit) ->
      let words = minor_words run in
      if words > limit *. 1.02 then
        Alcotest.failf "%s: %.0f minor words, more than 2%% over its budget of %.0f" name words
          limit)
    runs budget

let suites =
  [
    ( "alloc budget",
      [ Alcotest.test_case "one run per substrate within 2%" `Quick within_budget ] );
  ]
