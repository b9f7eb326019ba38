(* The non-blank lines of a fixture file, in order. Tests run from the
   test directory, so [path] is relative to it (fixtures/...). *)
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

(* A case's focused strategy against its fixed spec: the third run of
   [Sieve.Bugs.reproduce], with its name. *)
let fixed_test_of_case (case : Sieve.Bugs.case) =
  {
    (Sieve.Bugs.test_of_case case) with
    Sieve.Runner.name = case.Sieve.Bugs.id ^ "/fixed";
    spec = case.Sieve.Bugs.fixed_spec;
  }
