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
