let of_violation v =
  Printf.sprintf "%s/%s/%s" (Sieve.Oracle.bug_id v)
    (String.concat "+" (Sieve.Oracle.components v))
    (Sieve.Oracle.key v)

let to_dirname s =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.' | '_' -> c | _ -> '_')
    s

let of_conformance (v : Conformance.Monitor.violation) =
  let subject =
    match String.index_opt v.Conformance.Monitor.subject '@' with
    | Some i -> String.sub v.Conformance.Monitor.subject 0 i
    | None -> v.Conformance.Monitor.subject
  in
  Printf.sprintf "conformance/%s/%s"
    (Conformance.Monitor.code_to_string v.Conformance.Monitor.code)
    subject
