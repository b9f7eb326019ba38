(* Smoke-check helper: read a JSONL trace dump from stdin, verify every
   line parses and the dump round-trips through the trace reader. Exits
   non-zero with the parse error otherwise. *)

let () =
  let input = In_channel.input_all stdin in
  match Dsim.Trace.of_jsonl input with
  | Error msg ->
      Printf.eprintf "stdin: %s\n" msg;
      exit 1
  | Ok t ->
      if Dsim.Trace.length t = 0 then begin
        prerr_endline "stdin: empty trace";
        exit 1
      end;
      (* A faithful reader reproduces the dump byte for byte. *)
      if not (String.equal (Dsim.Trace.to_jsonl t) input) then begin
        prerr_endline "stdin: re-serialization differs from input";
        exit 1
      end;
      Printf.printf "stdin: %d entries ok\n" (Dsim.Trace.length t)
