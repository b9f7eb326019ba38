(* Structured trace entries: ring-buffer eviction, cause links / chain
   extraction, and the JSONL round-trip. *)

let emit t ?(cause = Dsim.Trace.no_cause) detail =
  Dsim.Trace.emit t ~time:0 ~actor:"a" ~kind:"k" ~cause detail

let record t ?cause detail = ignore (emit t ?cause detail)

let details t = List.map (fun e -> e.Dsim.Trace.detail) (Dsim.Trace.entries t)

let ids_grow_from_one () =
  let t = Dsim.Trace.create () in
  Alcotest.(check int) "first id" 1 (emit t "one");
  Alcotest.(check int) "second id" 2 (emit t "two");
  record t "three";
  Alcotest.(check int) "length" 3 (Dsim.Trace.length t);
  Alcotest.(check int) "recorded" 3 (Dsim.Trace.recorded t);
  Alcotest.(check int) "dropped" 0 (Dsim.Trace.dropped t)

let ring_evicts_oldest_in_order () =
  let t = Dsim.Trace.create ~capacity:3 () in
  List.iter (record t) [ "e1"; "e2"; "e3"; "e4"; "e5" ];
  Alcotest.(check (list string)) "retained suffix" [ "e3"; "e4"; "e5" ] (details t);
  Alcotest.(check int) "length" 3 (Dsim.Trace.length t);
  Alcotest.(check int) "recorded" 5 (Dsim.Trace.recorded t);
  Alcotest.(check int) "dropped" 2 (Dsim.Trace.dropped t);
  Alcotest.(check bool) "evicted id gone" true (Dsim.Trace.find t ~id:1 = None);
  Alcotest.(check bool) "live id found" true (Dsim.Trace.find t ~id:4 <> None)

let ring_capacity_validated () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Trace.create: capacity must be positive") (fun () ->
      ignore (Dsim.Trace.create ~capacity:0 ()))

let unbounded_mode_never_drops () =
  let t = Dsim.Trace.create () in
  for i = 1 to 1000 do
    record t (string_of_int i)
  done;
  Alcotest.(check int) "all live" 1000 (Dsim.Trace.length t);
  Alcotest.(check int) "none dropped" 0 (Dsim.Trace.dropped t);
  Alcotest.(check bool) "capacity none" true (Dsim.Trace.capacity t = None)

let chain_walks_cause_links () =
  let t = Dsim.Trace.create () in
  let a = emit t "commit" in
  let b = emit t ~cause:a "deliver" in
  let _noise = emit t "unrelated" in
  record t ~cause:b "violation";
  let violation =
    match Dsim.Trace.find_all t ~kind:"k" with
    | entries -> List.nth entries (List.length entries - 1)
  in
  let chain = Dsim.Trace.chain t ~id:violation.Dsim.Trace.id in
  Alcotest.(check (list string))
    "oldest first, noise excluded" [ "commit"; "deliver"; "violation" ]
    (List.map (fun e -> e.Dsim.Trace.detail) chain)

let chain_stops_at_evicted_cause () =
  let t = Dsim.Trace.create ~capacity:2 () in
  let a = emit t "e1" in
  let b = emit t ~cause:a "e2" in
  let c = emit t ~cause:b "e3" in
  (* e1 was evicted by e3: the walk must stop at the ring's horizon. *)
  let chain = Dsim.Trace.chain t ~id:c in
  Alcotest.(check (list string))
    "truncated at horizon" [ "e2"; "e3" ]
    (List.map (fun e -> e.Dsim.Trace.detail) chain)

let chain_survives_cycles () =
  let t = Dsim.Trace.create () in
  (* Forged forward reference making 1 <-> 2 a cycle; chain must still
     terminate. *)
  record t ~cause:2 "e1";
  record t ~cause:1 "e2";
  let chain = Dsim.Trace.chain t ~id:2 in
  Alcotest.(check bool) "terminates, non-empty" true (List.length chain >= 2)

let chain_of_unknown_id_empty () =
  let t = Dsim.Trace.create () in
  record t "only";
  Alcotest.(check int) "empty" 0 (List.length (Dsim.Trace.chain t ~id:99))

let clear_restarts_ids () =
  let t = Dsim.Trace.create () in
  ignore (emit t "x");
  Dsim.Trace.clear t;
  Alcotest.(check int) "ids restart" 1 (emit t "y");
  Alcotest.(check int) "recorded restarts" 1 (Dsim.Trace.recorded t)

let jsonl_round_trip () =
  let t = Dsim.Trace.create () in
  let a =
    Dsim.Trace.emit t ~time:0 ~actor:"etcd" ~kind:"etcd.commit" ~cause:Dsim.Trace.no_cause
      "rev 1 \"quoted\""
  in
  let b = Dsim.Trace.emit t ~time:120 ~actor:"api-1" ~kind:"pipe.deliver" ~cause:a "ev" in
  ignore
    (Dsim.Trace.emit t ~time:5000 ~actor:"oracle" ~kind:"oracle.violation" ~cause:b
       "[K8s-0] control\ncharacters");
  match Dsim.Trace.of_jsonl (Dsim.Trace.to_jsonl t) with
  | Error msg -> Alcotest.failf "round trip failed: %s" msg
  | Ok t' ->
      Alcotest.(check bool) "entries preserved" true
        (Dsim.Trace.entries t = Dsim.Trace.entries t');
      (* Ids survive the trip, so chains still resolve on the import. *)
      let violation = List.nth (Dsim.Trace.entries t') 2 in
      Alcotest.(check int) "chain on import" 3
        (List.length (Dsim.Trace.chain t' ~id:violation.Dsim.Trace.id))

let jsonl_rejects_malformed_line () =
  let good = {|{"id":1,"time":0,"actor":"a","kind":"k","detail":"d","cause":null}|} in
  (match Dsim.Trace.of_jsonl (good ^ "\n" ^ "{not json}\n") with
  | Ok _ -> Alcotest.fail "accepted malformed line"
  | Error msg ->
      Alcotest.(check bool) "error names the line" true
        (String.length msg >= 6 && String.equal (String.sub msg 0 6) "line 2"));
  (* Ids start at 1, so a cause of 0 or below names no entry. *)
  let no_entry = {|{"id":2,"time":0,"actor":"a","kind":"k","detail":"d","cause":0}|} in
  (match Dsim.Trace.of_jsonl (good ^ "\n" ^ no_entry) with
  | Ok _ -> Alcotest.fail "accepted cause 0"
  | Error msg ->
      Alcotest.(check bool) "cause error names the line" true
        (String.starts_with ~prefix:"line 2" msg));
  let next = {|{"id":2,"time":0,"actor":"a","kind":"k","detail":"d","cause":1}|} in
  match Dsim.Trace.of_jsonl (good ^ "\n\n" ^ next ^ "\n") with
  | Ok t -> Alcotest.(check int) "blank lines skipped" 2 (Dsim.Trace.length t)
  | Error msg -> Alcotest.failf "rejected blank line: %s" msg

let jsonl_rejects_non_increasing_id () =
  let line id = Printf.sprintf {|{"id":%d,"time":0,"actor":"a","kind":"k","detail":"d","cause":null}|} id in
  List.iter
    (fun (ids, bad_line) ->
      match Dsim.Trace.of_jsonl (String.concat "\n" (List.map line ids)) with
      | Ok _ -> Alcotest.failf "accepted ids %s" (String.concat "," (List.map string_of_int ids))
      | Error msg ->
          let prefix = Printf.sprintf "line %d:" bad_line in
          Alcotest.(check bool) (msg ^ " names " ^ prefix) true
            (String.starts_with ~prefix msg))
    [ ([ 1; 2; 2 ], 3); ([ 3; 1 ], 2); ([ 0 ], 1) ]

let find_with_gaps () =
  (* An imported trace may skip ids: lookups fall back to binary search. *)
  let line id cause =
    Printf.sprintf {|{"id":%d,"time":0,"actor":"a","kind":"k%d","detail":"d","cause":%s}|} id id
      (match cause with Some c -> string_of_int c | None -> "null")
  in
  let input = String.concat "\n" [ line 2 None; line 5 (Some 2); line 6 None; line 9 (Some 5) ] in
  match Dsim.Trace.of_jsonl input with
  | Error msg -> Alcotest.failf "rejected gapped ids: %s" msg
  | Ok t ->
      List.iter
        (fun id ->
          Alcotest.(check (option int)) (Printf.sprintf "find %d" id)
            (if List.mem id [ 2; 5; 6; 9 ] then Some id else None)
            (Option.map (fun e -> e.Dsim.Trace.id) (Dsim.Trace.find t ~id)))
        (List.init 12 Fun.id);
      Alcotest.(check (list int)) "chain across gaps" [ 2; 5; 9 ]
        (List.map (fun e -> e.Dsim.Trace.id) (Dsim.Trace.chain t ~id:9))

let find_first_kind () =
  let t = Dsim.Trace.create ~capacity:3 () in
  List.iter
    (fun (kind, detail) ->
      ignore (Dsim.Trace.emit t ~time:0 ~actor:"a" ~kind ~cause:Dsim.Trace.no_cause detail))
    [ ("x", "evicted"); ("y", "y1"); ("x", "x2"); ("x", "x3") ];
  let detail = Option.map (fun e -> e.Dsim.Trace.detail) in
  Alcotest.(check (option string)) "oldest live x" (Some "x2")
    (detail (Dsim.Trace.find_first t ~kind:"x"));
  Alcotest.(check (option string)) "y" (Some "y1") (detail (Dsim.Trace.find_first t ~kind:"y"));
  Alcotest.(check (option string)) "absent" None (detail (Dsim.Trace.find_first t ~kind:"z"))

(* --- details rendered on read ------------------------------------------
   A deferred detail is a closure the reads call; it must read exactly as
   the same text recorded eagerly would. *)

let deferred_not_rendered_at_record () =
  let t = Dsim.Trace.create () in
  let renders = ref 0 in
  let render () =
    incr renders;
    "rev 1 @1 create pods/a"
  in
  let id =
    Dsim.Trace.emit_deferred t ~time:0 ~actor:"etcd" ~kind:"etcd.commit"
      ~cause:Dsim.Trace.no_cause render
  in
  Alcotest.(check int) "not rendered at record time" 0 !renders;
  Alcotest.(check int) "counted" 1 (Dsim.Trace.recorded t);
  Alcotest.(check (option string)) "rendered by find" (Some "rev 1 @1 create pods/a")
    (Option.map (fun e -> e.Dsim.Trace.detail) (Dsim.Trace.find t ~id));
  Alcotest.(check int) "once per read" 1 !renders

(* The same three entries, details deferred in one trace and text in the
   other. *)
let twin_traces () =
  let entries =
    [
      ("etcd", "etcd.commit", "rev 1 @1 create pods/a");
      ("api-1", "pipe.deliver", "etcd->api-1 @1 create pods/a");
      ("oracle", "oracle.violation", "[K8s-0] \"quoted\"\ncontrol");
    ]
  in
  let build deferred =
    let t = Dsim.Trace.create () in
    ignore
      (List.fold_left
         (fun cause (actor, kind, detail) ->
           if deferred then
             Dsim.Trace.emit_deferred t ~time:(10 * cause) ~actor ~kind ~cause (fun () -> detail)
           else Dsim.Trace.emit t ~time:(10 * cause) ~actor ~kind ~cause detail)
         Dsim.Trace.no_cause entries);
    t
  in
  (build true, build false)

let deferred_reads_as_text () =
  let deferred, text = twin_traces () in
  let jsonl = Dsim.Trace.to_jsonl text in
  Alcotest.(check string) "to_jsonl" jsonl (Dsim.Trace.to_jsonl deferred);
  (match Dsim.Trace.of_jsonl (Dsim.Trace.to_jsonl deferred) with
  | Ok t -> Alcotest.(check string) "of_jsonl round trip" jsonl (Dsim.Trace.to_jsonl t)
  | Error msg -> Alcotest.failf "round trip failed: %s" msg);
  Alcotest.(check string) "pp"
    (Format.asprintf "%a" Dsim.Trace.pp text)
    (Format.asprintf "%a" Dsim.Trace.pp deferred);
  Alcotest.(check bool) "chain" true
    (Dsim.Trace.chain text ~id:3 = Dsim.Trace.chain deferred ~id:3);
  Alcotest.(check bool) "find_first" true
    (Dsim.Trace.find_first text ~kind:"pipe.deliver"
    = Dsim.Trace.find_first deferred ~kind:"pipe.deliver")

(* Allocated in a helper so no stack slot of the test keeps it alive. *)
let[@inline never] emit_payload t weak =
  let payload = Bytes.make 64 'x' in
  Weak.set weak 0 (Some payload);
  ignore
    (Dsim.Trace.emit_deferred t ~time:0 ~actor:"a" ~kind:"k" ~cause:Dsim.Trace.no_cause (fun () ->
         Bytes.to_string payload))

let eviction_drops_deferred () =
  let t = Dsim.Trace.create ~capacity:2 () in
  let weak = Weak.create 1 in
  emit_payload t weak;
  Gc.full_major ();
  Alcotest.(check bool) "live entry keeps its renderer" true (Weak.check weak 0);
  record t "e2";
  record t "e3";
  Gc.full_major ();
  Alcotest.(check bool) "evicted renderer was collected" false (Weak.check weak 0);
  Alcotest.(check (list string)) "the rest" [ "e2"; "e3" ] (details t)

let suites =
  [
    ( "trace",
      [
        Alcotest.test_case "ids grow from one" `Quick ids_grow_from_one;
        Alcotest.test_case "ring evicts oldest in order" `Quick ring_evicts_oldest_in_order;
        Alcotest.test_case "ring capacity validated" `Quick ring_capacity_validated;
        Alcotest.test_case "unbounded mode never drops" `Quick unbounded_mode_never_drops;
        Alcotest.test_case "chain walks cause links" `Quick chain_walks_cause_links;
        Alcotest.test_case "chain stops at evicted cause" `Quick chain_stops_at_evicted_cause;
        Alcotest.test_case "chain survives cycles" `Quick chain_survives_cycles;
        Alcotest.test_case "chain of unknown id empty" `Quick chain_of_unknown_id_empty;
        Alcotest.test_case "clear restarts ids" `Quick clear_restarts_ids;
        Alcotest.test_case "jsonl round trip" `Quick jsonl_round_trip;
        Alcotest.test_case "jsonl rejects malformed line" `Quick jsonl_rejects_malformed_line;
        Alcotest.test_case "jsonl rejects non-increasing id" `Quick
          jsonl_rejects_non_increasing_id;
        Alcotest.test_case "find with gaps" `Quick find_with_gaps;
        Alcotest.test_case "find_first by kind" `Quick find_first_kind;
        Alcotest.test_case "deferred detail not rendered at record time" `Quick
          deferred_not_rendered_at_record;
        Alcotest.test_case "deferred detail reads as its text" `Quick deferred_reads_as_text;
        Alcotest.test_case "ring eviction drops a deferred detail" `Quick eviction_drops_deferred;
      ] );
  ]
