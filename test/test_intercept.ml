(* Interceptor, trace and report plumbing. *)

let ev key = History.Event.make ~rev:1 ~key ~op:History.Event.Create (Some (Kube.Resource.make_node "n"))

let default_passes () =
  let i = History.Intercept.create () in
  Alcotest.(check bool) "pass" true
    (History.Intercept.decide i { History.Intercept.src = "a"; dst = "b" } (ev "k")
    = History.Intercept.Pass)

let policy_applies_and_clears () =
  let i = History.Intercept.create () in
  History.Intercept.set_policy i (fun _ _ -> History.Intercept.Drop);
  let edge = { History.Intercept.src = "a"; dst = "b" } in
  Alcotest.(check bool) "drop" true
    (History.Intercept.decide i edge (ev "k") = History.Intercept.Drop);
  History.Intercept.clear i;
  Alcotest.(check bool) "pass again" true
    (History.Intercept.decide i edge (ev "k") = History.Intercept.Pass)

let observer_sees_decisions () =
  let i = History.Intercept.create () in
  let seen = ref [] in
  History.Intercept.set_observer i (fun edge _ decision ->
      seen := (edge.History.Intercept.dst, decision) :: !seen);
  History.Intercept.set_policy i (fun _ _ -> History.Intercept.Delay 5);
  ignore (History.Intercept.decide i { History.Intercept.src = "a"; dst = "b" } (ev "k"));
  Alcotest.(check bool) "observed" true (!seen = [ ("b", History.Intercept.Delay 5) ])

let edge_printing () =
  Alcotest.(check string) "edge" "a->b"
    (Format.asprintf "%a" History.Intercept.pp_edge { History.Intercept.src = "a"; dst = "b" })

(* Trace store. *)
let trace_filters_and_orders () =
  let tr = Dsim.Trace.create () in
  ignore (Dsim.Trace.emit tr ~time:5 ~actor:"x" ~kind:"a" ~cause:Dsim.Trace.no_cause "one");
  ignore (Dsim.Trace.emit tr ~time:6 ~actor:"y" ~kind:"b" ~cause:Dsim.Trace.no_cause "two");
  ignore (Dsim.Trace.emit tr ~time:7 ~actor:"x" ~kind:"a" ~cause:Dsim.Trace.no_cause "three");
  Alcotest.(check int) "length" 3 (Dsim.Trace.length tr);
  Alcotest.(check (list string)) "find_all by kind" [ "one"; "three" ]
    (List.map (fun e -> e.Dsim.Trace.detail) (Dsim.Trace.find_all tr ~kind:"a"));
  Alcotest.(check (list int)) "chronological" [ 5; 6; 7 ]
    (List.map (fun e -> e.Dsim.Trace.time) (Dsim.Trace.entries tr));
  Alcotest.(check int) "filter by actor" 2
    (List.length (List.filter (fun e -> e.Dsim.Trace.actor = "x") (Dsim.Trace.entries tr)));
  Dsim.Trace.clear tr;
  Alcotest.(check int) "cleared" 0 (Dsim.Trace.length tr)

(* Report table sanity. *)
let report_rejects_ragged_rows () =
  Alcotest.check_raises "ragged" (Invalid_argument "Report.table: ragged row") (fun () ->
      Sieve.Report.table ~header:[ "a"; "b" ] [ [ "only-one" ] ])

let suites =
  [
    ( "intercept/trace/report",
      [
        Alcotest.test_case "default passes" `Quick default_passes;
        Alcotest.test_case "policy applies and clears" `Quick policy_applies_and_clears;
        Alcotest.test_case "observer sees decisions" `Quick observer_sees_decisions;
        Alcotest.test_case "edge printing" `Quick edge_printing;
        Alcotest.test_case "trace filters and orders" `Quick trace_filters_and_orders;
        Alcotest.test_case "report rejects ragged rows" `Quick report_rejects_ragged_rows;
      ] );
  ]
