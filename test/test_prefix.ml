(* A finding's runs: shrink candidates and the artifact run fork from a
   prefix image of the case's unperturbed world, and a candidate's
   verdict stops at its target. Everything a campaign keeps from them
   must equal what full straight runs give. *)

let case id =
  match Sieve.Bugs.find id with Some case -> case | None -> failwith ("unknown case " ^ id)

let fired target (o : Sieve.Runner.outcome) = List.exists (fun (_, v) -> target v) o.violations

let straight_verdict (test : Sieve.Runner.test) ~target strategy =
  fired target (Sieve.Runner.run_test { test with Sieve.Runner.strategy })

(* --- every finding of the four gates ---------------------------------- *)

(* The gates' findings, from a campaign that does not minimize, and the
   plan their trial indices point into. The hbase gate's trials are the
   first 200 of hbase-explore's, and so are its findings. *)
let gate_findings ~name ?budget ids =
  let cases = List.map case ids in
  let out = "_hunt_test/prefix-" ^ name in
  let summary = Hunt.Campaign.run ~out ?budget ~seed:42L ~minimize_budget:0 ~cases () in
  let planned = Hunt.Campaign.plan ?budget ~seed:42L ~cases () in
  List.map (fun (f : Hunt.Campaign.finding) -> (f, planned.trials.(f.trial))) summary.findings

let finding_runs_match_straight ~name ?budget ~expect ids () =
  let findings = gate_findings ~name ?budget ids in
  Alcotest.(check int) (name ^ " findings") expect (List.length findings);
  List.iter
    (fun ((f : Hunt.Campaign.finding), (trial : Hunt.Campaign.trial)) ->
      let test = trial.test in
      let target v = String.equal (Hunt.Signature.of_violation v) f.signature in
      let want, want_runs =
        Sieve.Minimize.greedy ~budget:200 ~fails:(straight_verdict test ~target)
          test.Sieve.Runner.strategy
      in
      let prefix = Sieve.Runner.prefix test in
      let got = Sieve.Minimize.shrink ~prefix ~test ~target ~budget:200 ~exposed:true in
      let what = Printf.sprintf "%s (trial %d)" f.signature f.trial in
      Alcotest.(check string) (what ^ ": minimized")
        (Sieve.Strategy.describe want)
        (Sieve.Strategy.describe got.test.Sieve.Runner.strategy);
      Alcotest.(check bool) (what ^ ": same strategy") true (got.test.Sieve.Runner.strategy = want);
      Alcotest.(check int) (what ^ ": shrink_runs") want_runs got.executions;
      if Option.is_some prefix then
        Alcotest.(check int) (what ^ ": every run forked") got.simulated got.forked;
      let artifact o = Dsim.Json.to_string (Sieve.Runner.artifact o) in
      Alcotest.(check string) (what ^ ": artifact.json")
        (artifact (Sieve.Runner.run_test got.test))
        (artifact (Sieve.Runner.run_from ~prefix got.test)))
    findings

(* --- verdicts against full runs --------------------------------------- *)

(* Every 8th distinct run of a gate's plan: its verdict, straight and
   forked from a prefix of its own test, for the signature of its last
   violation (a target that fires, when it has one) and for a target
   that never fires, against its full straight run. Returns the number
   of forked verdicts checked. *)
let verdicts_agree ~ids ?budget () =
  let planned = Hunt.Campaign.plan ?budget ~seed:42L ~cases:(List.map case ids) () in
  let seen = Hashtbl.create 1024 in
  let distinct =
    List.filter
      (fun (t : Hunt.Campaign.trial) ->
        let key = (t.case_id, t.test.Sieve.Runner.strategy) in
        (not (Hashtbl.mem seen key)) && (Hashtbl.add seen key (); true))
      (Array.to_list planned.trials)
  in
  let forked = ref 0 in
  List.iteri
    (fun i (t : Hunt.Campaign.trial) ->
      if i mod 8 = 0 then begin
        let test = t.test in
        let full = Sieve.Runner.run_test test in
        let never _ = false in
        let targets =
          match List.rev full.violations with
          | (_, last) :: _ ->
              let signature = Hunt.Signature.of_violation last in
              [ ("fires", fun v -> String.equal (Hunt.Signature.of_violation v) signature); ("never", never) ]
          | [] -> [ ("never", never) ]
        in
        let prefix = Sieve.Runner.prefix test in
        List.iter
          (fun (what, target) ->
            let want = fired target full in
            let check how prefix =
              let v = Sieve.Runner.verdict ~prefix ~target test in
              if v.fired <> want then
                Alcotest.failf "%s (%s), %s target, %s: verdict %b, full run %b" test.name
                  (Sieve.Strategy.describe test.strategy)
                  what how v.fired want;
              if v.stopped && not v.fired then Alcotest.failf "%s: stopped without firing" test.name;
              v
            in
            ignore (check "straight" None);
            if Option.is_some prefix then begin
              let v = check "forked" prefix in
              if not v.forked then Alcotest.failf "%s: did not fork from its own prefix" test.name;
              incr forked
            end)
          targets
      end)
    distinct;
  !forked

let rep_verdicts () =
  let forked =
    verdicts_agree ~ids:[ "REP-STALE"; "REP-CHURN"; "REP-MINORITY"; "REP-RECOVER" ] ()
  in
  Alcotest.(check bool) (Printf.sprintf "%d forked verdicts checked" forked) true (forked >= 80)

let hbase_explore_verdicts () =
  let forked =
    verdicts_agree ~ids:[ "HB-ASSIGN"; "HB-WATCH"; "HB-FOLLOWER" ] ~budget:2000 ()
  in
  Alcotest.(check bool) (Printf.sprintf "%d forked verdicts checked" forked) true (forked >= 250)

(* --- slicing ----------------------------------------------------------- *)

(* The world [Runner.run_test] builds without a monitor: cluster, oracle,
   strategy, start, workload. *)
let world (test : Sieve.Runner.test) =
  let live = Sieve.Substrate.create test.spec in
  let violations =
    match live with
    | Sieve.Substrate.Kube_live c ->
        let oracle = Sieve.Oracle.attach c in
        Sieve.Strategy.apply c test.strategy;
        fun () -> Sieve.Oracle.violations oracle
    | Sieve.Substrate.Hbase_live c ->
        let oracle = Sieve.Hbase_oracle.attach c in
        Sieve.Strategy.apply_hbase c test.strategy;
        fun () -> Sieve.Hbase_oracle.violations oracle
  in
  Sieve.Substrate.start live;
  Sieve.Substrate.schedule live test.spec;
  (live, violations)

let observed (live, violations) =
  [
    ( "violations",
      String.concat "\n"
        (List.map
           (fun (time, v) -> Printf.sprintf "%d %s" time (Sieve.Oracle.describe v))
           (violations ())) );
    ("now", string_of_int (Dsim.Engine.now (Sieve.Substrate.engine live)));
    ("metrics", Dsim.Json.to_string (Dsim.Metrics.to_json (Sieve.Substrate.metrics live)));
    ("trace JSONL", Dsim.Trace.to_jsonl (Sieve.Substrate.trace live));
  ]

let slices_end_where_one_run_does () =
  let cases = Sieve.Bugs.all_with_extras () @ Sieve.Bugs.replicated () @ Sieve.Bugs.hbase () in
  List.iter
    (fun (c : Sieve.Bugs.case) ->
      let test = Sieve.Bugs.test_of_case c in
      let whole = world test in
      Sieve.Substrate.run ~until:test.horizon (fst whole);
      List.iter
        (fun slice ->
          let sliced = world test in
          let rec go until =
            Sieve.Substrate.run ~until:(min until test.horizon) (fst sliced);
            if until < test.horizon then go (until + slice)
          in
          go slice;
          List.iter2
            (fun (what, want) (_, got) ->
              if not (String.equal want got) then
                Alcotest.failf "%s in slices of %d us: %s differ" c.id slice what)
            (observed whole) (observed sliced))
        [ 100_000; 7_919 ])
    cases

(* --- the guard --------------------------------------------------------- *)

(* A prefix taken just before K8s-59848's first perturbation: a
   candidate that perturbs at or before its instant runs straight, one
   that perturbs right after it forks, and both give the full run's
   verdict and outcome. *)
let early_candidates_run_straight () =
  let c = case "K8s-59848" in
  let test = Sieve.Bugs.test_of_case c in
  let first = Sieve.Strategy.first_perturbation test.strategy in
  let prefix = Sieve.Runner.prefix test in
  Alcotest.(check bool) "the focused test has a prefix" true (Option.is_some prefix);
  List.iter
    (fun (at, forks) ->
      let strategy =
        Sieve.Strategy.Combo
          [ test.strategy; Sieve.Strategy.Crash_restart { victim = "kubelet-2"; at; downtime = 60_000 } ]
      in
      let candidate = { test with Sieve.Runner.strategy } in
      let what = Printf.sprintf "crash at first %+d us" (at - first) in
      let v = Sieve.Runner.verdict ~prefix ~target:c.matches candidate in
      Alcotest.(check bool) (what ^ ": forked") forks v.forked;
      let full = Sieve.Runner.run_test candidate in
      Alcotest.(check bool) (what ^ ": verdict") (fired c.matches full) v.fired;
      Alcotest.(check string) (what ^ ": trace")
        (Sieve.Runner.trace_jsonl full)
        (Sieve.Runner.trace_jsonl (Sieve.Runner.run_from ~prefix candidate)))
    [ (first - 2, false); (first - 1, false); (first, true) ]

let suites =
  [
    ( "finding runs",
      [
        Alcotest.test_case "kube gate findings: forked shrink equals the straight greedy loop"
          `Quick
          (finding_runs_match_straight ~name:"kube" ~budget:160 ~expect:3
             (List.map (fun (c : Sieve.Bugs.case) -> c.id) (Sieve.Bugs.all_with_extras ())));
        Alcotest.test_case "rep gate findings: forked shrink equals the straight greedy loop"
          `Quick
          (finding_runs_match_straight ~name:"rep" ~expect:4
             [ "REP-STALE"; "REP-CHURN"; "REP-MINORITY"; "REP-RECOVER" ]);
        Alcotest.test_case
          "hbase and hbase-explore gate findings: forked shrink equals the straight greedy loop"
          `Quick
          (finding_runs_match_straight ~name:"hbase-explore" ~budget:2000 ~expect:4
             [ "HB-ASSIGN"; "HB-WATCH"; "HB-FOLLOWER" ]);
        Alcotest.test_case "rep gate: every 8th distinct run's verdict equals its full run's"
          `Quick rep_verdicts;
        Alcotest.test_case
          "hbase-explore gate: every 8th distinct run's verdict equals its full run's" `Quick
          hbase_explore_verdicts;
        Alcotest.test_case "a world run in slices ends where one run does" `Quick
          slices_end_where_one_run_does;
        Alcotest.test_case "a candidate perturbed at or before the prefix runs straight" `Quick
          early_candidates_run_straight;
      ] );
  ]
