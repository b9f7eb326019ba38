(* Finding an unknown bug automatically: point the planner at a Cassandra
   scale-up/scale-down workload and let it discover the operator bugs
   (cassandra-operator-400/402) without being told where to look.

   Run with: dune exec examples/cassandra_scaledown.exe *)

let () =
  let config = Kube.Cluster.default_config in
  let horizon = 9_000_000 in
  let workload =
    Kube.Workload.cassandra_scale ~start:1_000_000 ~dc:"ring"
      ~steps:[ (0, 2); (2_500_000, 4); (5_000_000, 2) ]
      ()
  in

  (* Step 1: run the workload unperturbed and record the committed
     history — the planner's raw material. *)
  let reference =
    Sieve.Runner.base_test ~name:"reference" ~config ~workload ~horizon
      Sieve.Strategy.No_perturbation
  in
  let events =
    List.map
      (fun (c : Sieve.Runner.commit) -> (c.time, c.key, c.op))
      (Sieve.Runner.reference_commits reference)
  in
  Format.printf "reference run committed %d events@." (List.length events);

  (* Step 2: enumerate pattern-shaped perturbations around the events
     each component consumes (causally pruned, pattern-interleaved). *)
  let plans = Sieve.Planner.candidates ~config ~events ~horizon () in
  Format.printf "planner proposed %d candidate perturbations@.@." (List.length plans);

  (* Step 3: run candidates until something breaks. No target: we are
     hunting, not reproducing. *)
  let found = ref [] in
  let budget = 200 in
  List.iteri
    (fun i plan ->
      if i < budget && !found = [] then begin
        let outcome =
          Sieve.Runner.run_test
            (Sieve.Runner.base_test ~name:(Printf.sprintf "candidate-%d" i) ~config ~workload
               ~horizon plan.Sieve.Planner.strategy)
        in
        match outcome.Sieve.Runner.violations with
        | [] -> ()
        | violations ->
            found := violations;
            Format.printf "candidate %d broke the operator:@." (i + 1);
            Format.printf "  perturbation: %s@." plan.Sieve.Planner.rationale;
            Format.printf "  strategy:     %s@."
              (Sieve.Strategy.describe plan.Sieve.Planner.strategy);
            List.iter
              (fun (t, v) ->
                Format.printf "  at %.1f s: [%s] %s@." (float_of_int t /. 1e6)
                  (Sieve.Oracle.bug_id v) (Sieve.Oracle.describe v))
              violations
      end)
    plans;
  if !found = [] then Format.printf "nothing found within %d tests@." budget
  else begin
    (* Step 4: confirm the quorum-guard fix closes what we found. *)
    let fixed = { config with Kube.Cluster.operator_fixed = true } in
    let still_broken = ref false in
    List.iteri
      (fun i plan ->
        if i < budget && not !still_broken then
          let outcome =
            Sieve.Runner.run_test
              (Sieve.Runner.base_test ~config:fixed ~workload ~horizon
                 plan.Sieve.Planner.strategy)
          in
          if outcome.Sieve.Runner.violations <> [] then still_broken := true)
      plans;
    Format.printf "@.with quorum guards in the operator: %s@."
      (if !still_broken then "STILL BROKEN" else "no candidate breaks it — fix holds")
  end
