(* `sieve` — command-line front end for the partial-history testing tool.

   Subcommands:
     list                      the bug corpus
     bugs [ID...]              reproduce corpus bugs (reference / sieve / fixed)
     trace ID [--json]         annotated failing execution of one bug (or JSONL)
     timeline ID [--json]      per-component revision-lag timeline of one bug
     campaign ID APPROACH      tests-to-first-reproduction for one approach
     explore [--json]          run the planner end-to-end on a workload
     hunt [ID...]              parallel, persistent, coverage-guided campaign
     check [ID...]             conformance: mutation self-test + fault-free corpus runs
     diagnose [ID...]          root-cause cards: divergence point + suspect read-site
     lint [PATH...]            static partial-history lint over controller sources
     hazards [--json]          static footprint/hazard graph of a configuration *)

open Cmdliner

let ids_of cases = List.map (fun c -> c.Sieve.Bugs.id) cases

let resolve_cases = function
  | [] -> Ok (Sieve.Bugs.all_with_extras ())
  | ids ->
      let missing = List.filter (fun id -> Sieve.Bugs.find id = None) ids in
      if missing <> [] then
        Error (Printf.sprintf "unknown bug id(s): %s (known: %s)"
                 (String.concat ", " missing)
                 (String.concat ", "
                    (ids_of
                       (Sieve.Bugs.all_with_extras () @ Sieve.Bugs.replicated ()
                       @ Sieve.Bugs.hbase ()))))
      else Ok (List.filter_map Sieve.Bugs.find ids)

let pattern_name = function
  | `Staleness -> "staleness"
  | `Obs_gap -> "observability gap"
  | `Time_travel -> "time travel"

(* --- list ---------------------------------------------------------- *)

let list_cmd =
  let doc =
    "List the bug corpus (two known Kubernetes bugs, three Cassandra-operator bugs), the \
     extension cases, and the replicated-store (REP-*) and HBase/ZooKeeper (HB-*) scenario \
     families (run by id; excluded from the default id-less campaigns so pre-existing \
     journals stay byte-identical)."
  in
  let run () =
    Sieve.Report.table ~header:[ "id"; "pattern"; "title" ]
      (List.map
         (fun c -> [ c.Sieve.Bugs.id; pattern_name c.Sieve.Bugs.pattern; c.Sieve.Bugs.title ])
         (Sieve.Bugs.all_with_extras () @ Sieve.Bugs.replicated () @ Sieve.Bugs.hbase ()))
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* --- bugs ---------------------------------------------------------- *)

let ids_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Bug ids (default: all).")

let bugs_cmd =
  let doc = "Reproduce corpus bugs: reference must be clean, the Sieve strategy must fire, the fix must close it." in
  let run ids =
    match resolve_cases ids with
    | Error message ->
        prerr_endline message;
        exit 2
    | Ok cases ->
        let failures = ref 0 in
        let rows =
          List.map
            (fun case ->
              let hit (o : Sieve.Runner.outcome) =
                List.find_opt (fun (_, v) -> case.Sieve.Bugs.matches v) o.Sieve.Runner.violations
              in
              let reference = Sieve.Runner.run_test (Sieve.Bugs.reference_test_of_case case) in
              let sieve = Sieve.Runner.run_test (Sieve.Bugs.test_of_case case) in
              let fixed = Sieve.Runner.run_test (Sieve.Bugs.fixed_test_of_case case) in
              let ok =
                reference.Sieve.Runner.violations = [] && hit sieve <> None && hit fixed = None
              in
              if not ok then incr failures;
              [
                case.Sieve.Bugs.id;
                (if reference.Sieve.Runner.violations = [] then "clean" else "VIOLATION");
                (match hit sieve with
                | Some (t, _) -> Printf.sprintf "reproduced @ %.1fs" (float_of_int t /. 1e6)
                | None -> "MISSED");
                (match hit fixed with None -> "closed" | Some _ -> "OPEN");
                (if ok then "ok" else "FAIL");
              ])
            cases
        in
        Sieve.Report.table ~header:[ "bug"; "reference"; "sieve"; "fixed"; "verdict" ] rows;
        if !failures > 0 then exit 1
  in
  Cmd.v (Cmd.info "bugs" ~doc) Term.(const run $ ids_arg)

(* --- trace --------------------------------------------------------- *)

let trace_cmd =
  let doc = "Print the annotated failing execution of one corpus bug." in
  let id_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Bug id.") in
  let all_arg =
    Arg.(value & flag & info [ "full" ] ~doc:"Print the raw trace instead of the curated one.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Dump the full structured trace as JSONL (one entry per line) instead of text.")
  in
  let run id full json =
    match Sieve.Bugs.find id with
    | None ->
        Printf.eprintf "unknown bug id %s\n" id;
        exit 2
    | Some case ->
        let outcome = Sieve.Runner.run_test (Sieve.Bugs.test_of_case case) in
        if json then print_string (Sieve.Runner.trace_jsonl outcome)
        else begin
          Printf.printf "%s — %s\npattern:  %s\nstrategy: %s\n\n" case.Sieve.Bugs.id
            case.Sieve.Bugs.title (pattern_name case.Sieve.Bugs.pattern)
            (Sieve.Strategy.describe case.Sieve.Bugs.sieve_strategy);
          let curated =
            [ "workload.step"; "kubelet.run"; "kubelet.stop"; "kubelet.finalize"; "node.crash";
              "node.restart"; "net.partition"; "net.heal"; "pipe.drop"; "informer.list";
              "informer.stream-dead"; "sched.bind"; "sched.bind-fail"; "cassop.decommission";
              "cassop.delete-pvc"; "cassop.create-member"; "volctl.release"; "oracle.violation";
              "hbase.master"; "hbase.rs"; "zk.resync" ]
          in
          List.iter
            (fun e ->
              if full || List.mem e.Dsim.Trace.kind curated then
                Printf.printf "  [%8.3f s] %-10s %-22s %s\n"
                  (float_of_int e.Dsim.Trace.time /. 1e6)
                  e.Dsim.Trace.actor e.Dsim.Trace.kind e.Dsim.Trace.detail)
            (Dsim.Trace.entries (Sieve.Substrate.trace outcome.Sieve.Runner.live));
          match outcome.Sieve.Runner.violations with
          | (t, v) :: _ ->
              Printf.printf "\n=> [%s] %s (at %.3f s)\n" (Sieve.Oracle.bug_id v)
                (Sieve.Oracle.describe v) (float_of_int t /. 1e6);
              Printf.printf "\nwhy (causal chain, oldest first):\n";
              Sieve.Report.chain (Sieve.Runner.causal_chain outcome)
          | [] ->
              Printf.printf "\n=> no violation (unexpected)\n";
              exit 1
        end
  in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const run $ id_arg $ all_arg $ json_arg)

(* --- timeline ------------------------------------------------------- *)

(* Downsampled sparkline: the max of each bucket, not the mean — spikes
   are the signal when plotting divergence. *)
let sparkline ?(width = 60) values =
  match values with
  | [] -> ""
  | _ ->
      let arr = Array.of_list values in
      let n = Array.length arr in
      let width = min width n in
      let blocks = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                      "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |] in
      let peak = Array.fold_left max 0.0 arr in
      let bucket i =
        let lo = i * n / width in
        let hi = max (lo + 1) ((i + 1) * n / width) in
        let m = ref 0.0 in
        for j = lo to hi - 1 do
          m := max !m arr.(j)
        done;
        !m
      in
      String.concat ""
        (List.init width (fun i ->
             let v = bucket i in
             if peak <= 0.0 || v <= 0.0 then " "
             else blocks.(min 7 (int_of_float (v /. peak *. 8.0)))))

let timeline_cmd =
  let doc =
    "Plot every component's revision lag over the failing run of one corpus bug — the live \
     measurement of partial-history divergence."
  in
  let id_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Bug id.") in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the full metrics snapshot as JSON instead of sparklines.")
  in
  let diagnosis_arg =
    Arg.(
      value & flag
      & info [ "diagnosis" ]
          ~doc:
            "Run with divergence tracking and render the diagnosis card's divergence event \
             inline (with $(b,--json), embed the whole card).")
  in
  let run id json diagnosis =
    match Sieve.Bugs.find id with
    | None ->
        Printf.eprintf "unknown bug id %s\n" id;
        exit 2
    | Some case ->
        let outcome =
          Sieve.Runner.run_test ~diagnose:diagnosis (Sieve.Bugs.test_of_case case)
        in
        let card = if diagnosis then Diagnosis.Diagnose.of_outcome outcome else None in
        if json then
          Sieve.Report.json
            (Dsim.Json.Obj
               ([
                  ("bug", Dsim.Json.String case.Sieve.Bugs.id);
                  ("metrics", Sieve.Runner.metrics_json outcome);
                ]
               @
               match card with
               | Some c -> [ ("diagnosis", Diagnosis.Card.to_json c) ]
               | None -> []))
        else begin
          let metrics = Sieve.Substrate.metrics outcome.Sieve.Runner.live in
          Printf.printf "%s — revision lag by component over 0 .. %.1f s\n\n" case.Sieve.Bugs.id
            (float_of_int case.Sieve.Bugs.horizon /. 1e6);
          let lag_names =
            List.filter
              (fun n -> String.length n > 4 && String.equal (String.sub n 0 4) "lag.")
              (Dsim.Metrics.series_names metrics)
          in
          (* Printed by hand: sparkline glyphs are multi-byte, which would
             defeat Report.table's byte-width alignment. *)
          List.iter
            (fun name ->
              let values = List.map snd (Dsim.Metrics.series metrics name) in
              let peak = List.fold_left max 0.0 values in
              Printf.printf "  %-10s |%s| peak %.0f\n"
                (String.sub name 4 (String.length name - 4))
                (sparkline values) peak)
            lag_names;
          (match outcome.Sieve.Runner.violations with
          | (t, v) :: _ ->
              Printf.printf "\nviolation [%s] at %.3f s: %s\n" (Sieve.Oracle.bug_id v)
                (float_of_int t /. 1e6) (Sieve.Oracle.describe v)
          | [] -> ());
          match card with
          | None -> ()
          | Some c ->
              (* The divergence event, placed on the same axis as the
                 lag rows; the full card reuses the JSON renderer rather
                 than growing a second formatter. *)
              Printf.printf "divergence [%s] rev %d on %s: %s\n"
                c.Diagnosis.Card.divergence.Diagnosis.Card.kind
                c.Diagnosis.Card.divergence.Diagnosis.Card.rev
                c.Diagnosis.Card.divergence.Diagnosis.Card.stream
                (match c.Diagnosis.Card.divergence.Diagnosis.Card.event with
                | Some e -> e
                | None -> c.Diagnosis.Card.divergence.Diagnosis.Card.detail);
              Sieve.Report.json (Diagnosis.Card.to_json c)
        end
  in
  Cmd.v (Cmd.info "timeline" ~doc) Term.(const run $ id_arg $ json_arg $ diagnosis_arg)

(* --- campaign ------------------------------------------------------ *)

let approach_enum =
  Sieve.Family.
    [ ("planner", Planner); ("crashtuner", Crashtuner); ("cofi", Cofi); ("random", Random) ]

let check_budget budget =
  if budget < 0 then begin
    Printf.eprintf "budget must be at least 0, got %d\n" budget;
    exit 2
  end

let campaign_cmd =
  let doc = "Run a testing campaign for one bug with a given approach and report tests-to-first-reproduction." in
  let id_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Bug id.") in
  let approach_arg =
    Arg.(
      required
      & pos 1 (some (enum approach_enum)) None
      & info [] ~docv:"APPROACH" ~doc:"One of planner, crashtuner, cofi, random.")
  in
  let budget_arg =
    Arg.(value & opt int 400 & info [ "budget" ] ~docv:"N" ~doc:"Maximum tests to run.")
  in
  let seed_arg =
    Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc:"Seed for the random baseline.")
  in
  let run id family budget seed =
    check_budget budget;
    match Sieve.Bugs.find id with
    | None ->
        Printf.eprintf "unknown bug id %s\n" id;
        exit 2
    | Some case ->
        let reference = Sieve.Bugs.reference_test_of_case case in
        let plans =
          Array.of_list
            (Sieve.Family.candidates ~seed ~n:budget family ~spec:case.Sieve.Bugs.spec
               ~horizon:case.Sieve.Bugs.horizon (Sieve.Runner.reference_commits reference))
        in
        Printf.printf "%s: %d candidate tests (budget %d)\n" id (Array.length plans) budget;
        let trials =
          Array.init (min budget (Array.length plans)) (fun i ->
              (id, { reference with Sieve.Runner.strategy = plans.(i).Sieve.Planner.strategy }))
        in
        (* The run stops at the first hit, so the last trial emitted
           holds it, if any did. *)
        let tests_run = ref 0 and hit = ref None in
        ignore
          (Hunt.Campaign.execute ~jobs:1 ~check_conformance:false ~stop_at:case.Sieve.Bugs.matches
             trials ~emit:(fun i violations _ ->
               tests_run := i + 1;
               hit := List.find_opt (fun (_, v) -> case.Sieve.Bugs.matches v) violations));
        (match !hit with
        | Some (time, v) ->
            Printf.printf "reproduced after %d tests (violation at %.1f s)\n" !tests_run
              (float_of_int time /. 1e6);
            Printf.printf "winning strategy: %s\n"
              (Sieve.Strategy.describe (snd trials.(!tests_run - 1)).Sieve.Runner.strategy);
            Printf.printf "violation: %s\n" (Sieve.Oracle.describe v)
        | None -> Printf.printf "not reproduced within %d tests\n" !tests_run)
  in
  Cmd.v (Cmd.info "campaign" ~doc)
    Term.(const run $ id_arg $ approach_arg $ budget_arg $ seed_arg)

(* --- explore ------------------------------------------------------- *)

let explore_cmd =
  let doc = "Run the planner over a workload with no target: report every distinct violation the candidates expose." in
  let budget_arg =
    Arg.(value & opt int 150 & info [ "budget" ] ~docv:"N" ~doc:"Maximum tests to run.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit one JSON object summarizing the exploration instead of progress text.")
  in
  let run budget json =
    check_budget budget;
    let config = Kube.Cluster.default_config in
    let horizon = 9_000_000 in
    let workload =
      Kube.Workload.pods_with_claims ~n:2 ()
      @ Kube.Workload.cassandra_scale ~dc:"dc" ~steps:[ (0, 2); (2_500_000, 3) ] ()
      @ Kube.Workload.node_churn ~start:2_000_000 ~node:"node-3" ~pods_after:3 ()
    in
    let reference = Sieve.Runner.base_test ~config ~workload ~horizon Sieve.Strategy.No_perturbation in
    let commits = Sieve.Runner.reference_commits reference in
    let plans =
      Array.of_list
        (Sieve.Family.candidates Sieve.Family.Planner ~spec:reference.Sieve.Runner.spec ~horizon
           commits)
    in
    let tests_run = min budget (Array.length plans) in
    if not json then
      Printf.printf "workload commits %d events; planner proposes %d candidates; running %d\n\n"
        (List.length commits) (Array.length plans) tests_run;
    let found = Hashtbl.create 8 in
    let results = ref [] in
    ignore
      (Hunt.Campaign.execute ~jobs:1 ~check_conformance:false
         (Array.init tests_run (fun i ->
              let strategy = plans.(i).Sieve.Planner.strategy in
              ("explore", { reference with Sieve.Runner.strategy })))
         ~emit:(fun i violations _ ->
           let rationale = plans.(i).Sieve.Planner.rationale in
           List.iter
             (fun (time, v) ->
               let key = Sieve.Oracle.key v in
               if not (Hashtbl.mem found key) then begin
                 Hashtbl.replace found key ();
                 results := (i + 1, time, v, rationale) :: !results;
                 if not json then
                   Printf.printf "test %3d: [%s] %s\n          via %s\n" (i + 1)
                     (Sieve.Oracle.bug_id v) (Sieve.Oracle.describe v) rationale
               end)
             violations));
    if json then
      Sieve.Report.json
        (Dsim.Json.Obj
           [
             ("events", Dsim.Json.Int (List.length commits));
             ("candidates", Dsim.Json.Int (Array.length plans));
             ("tests_run", Dsim.Json.Int tests_run);
             ( "violations",
               Dsim.Json.List
                 (List.rev_map
                    (fun (test, time, v, rationale) ->
                      Dsim.Json.Obj
                        [
                          ("test", Dsim.Json.Int test);
                          ("time", Dsim.Json.Int time);
                          ("bug", Dsim.Json.String (Sieve.Oracle.bug_id v));
                          ("violation", Dsim.Json.String (Sieve.Oracle.describe v));
                          ("rationale", Dsim.Json.String rationale);
                        ])
                    !results) );
           ])
    else Printf.printf "\n%d distinct violations exposed\n" (Hashtbl.length found)
  in
  Cmd.v (Cmd.info "explore" ~doc) Term.(const run $ budget_arg $ json_arg)

(* --- seals --------------------------------------------------------- *)

let seals_cmd =
  let doc =
    "Run the corpus under the section 6.2 epoch-seal protocol and report which bugs it closes."
  in
  let granularity_arg =
    Arg.(value & opt int 5 & info [ "granularity" ] ~docv:"G" ~doc:"Seal every G revisions.")
  in
  let run granularity =
    if granularity < 1 then begin
      Printf.eprintf "granularity must be at least 1, got %d\n" granularity;
      exit 2
    end;
    let rows =
      List.map
        (fun case ->
          let run config =
            Sieve.Runner.run_test
              (Sieve.Runner.base_test ~config ~workload:(Sieve.Bugs.kube_workload case)
                 ~horizon:case.Sieve.Bugs.horizon case.Sieve.Bugs.sieve_strategy)
          in
          let hit (o : Sieve.Runner.outcome) =
            List.exists (fun (_, v) -> case.Sieve.Bugs.matches v) o.Sieve.Runner.violations
          in
          let sealed =
            run
              { (Sieve.Bugs.kube_config case) with Kube.Cluster.api_epoch_seal = Some granularity }
          in
          [
            case.Sieve.Bugs.id;
            pattern_name case.Sieve.Bugs.pattern;
            (if hit (run (Sieve.Bugs.kube_config case)) then "reproduced" else "clean");
            (if hit sealed then "still reproduced" else "CLOSED");
          ])
        (Sieve.Bugs.all_with_extras ())
    in
    Sieve.Report.table ~header:[ "bug"; "pattern"; "without seals"; "with seals" ] rows
  in
  Cmd.v (Cmd.info "seals" ~doc) Term.(const run $ granularity_arg)

(* --- coverage ------------------------------------------------------ *)

let coverage_cmd =
  let doc =
    "Report how much of a bug scenario's (component x object x pattern) perturbation space an \
     approach's candidates cover."
  in
  let id_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Bug id.") in
  let run id =
    match Sieve.Bugs.find id with
    | None ->
        Printf.eprintf "unknown bug id %s\n" id;
        exit 2
    | Some case ->
        let spec = case.Sieve.Bugs.spec and horizon = case.Sieve.Bugs.horizon in
        let commits = Sieve.Runner.reference_commits (Sieve.Bugs.reference_test_of_case case) in
        let row label family =
          label
          :: Sieve.Family.coverage_row (Sieve.Family.space spec commits)
               (List.map
                  (fun (p : Sieve.Planner.plan) -> p.strategy)
                  (Sieve.Family.candidates family ~spec ~horizon commits))
        in
        Sieve.Report.table
          ~header:[ "approach"; "staleness"; "obs-gap"; "time-travel"; "overall" ]
          [
            row "planner" Sieve.Family.Planner;
            row "crashtuner" Sieve.Family.Crashtuner;
            row "cofi" Sieve.Family.Cofi;
            row "random(400)" Sieve.Family.Random;
          ]
  in
  Cmd.v (Cmd.info "coverage" ~doc) Term.(const run $ id_arg)

(* --- minimize ------------------------------------------------------ *)

let minimize_cmd =
  let doc = "Shrink a corpus bug's strategy to a locally minimal one that still triggers it." in
  let id_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Bug id.") in
  let budget_arg =
    Arg.(value & opt int 200 & info [ "budget" ] ~docv:"N" ~doc:"Maximum test executions.")
  in
  let run id budget =
    match Sieve.Bugs.find id with
    | None ->
        Printf.eprintf "unknown bug id %s\n" id;
        exit 2
    | Some case ->
        let test = Sieve.Bugs.test_of_case case in
        Printf.printf "original:  %s\n" (Sieve.Strategy.describe test.Sieve.Runner.strategy);
        let minimized, cost =
          Sieve.Minimize.minimize ~test ~target:case.Sieve.Bugs.matches ~budget ()
        in
        Printf.printf "minimized: %s\n(%d test executions)\n"
          (Sieve.Strategy.describe minimized.Sieve.Runner.strategy)
          cost
  in
  Cmd.v (Cmd.info "minimize" ~doc) Term.(const run $ id_arg $ budget_arg)

(* --- hunt ---------------------------------------------------------- *)

let hunt_cmd =
  let doc =
    "Run a parallel, persistent, coverage-guided campaign over the bug corpus: planner \
     candidates ordered by coverage gain, trials fanned out across worker domains, every \
     result journaled crash-safely, each new distinct violation minimized into an artifact \
     directory."
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains running trials in parallel (1 = in-process sequential).")
  in
  let out_arg =
    Arg.(
      value & opt string "_hunt"
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Output directory for the journal and per-finding artifacts.")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Replay $(b,DIR/journal.jsonl), skip completed trials, and continue; the final \
             journal and findings match an uninterrupted run. Without this flag an existing \
             journal is overwritten.")
  in
  let budget_arg =
    Arg.(
      value & opt int 0
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Total trials to run (0 = every planner candidate). A budget beyond the \
             candidate count keeps hunting with seed-derived random-fault exploration \
             trials.")
  in
  let seed_arg =
    Arg.(
      value & opt int64 42L
      & info [ "seed" ] ~docv:"SEED" ~doc:"Campaign seed; per-trial seeds are split off it.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress the live progress line.")
  in
  let hazard_rank_arg =
    Arg.(
      value & flag
      & info [ "hazard-rank" ]
          ~doc:
            "Dispatch statically hazard-implicated candidates first: the scheduler ranks \
             candidates the layer-2 hazard graph ($(b,sieve hazards)) implicates above \
             coverage gain. Must match the original run when used with $(b,--resume).")
  in
  let check_conformance_arg =
    Arg.(
      value & flag
      & info [ "check-conformance" ]
          ~doc:
            "Run the online subsequence-invariant monitor inside every executed trial and \
             report its findings alongside the hunt summary. The monitor is passive and its \
             results stay out of the journal, so journal bytes are identical with and without \
             this flag.")
  in
  let diagnose_arg =
    Arg.(
      value & flag
      & info [ "diagnose" ]
          ~doc:
            "Attach a root-cause diagnosis card ($(b,card.json)) to every finding's artifact \
             directory, computed by re-running the minimized reproduction with divergence \
             tracking. Cards stay out of the journal, so journal bytes are identical with and \
             without this flag.")
  in
  let run ids jobs out resume budget seed quiet hazard_rank check_conformance diagnose =
    match resolve_cases ids with
    | Error message ->
        prerr_endline message;
        exit 2
    | Ok cases ->
        let budget = if budget <= 0 then None else Some budget in
        let on_progress (p : Hunt.Campaign.progress) =
          if not quiet then
            Printf.eprintf "\r[hunt] trial %d/%d  (%d replayed)  %d finding%s%!" p.trials_done
              p.total p.replayed p.findings
              (if p.findings = 1 then "" else "s")
        in
        let gc_started = Gc.quick_stat () in
        let started = Unix.gettimeofday () in
        let summary =
          try
            Hunt.Campaign.run ~jobs ~out ~resume ?budget ~seed ~hazard_rank ~check_conformance
              ~diagnose ~on_progress ~cases ()
          with Failure message ->
            if not quiet then prerr_newline ();
            prerr_endline message;
            exit 2
        in
        let wall = Unix.gettimeofday () -. started in
        (* The worker domains are joined by now, so their counts are in. *)
        let gc = Gc.quick_stat () in
        if not quiet then prerr_newline ();
        (match summary.Hunt.Campaign.findings with
        | [] -> print_endline "no findings"
        | findings ->
            Sieve.Report.table
              ~header:[ "bug"; "signature"; "trial"; "at"; "minimized strategy" ]
              (List.map
                 (fun (f : Hunt.Campaign.finding) ->
                   [
                     f.bug;
                     f.signature;
                     string_of_int f.trial;
                     Printf.sprintf "%.1fs" (float_of_int f.time /. 1e6);
                     f.minimized;
                   ])
                 findings));
        print_newline ();
        Sieve.Report.table
          ~header:[ "case"; "space covered"; "of" ]
          (List.map
             (fun (case, covered, total) ->
               [ case; string_of_int covered; string_of_int total ])
             summary.Hunt.Campaign.space);
        print_newline ();
        Sieve.Report.kv
          ([
             ("trials", string_of_int summary.Hunt.Campaign.trials);
             ("executed", string_of_int summary.Hunt.Campaign.executed);
             ( "simulated runs",
               Printf.sprintf "%d of %d trials" summary.Hunt.Campaign.simulated
                 summary.Hunt.Campaign.executed );
             (let f = summary.Hunt.Campaign.forking in
              ( "forked",
                Printf.sprintf "%d of %d simulated runs from %d images (%d KB)%s"
                  f.Hunt.Campaign.forked summary.Hunt.Campaign.simulated f.Hunt.Campaign.images
                  ((f.Hunt.Campaign.image_bytes + 1023) / 1024)
                  (if f.Hunt.Campaign.fallbacks > 0 then
                     Printf.sprintf "; %d ran straight, their image too big for the minor heap"
                       f.Hunt.Campaign.fallbacks
                   else "") ));
             (let s = summary.Hunt.Campaign.shrinking in
              ( "shrunk",
                Printf.sprintf
                  "%d findings in %d simulated runs (%d from prefixes of %d KB; %d stopped at \
                   their target)"
                  s.Hunt.Campaign.shrunk s.Hunt.Campaign.shrink_simulated
                  s.Hunt.Campaign.from_prefix
                  ((s.Hunt.Campaign.prefix_bytes + 1023) / 1024)
                  s.Hunt.Campaign.stopped ));
             ("replayed from journal", string_of_int summary.Hunt.Campaign.replayed);
             ("trials with violations", string_of_int summary.Hunt.Campaign.with_violations);
             ( "distinct findings",
               string_of_int (List.length summary.Hunt.Campaign.findings) );
             ( "throughput",
               Printf.sprintf
                 "%.0f trials/s (%d jobs, %.2f s wall; GC: %d minor, %d major, %.0f promoted \
                  words/trial)"
                 (float_of_int summary.Hunt.Campaign.executed /. Float.max wall 1e-9)
                 jobs wall
                 (gc.minor_collections - gc_started.minor_collections)
                 (gc.major_collections - gc_started.major_collections)
                 ((gc.promoted_words -. gc_started.promoted_words)
                 /. float_of_int (max 1 summary.Hunt.Campaign.executed)) );
             ("journal", summary.Hunt.Campaign.journal);
           ]
          @
          if diagnose then
            [ ("diagnosis cards", string_of_int summary.Hunt.Campaign.cards) ]
          else []);
        (match summary.Hunt.Campaign.conformance with
        | None -> ()
        | Some c ->
            print_newline ();
            Sieve.Report.kv
              [
                ("conformance-checked trials", string_of_int c.Hunt.Campaign.conf_trials);
                ("conformance violations", string_of_int c.Hunt.Campaign.conf_total);
                ( "distinct conformance signatures",
                  string_of_int (List.length c.Hunt.Campaign.conf_signatures) );
              ];
            List.iter
              (fun s -> Printf.printf "  %s\n" s)
              c.Hunt.Campaign.conf_signatures)
  in
  Cmd.v (Cmd.info "hunt" ~doc)
    Term.(
      const run $ ids_arg $ jobs_arg $ out_arg $ resume_arg $ budget_arg $ seed_arg
      $ quiet_arg $ hazard_rank_arg $ check_conformance_arg $ diagnose_arg)

(* --- check ---------------------------------------------------------- *)

let check_cmd =
  let doc =
    "Verify the conformance layer end to end: the mutation self-test at the Kubernetes and \
     the HBase boundaries (each seeded perturbation — dropped event, reordered deliveries, \
     stale cache, corrupted value, future frontier, lost one-shot notification, truncated \
     region map, forged znode — must trip the monitor with its expected violation code, and \
     the control replay must not), then a fault-free run of every corpus case with \
     the monitor attached, which must stay silent. Nonzero exit on any failure."
  in
  let soak_arg =
    Arg.(
      value & opt int 0
      & info [ "soak" ] ~docv:"N"
          ~doc:
            "Extra self-test rounds with derived seeds (each round re-runs every mutation \
             against a freshly generated history).")
  in
  let seed_arg =
    Arg.(
      value & opt int64 20260704L
      & info [ "seed" ] ~docv:"SEED" ~doc:"Base seed for the self-test histories.")
  in
  let run ids soak seed =
    match resolve_cases ids with
    | Error message ->
        prerr_endline message;
        exit 2
    | Ok cases ->
        let failures = ref 0 in
        let codes outcome =
          match outcome.Conformance.Selftest.codes with
          | [] -> "-"
          | codes ->
              String.concat "," (List.map Conformance.Monitor.code_to_string codes)
        in
        let rows = ref [] in
        let round ~label seed =
          let judge ~label boundary =
            List.iter
              (fun (o : Conformance.Selftest.outcome) ->
                let ok = Conformance.Selftest.ok o in
                if not ok then incr failures;
                rows :=
                  [
                    label;
                    o.Conformance.Selftest.mutation;
                    (if o.Conformance.Selftest.tripped then "tripped" else "silent");
                    codes o;
                    (if ok then "ok" else "FAIL");
                  ]
                  :: !rows)
              (Conformance.Selftest.run ~seed boundary)
          in
          judge ~label Conformance.Selftest.Kube;
          judge ~label:(label ^ "/hbase") Conformance.Selftest.Hbase
        in
        round ~label:"self-test" seed;
        let rng = Dsim.Rng.create seed in
        for i = 1 to soak do
          round ~label:(Printf.sprintf "soak#%d" i) (Dsim.Rng.int64 (Dsim.Rng.split rng))
        done;
        Sieve.Report.table
          ~header:[ "round"; "mutation"; "monitor"; "codes"; "verdict" ]
          (List.rev !rows);
        print_newline ();
        let corpus_rows =
          List.map
            (fun case ->
              let outcome =
                Sieve.Runner.run_test ~check_conformance:true
                  (Sieve.Bugs.reference_test_of_case case)
              in
              match outcome.Sieve.Runner.conformance with
              | None -> assert false
              | Some c ->
                  let ok = c.Sieve.Runner.conf_total = 0 && c.Sieve.Runner.conf_strict in
                  if not ok then incr failures;
                  List.iter
                    (fun v -> Printf.eprintf "  %s\n" (Conformance.Monitor.describe v))
                    c.Sieve.Runner.conf_violations;
                  [
                    case.Sieve.Bugs.id;
                    string_of_int outcome.Sieve.Runner.truth_rev;
                    string_of_int c.Sieve.Runner.conf_total;
                    (if c.Sieve.Runner.conf_strict then "strict" else "relaxed");
                    (if ok then "ok" else "FAIL");
                  ])
            cases
        in
        Sieve.Report.table
          ~header:[ "case (fault-free)"; "revisions"; "violations"; "mode"; "verdict" ]
          corpus_rows;
        if !failures > 0 then begin
          Printf.eprintf "check: %d failure(s)\n" !failures;
          exit 1
        end
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run $ ids_arg $ soak_arg $ seed_arg)

(* --- diagnose ------------------------------------------------------- *)

let diagnose_cmd =
  let doc =
    "Reproduce corpus bugs under divergence tracking and emit one root-cause diagnosis card \
     per bug: the divergence point where the suspect stream left the committed subsequence, \
     the controller read-site that acted on it, and the statically-predicted hazard it \
     instantiates. Every card is validated against the card schema; nonzero exit if a card is \
     missing or malformed."
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the cards as a JSON list.")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"DIR" ~doc:"Also write each card to $(docv)/$(i,ID).card.json.")
  in
  let minimize_budget_arg =
    Arg.(
      value & opt int 0
      & info [ "minimize-budget" ] ~docv:"N"
          ~doc:
            "Shrink each exposing strategy (at most $(docv) extra executions per bug) and \
             embed the minimized plan in its card (0 = embed the full plan only).")
  in
  let run ids json out minimize_budget =
    match resolve_cases ids with
    | Error message ->
        prerr_endline message;
        exit 2
    | Ok cases ->
        let failures = ref 0 in
        let cards =
          List.filter_map
            (fun (case : Sieve.Bugs.case) ->
              match Diagnosis.Diagnose.diagnose_case ~minimize_budget case with
              | _, None ->
                  incr failures;
                  Printf.eprintf "%s: no diagnosis card (run tripped nothing)\n"
                    case.Sieve.Bugs.id;
                  None
              | _, Some card -> (
                  let j = Diagnosis.Card.to_json card in
                  match Diagnosis.Card.validate j with
                  | Error msg ->
                      incr failures;
                      Printf.eprintf "%s: card fails schema validation: %s\n"
                        case.Sieve.Bugs.id msg;
                      None
                  | Ok () ->
                      (match out with
                      | None -> ()
                      | Some dir ->
                          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
                          let oc =
                            open_out_bin
                              (Filename.concat dir (case.Sieve.Bugs.id ^ ".card.json"))
                          in
                          output_string oc (Dsim.Json.to_string j ^ "\n");
                          close_out oc);
                      Some card))
            cases
        in
        if json then Sieve.Report.json (Dsim.Json.List (List.map Diagnosis.Card.to_json cards))
        else begin
          Sieve.Report.table
            ~header:[ "bug"; "divergence"; "rev"; "stream"; "suspect"; "read-site"; "anti-pattern"; "hazard" ]
            (List.map
               (fun (c : Diagnosis.Card.t) ->
                 [
                   c.Diagnosis.Card.bug;
                   c.Diagnosis.Card.divergence.Diagnosis.Card.kind;
                   string_of_int c.Diagnosis.Card.divergence.Diagnosis.Card.rev;
                   c.Diagnosis.Card.divergence.Diagnosis.Card.stream;
                   c.Diagnosis.Card.suspect.Diagnosis.Card.component;
                   c.Diagnosis.Card.suspect.Diagnosis.Card.read_site;
                   c.Diagnosis.Card.suspect.Diagnosis.Card.anti_pattern;
                   string_of_int c.Diagnosis.Card.suspect.Diagnosis.Card.hazard_severity;
                 ])
               cards);
          List.iter
            (fun (c : Diagnosis.Card.t) ->
              match c.Diagnosis.Card.divergence.Diagnosis.Card.event with
              | Some e ->
                  Printf.printf "  %s: diverged from committed %s\n" c.Diagnosis.Card.bug e
              | None -> ())
            cards
        end;
        if !failures > 0 then begin
          Printf.eprintf "diagnose: %d failure(s)\n" !failures;
          exit 1
        end
  in
  Cmd.v (Cmd.info "diagnose" ~doc)
    Term.(const run $ ids_arg $ json_arg $ out_arg $ minimize_budget_arg)

(* --- lint ----------------------------------------------------------- *)

let expand_ml_paths paths =
  List.concat_map
    (fun path ->
      if not (Sys.file_exists path) then begin
        Printf.eprintf "no such file or directory: %s\n" path;
        exit 2
      end
      else if Sys.is_directory path then
        Sys.readdir path |> Array.to_list |> List.sort String.compare
        |> List.filter (fun f -> Filename.check_suffix f ".ml")
        |> List.map (Filename.concat path)
      else [ path ])
    paths

let lint_cmd =
  let doc =
    "Statically lint controller sources with the stale-taint dataflow engine: cached-view, \
     replica-routed and ZooKeeper-follower reads are tainted sources; destructive writes, \
     proposals and region-assignment CASes are sinks; quorum re-reads, revision preconditions, \
     sync leader reads and epoch seals kill taint. Shape rules cover edge-triggered handlers, \
     one-shot ZK watches and pre-crash resyncs. Exits 1 if any finding is not in the baseline."
  in
  let paths_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"PATH"
          ~doc:
            "Files or directories to lint (default: lib/kube, lib/hbase and lib/replicated, \
             whichever exist).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit one JSON object (findings, suppressed, errors) instead of text.")
  in
  let baseline_arg =
    Arg.(
      value & opt string ".sievelint"
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Baseline of suppressed finding keys (file:pattern:func, one per line, # comments). \
             A missing file is an empty baseline.")
  in
  let explain_arg =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Print each finding's evidence path: the tainted source, every propagation step, \
             the sink, and the guard whose absence makes it a finding.")
  in
  let save_baseline_arg =
    Arg.(
      value & flag
      & info [ "save-baseline" ]
          ~doc:
            "Rewrite the baseline file with the current findings' keys in the file:pattern:func \
             format, then exit 0.")
  in
  let run paths json baseline explain save_baseline =
    let paths =
      match paths with
      | [] ->
          List.filter Sys.file_exists [ "lib/kube"; "lib/hbase"; "lib/replicated" ]
      | _ -> paths
    in
    let findings, errors = Analysis.Lint.files (expand_ml_paths paths) in
    if save_baseline then begin
      Analysis.Lint.save_baseline ~path:baseline findings;
      Printf.printf "%s: %d key%s saved\n" baseline (List.length findings)
        (if List.length findings = 1 then "" else "s")
    end
    else begin
      let fresh, suppressed =
        Analysis.Lint.suppress ~baseline:(Analysis.Lint.load_baseline baseline) findings
      in
      if json then
        Sieve.Report.json
          (Dsim.Json.Obj
             [
               ("findings", Dsim.Json.List (List.map Analysis.Lint.to_json fresh));
               ("suppressed", Dsim.Json.List (List.map Analysis.Lint.to_json suppressed));
               ("errors", Dsim.Json.List (List.map (fun e -> Dsim.Json.String e) errors));
             ])
      else begin
        List.iter
          (fun (f : Analysis.Lint.finding) ->
            Printf.printf "%s:%d: [%s] %s\n  %s\n" f.Analysis.Lint.file f.Analysis.Lint.line
              f.Analysis.Lint.rule f.Analysis.Lint.func f.Analysis.Lint.message;
            if explain then
              List.iter
                (fun line -> Printf.printf "    %s\n" line)
                (Analysis.Lint.explain_lines f))
          fresh;
        List.iter (fun e -> Printf.printf "error: %s\n" e) errors;
        Printf.printf "%d finding%s (%d suppressed by baseline), %d parse error%s\n"
          (List.length fresh)
          (if List.length fresh = 1 then "" else "s")
          (List.length suppressed) (List.length errors)
          (if List.length errors = 1 then "" else "s")
      end;
      if fresh <> [] || errors <> [] then exit 1
    end
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(const run $ paths_arg $ json_arg $ baseline_arg $ explain_arg $ save_baseline_arg)

(* --- hazards -------------------------------------------------------- *)

let hazards_cmd =
  let doc =
    "Print the layer-2 static model of the default cluster configuration: per-component \
     read/write footprints and the hazard graph (cached-read-to-destructive-write, \
     write/write conflict, written-but-unwatched edges) classified by partial-history \
     pattern. $(b,hunt --hazard-rank) dispatches trials by these severities."
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit one JSON object (footprints, hazards) instead of tables.")
  in
  let fixed_arg =
    Arg.(
      value & flag
      & info [ "fixed" ]
          ~doc:"Analyze the all-fixes-on configuration instead of the bug-era default.")
  in
  let lint_arg =
    Arg.(
      value & flag
      & info [ "lint" ]
          ~doc:
            "Append the lint's per-path hazards: one entry per taint evidence path over the \
             controller sources on disk (lib/kube, lib/hbase, lib/replicated), baseline \
             ignored.")
  in
  let run json fixed lint =
    let config =
      if fixed then
        {
          Kube.Cluster.default_config with
          Kube.Cluster.kubelet_monotonic = true;
          scheduler_fixed = true;
          operator_fixed = true;
          volume_fixed = true;
          node_controller_fixed = true;
          deployment_fixed = true;
        }
      else Kube.Cluster.default_config
    in
    let footprints = Sieve.Footprint.of_config config in
    let hazards =
      let base = Analysis.Hazard.of_footprints footprints in
      if not lint then base
      else
        let findings, _errors =
          Analysis.Lint.files
            (expand_ml_paths
               (List.filter Sys.file_exists [ "lib/kube"; "lib/hbase"; "lib/replicated" ]))
        in
        base @ Analysis.Hazard.of_lint findings
    in
    if json then
      Sieve.Report.json
        (Dsim.Json.Obj
           [
             ("footprints", Dsim.Json.List (List.map Sieve.Footprint.to_json footprints));
             ("hazards", Dsim.Json.List (List.map Analysis.Hazard.to_json hazards));
           ])
    else begin
      Sieve.Report.table
        ~header:[ "component"; "cached reads"; "quorum reads"; "writes"; "destructive" ]
        (List.map
           (fun (fp : Sieve.Footprint.t) ->
             let j = String.concat " " in
             [
               fp.Sieve.Footprint.component;
               j fp.Sieve.Footprint.cached_reads;
               j fp.Sieve.Footprint.quorum_reads;
               j fp.Sieve.Footprint.writes;
               j fp.Sieve.Footprint.destructive;
             ])
           footprints);
      print_newline ();
      Sieve.Report.table
        ~header:[ "sev"; "pattern"; "component"; "prefix"; "reason" ]
        (List.map
           (fun (h : Analysis.Hazard.t) ->
             [
               string_of_int h.Analysis.Hazard.severity;
               pattern_name h.Analysis.Hazard.pattern;
               h.Analysis.Hazard.component;
               h.Analysis.Hazard.prefix;
               h.Analysis.Hazard.reason;
             ])
           hazards)
    end
  in
  Cmd.v (Cmd.info "hazards" ~doc) Term.(const run $ json_arg $ fixed_arg $ lint_arg)

let main_cmd =
  let doc = "partial-history testing tool for the simulated Kubernetes-like control plane" in
  let info = Cmd.info "sieve" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      list_cmd; bugs_cmd; trace_cmd; timeline_cmd; campaign_cmd; explore_cmd; minimize_cmd;
      coverage_cmd; seals_cmd; hunt_cmd; check_cmd; diagnose_cmd; lint_cmd; hazards_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
