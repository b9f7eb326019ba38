(* The traced run: re-drives one workload's plan and trials through the
   public functions [Campaign.plan] and [Runner.run_test] call, in the
   same order, with a span around each call. Per-layer metrics come from
   those spans, from each trial's metrics registry, from allocation
   differences between variants of the same trial, and from an idle
   cluster per case. *)

type phase = { phase : 'a. string -> (unit -> 'a) -> 'a }

let spanned = { phase = (fun name f -> Spans.with_span name f) }
let plain = { phase = (fun _ f -> f ()) }

(* One trial, construction order as in [Runner.run_test]: cluster,
   oracle, monitor, strategy, start and workload, run, final monitor
   check. *)
let drive ~(phase : phase) ~oracle ~monitor (test : Sieve.Runner.test) =
  let p = phase.phase in
  let live = p "trial.create" (fun () -> Sieve.Substrate.create test.spec) in
  let violations, hooks =
    match live with
    | Sieve.Substrate.Kube_live cluster ->
        let o =
          if oracle then Some (p "trial.oracle_attach" (fun () -> Sieve.Oracle.attach cluster))
          else None
        in
        let hooks =
          if monitor then
            Some
              (p "trial.monitor_attach" (fun () ->
                   Conformance.Handle.of_kube (Conformance.Hooks.attach cluster)))
          else None
        in
        p "trial.strategy_apply" (fun () -> Sieve.Strategy.apply cluster test.strategy);
        ((fun () -> Option.fold ~none:[] ~some:Sieve.Oracle.violations o), hooks)
    | Sieve.Substrate.Hbase_live cluster ->
        let o =
          if oracle then
            Some (p "trial.oracle_attach" (fun () -> Sieve.Hbase_oracle.attach cluster))
          else None
        in
        let hooks =
          if monitor then
            Some
              (p "trial.monitor_attach" (fun () ->
                   Conformance.Handle.of_hbase (Conformance.Hbase_hooks.attach cluster)))
          else None
        in
        p "trial.strategy_apply" (fun () -> Sieve.Strategy.apply_hbase cluster test.strategy);
        ((fun () -> Option.fold ~none:[] ~some:Sieve.Hbase_oracle.violations o), hooks)
  in
  p "trial.start" (fun () ->
      Sieve.Substrate.start live;
      Sieve.Substrate.schedule live test.spec);
  p "trial.run" (fun () -> Sieve.Substrate.run ~until:test.horizon live);
  Option.iter (fun h -> p "trial.monitor_finish" (fun () -> Conformance.Handle.finish h)) hooks;
  (violations (), live)

let records violations =
  List.map
    (fun (time, v) ->
      {
        Hunt.Journal.time;
        bug = Sieve.Oracle.bug_id v;
        signature = Hunt.Signature.of_violation v;
        detail = Sieve.Oracle.describe v;
      })
    violations

(* One case's share of [Campaign.plan]: reference run, causal
   candidates, coverage space, coverage ordering. Returns the case's
   planner strategies in dispatch order. *)
let plan_case (case : Sieve.Bugs.case) =
  Spans.with_span "plan.case" (fun () ->
      let commits =
        Spans.with_span "plan.reference" (fun () ->
            Sieve.Runner.reference_commits (Sieve.Bugs.reference_test_of_case case))
      in
      let events = List.map (fun (c : Sieve.Runner.commit) -> (c.time, c.key, c.op)) commits in
      let horizon = case.horizon in
      let candidates f = Spans.with_span "plan.candidates" (fun () -> Array.of_list (f ())) in
      let coverage f = Spans.with_span "plan.coverage" f in
      let plans, space =
        match case.spec with
        | Sieve.Substrate.Kube { config; _ } ->
            ( candidates (fun () -> Sieve.Planner.candidates_causal ~config ~commits ~horizon ()),
              coverage (fun () -> Sieve.Coverage.create ~config ~events) )
        | Sieve.Substrate.Hbase { config; _ } ->
            ( candidates (fun () ->
                  Sieve.Planner.candidates_causal_hbase ~config ~commits ~horizon ()),
              coverage (fun () -> Sieve.Coverage.create_hbase ~config ~events) )
      in
      let order = Spans.with_span "plan.order" (fun () -> Hunt.Schedule.order space plans) in
      List.map (fun i -> plans.(i).Sieve.Planner.strategy) order)

(* Dispatch interleaves cases round-robin. *)
let round_robin lists =
  let rec go acc = function
    | [] -> List.rev acc
    | lists ->
        let heads = List.filter_map (function x :: _ -> Some x | [] -> None) lists in
        let tails = List.filter (( <> ) []) (List.map (function _ :: r -> r | [] -> []) lists) in
        go (List.rev_append heads acc) tails
  in
  go [] lists

let rec is_prefix a b =
  match (a, b) with
  | [], _ -> true
  | x :: a, y :: b -> String.equal x y && is_prefix a b
  | _ :: _, [] -> false

let write path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let card ~(finding : Hunt.Journal.violation_record) ~minimized =
  Spans.with_span "finding.card" (fun () ->
      let outcome = Sieve.Runner.run_test ~diagnose:true minimized in
      let target v = String.equal (Hunt.Signature.of_violation v) finding.signature in
      Diagnosis.Diagnose.of_outcome ~target
        ~minimized:(Sieve.Strategy.describe minimized.Sieve.Runner.strategy)
        outcome)

type tally = (string, float list) Hashtbl.t

let note (t : tally) name v =
  Hashtbl.replace t name (v :: Option.value (Hashtbl.find_opt t name) ~default:[])

let noted (t : tally) name = Option.value (Hashtbl.find_opt t name) ~default:[]

(* What each trial's metrics registry and trace say the layers did. *)
let note_layers tally live =
  let m = Sieve.Substrate.metrics live in
  let count name = float_of_int (Dsim.Metrics.count m name) in
  note tally "dsim.trace_entries" (float_of_int (Dsim.Trace.recorded (Sieve.Substrate.trace live)));
  List.iter
    (fun (metric, counter) -> note tally metric (count counter))
    [
      ("dsim.net_calls", "net.calls");
      ("dsim.net_timeouts", "net.timeouts");
      ("dsim.net_casts", "net.casts");
      ("kube.etcd_commits", "etcd.commits");
      ("kube.pipe_delivered", "pipe.delivered");
      ("kube.informer_relists", "informer.relists");
      ("replicated.proposals", "repl.proposals");
      ("replicated.reproposals", "repl.reproposals");
      ("hbase.zk_commits", "zk.commits");
    ];
  note tally "kube.rpc"
    (float_of_int
       (List.fold_left
          (fun acc (name, n) -> if String.starts_with ~prefix:"rpc." name then acc + n else acc)
          0 (Dsim.Metrics.counters m)));
  if Dsim.Metrics.samples m "repl.commit_latency" > 0 then
    note tally "replicated.commit_latency_p50" (Dsim.Metrics.percentile m "repl.commit_latency" 0.5)

type result = {
  metrics : (string * string * float) list;  (** name, unit, value *)
  problems : string list;
  failed : int;  (** re-driven trials whose violations differ from the journal *)
}

(* Re-drives the campaign with spans. [expected] holds the untraced
   journal's violation records by trial index. *)
let redrive (w : Workloads.t) ~seed ~(planned : Hunt.Campaign.planned) ~expected ~dir ~tally =
  let cases = Workloads.cases w in
  let problems = ref [] in
  let mismatched = ref 0 in
  let hits = ref 0 in
  let minimized = ref [] in
  let journal_path = Filename.concat dir "journal.jsonl" in
  Spans.with_span "hunt" (fun () ->
      let schedules = Spans.with_span "plan" (fun () -> List.map plan_case cases) in
      let dispatched = List.map Sieve.Strategy.describe (round_robin schedules) in
      note tally "hunt.plan.candidates" (float_of_int (List.length dispatched));
      let planner_trials =
        List.filter_map
          (fun (t : Hunt.Campaign.trial) ->
            if String.starts_with ~prefix:"planner#" t.origin then
              Some (Sieve.Strategy.describe t.test.strategy)
            else None)
          (Array.to_list planned.trials)
      in
      if not (is_prefix planner_trials dispatched) then
        problems := "re-driven plan disagrees with Campaign.plan" :: !problems;
      let writer = Hunt.Journal.create ~path:journal_path in
      let append entry = Spans.with_span "journal.append" (fun () -> Hunt.Journal.append writer entry) in
      append
        (Hunt.Journal.Header
           {
             version = 1;
             seed;
             trials = Array.length planned.trials;
             cases = List.map (fun (c : Sieve.Bugs.case) -> c.id) cases;
           });
      let known = Hashtbl.create 17 in
      Array.iter
        (fun (trial : Hunt.Campaign.trial) ->
          let violations, live =
            Spans.with_span ~trial:trial.index "trial" (fun () ->
                drive ~phase:spanned ~oracle:true ~monitor:w.audit trial.test)
          in
          note_layers tally live;
          let recs = records violations in
          if recs <> expected.(trial.index) then incr mismatched;
          if recs <> [] then incr hits;
          let strategy = Sieve.Strategy.describe trial.test.strategy in
          append
            (Hunt.Journal.Trial
               {
                 trial = trial.index;
                 case = trial.case_id;
                 origin = trial.origin;
                 seed = trial.seed;
                 strategy;
                 violations = recs;
               });
          List.iter
            (fun (r : Hunt.Journal.violation_record) ->
              if not (Hashtbl.mem known r.signature) then begin
                Hashtbl.replace known r.signature ();
                Spans.with_span ~trial:trial.index "finding" (fun () ->
                    let target v = String.equal (Hunt.Signature.of_violation v) r.signature in
                    let test, shrink_runs =
                      Spans.with_span "finding.minimize" (fun () ->
                          Sieve.Minimize.minimize ~test:trial.test ~target ~budget:200 ())
                    in
                    note tally "core.minimize.runs_per_finding" (float_of_int shrink_runs);
                    Spans.with_span "finding.artifact" (fun () ->
                        let outcome = Sieve.Runner.run_test test in
                        write
                          (Filename.concat dir (Hunt.Signature.to_dirname r.signature ^ ".json"))
                          (Dsim.Json.to_string (Sieve.Runner.artifact outcome)));
                    if w.audit && card ~finding:r ~minimized:test <> None then
                      note tally "diagnosis.cards" 1.0;
                    minimized := (r, test) :: !minimized;
                    append
                      (Hunt.Journal.Finding
                         {
                           signature = r.signature;
                           trial = trial.index;
                           case = trial.case_id;
                           time = r.time;
                           bug = r.bug;
                           detail = r.detail;
                           strategy;
                           minimized = Sieve.Strategy.describe test.strategy;
                           shrink_runs;
                         }))
              end)
            recs)
        planned.trials;
      Hunt.Journal.close writer);
  (* Without --diagnose the campaign makes no cards; time them anyway as
     a probe of what the flag would cost, outside the traced campaign. *)
  if not w.audit then
    List.iter (fun (finding, test) -> ignore (card ~finding ~minimized:test)) !minimized;
  (List.rev !problems, !mismatched, !hits, journal_path)

(* Minor words of each trial under three variants: bare, with the
   oracle, with oracle and monitor. The monitor variant also times the
   monitor's attach and final check. *)
let attribution (planned : Hunt.Campaign.planned) ~tally =
  let measure ~oracle ~monitor =
    let attach = ref 0.0 and finish = ref 0.0 in
    let timing =
      {
        phase =
          (fun name f ->
            let t0 = Unix.gettimeofday () in
            let r = f () in
            let dt = Unix.gettimeofday () -. t0 in
            if String.equal name "trial.monitor_attach" then attach := !attach +. dt
            else if String.equal name "trial.monitor_finish" then finish := !finish +. dt;
            r);
      }
    in
    let words =
      Array.map
        (fun (trial : Hunt.Campaign.trial) ->
          let w0 = Gc.minor_words () in
          ignore (drive ~phase:(if monitor then timing else plain) ~oracle ~monitor trial.test);
          Gc.minor_words () -. w0)
        planned.trials
    in
    (words, !attach, !finish)
  in
  let bare, _, _ = measure ~oracle:false ~monitor:false in
  let oracle, _, _ = measure ~oracle:true ~monitor:false in
  let full, attach, finish = measure ~oracle:true ~monitor:true in
  let n = float_of_int (max 1 (Array.length planned.trials)) in
  let mean_diff a b = Array.fold_left ( +. ) 0.0 (Array.map2 ( -. ) a b) /. n in
  note tally "core.oracle.words_per_trial" (mean_diff oracle bare);
  note tally "conformance.words_per_trial" (mean_diff full oracle);
  note tally "conformance.attach_us" (attach /. n *. 1e6);
  note tally "conformance.finish_us" (finish /. n *. 1e6)

(* The periodic-tick floor: each case's config with an empty workload,
   no perturbation, no oracle and no monitor, run to the case horizon.
   Returns per case id (run words, median run seconds, horizon). *)
let idle_floor cases =
  List.map
    (fun (case : Sieve.Bugs.case) ->
      let spec =
        match case.spec with
        | Sieve.Substrate.Kube { config; _ } -> Sieve.Substrate.Kube { config; workload = [] }
        | Sieve.Substrate.Hbase { config; _ } -> Sieve.Substrate.Hbase { config; workload = [] }
      in
      let sample () =
        let live = Sieve.Substrate.create spec in
        Sieve.Substrate.start live;
        Sieve.Substrate.schedule live spec;
        let w0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        Sieve.Substrate.run ~until:case.horizon live;
        (Gc.minor_words () -. w0, Unix.gettimeofday () -. t0)
      in
      let samples = List.init 5 (fun _ -> sample ()) in
      ( case.id,
        (fst (List.hd samples), Stats.median (List.map snd samples), float_of_int case.horizon) ))
    cases

let mean tally name = Stats.mean (noted tally name)
let sum xs = List.fold_left ( +. ) 0.0 xs

let run (w : Workloads.t) ~seed ~(planned : Hunt.Campaign.planned) ~dir ~(untraced : Timed.rep) =
  let cases = Workloads.cases w in
  let n = Array.length planned.trials in
  let expected = Array.make n [] in
  (match untraced.summary with
  | Some s ->
      List.iter
        (function
          | Hunt.Journal.Trial t when t.trial >= 0 && t.trial < n ->
              expected.(t.trial) <- t.violations
          | _ -> ())
        (fst (Hunt.Journal.load s.journal))
  | None -> ());
  let tally : tally = Hashtbl.create 64 in
  let problems, mismatched, hits, journal = redrive w ~seed ~planned ~expected ~dir ~tally in
  let problems =
    if String.equal (Sha256.hex_of_file journal) untraced.journal_sha then problems
    else "re-driven journal differs from the untraced one" :: problems
  in
  attribution planned ~tally;
  let idle = idle_floor cases in
  let run_words = Spans.words "trial.run" in
  let idle_of (t : Hunt.Campaign.trial) = List.assoc t.case_id idle in
  let per_trial f = Array.to_list (Array.map f planned.trials) in
  let mean_ms name = Stats.mean (Spans.durations name) *. 1e3 in
  let mean_us name = Stats.mean (Spans.durations name) *. 1e6 in
  let traced_hunt_s = Spans.total "hunt" in
  let metrics =
    [
      ("hunt.plan.order_ms", "ms", Spans.total "plan.order" *. 1e3);
      ("hunt.plan.order_mwords", "Mwords", sum (Spans.words "plan.order") /. 1e6);
      ("hunt.plan.candidates", "count", sum (noted tally "hunt.plan.candidates"));
      ("hunt.plan.candidates_ms", "ms", Spans.total "plan.candidates" *. 1e3);
      ("hunt.plan.reference_ms", "ms", Spans.total "plan.reference" *. 1e3);
      ("hunt.journal.append_us", "us", mean_us "journal.append");
    ]
    @ List.concat_map
        (fun phase ->
          let name = "trial." ^ phase in
          [
            ("core." ^ name ^ "_us", "us", mean_us name);
            ("core." ^ name ^ "_words", "words", Stats.mean (Spans.words name));
          ])
        [ "create"; "oracle_attach"; "strategy_apply"; "start"; "run" ]
    @ [
        ("core.oracle.words_per_trial", "words", mean tally "core.oracle.words_per_trial");
        ("core.minimize.ms_per_finding", "ms", mean_ms "finding.minimize");
        ("core.minimize.runs_per_finding", "count", mean tally "core.minimize.runs_per_finding");
        ("core.artifact_ms", "ms", mean_ms "finding.artifact");
        ("core.hit_ratio", "ratio", float_of_int hits /. float_of_int (max 1 n));
        ("core.trials", "count", float_of_int n);
        ("dsim.trace_entries", "count", mean tally "dsim.trace_entries");
        ("dsim.net_calls", "count", mean tally "dsim.net_calls");
        ("dsim.net_timeouts", "count", mean tally "dsim.net_timeouts");
        ("dsim.net_casts", "count", mean tally "dsim.net_casts");
        ( "dsim.idle_words_per_vsec",
          "words/vs",
          Stats.mean
            (per_trial (fun t ->
                 let words, _, horizon = idle_of t in
                 words /. (horizon /. 1e6))) );
        ( "dsim.idle_us_per_vsec",
          "us/vs",
          Stats.mean
            (per_trial (fun t ->
                 let _, secs, horizon = idle_of t in
                 secs *. 1e6 /. (horizon /. 1e6))) );
        ( "dsim.idle_share",
          "ratio",
          sum (per_trial (fun t -> let words, _, _ = idle_of t in words))
          /. Float.max 1.0 (sum run_words) );
        ("kube.etcd_commits", "count", mean tally "kube.etcd_commits");
        ("kube.rpc", "count", mean tally "kube.rpc");
        ("kube.pipe_delivered", "count", mean tally "kube.pipe_delivered");
        ("kube.informer_relists", "count", mean tally "kube.informer_relists");
        ("replicated.proposals", "count", mean tally "replicated.proposals");
        ("replicated.reproposals", "count", mean tally "replicated.reproposals");
        ( "replicated.retry_ratio",
          "ratio",
          sum (noted tally "replicated.reproposals")
          /. Float.max 1.0 (sum (noted tally "replicated.proposals")) );
        ( "replicated.commit_latency_p50",
          "vus",
          Stats.median (noted tally "replicated.commit_latency_p50") );
        ("hbase.zk_commits", "count", mean tally "hbase.zk_commits");
        ("conformance.attach_us", "us", mean tally "conformance.attach_us");
        ("conformance.finish_us", "us", mean tally "conformance.finish_us");
        ("conformance.words_per_trial", "words", mean tally "conformance.words_per_trial");
        ("diagnosis.card_ms", "ms", mean_ms "finding.card");
        ("diagnosis.cards", "count", sum (noted tally "diagnosis.cards"));
        ("trace.hunt_s", "s", traced_hunt_s);
        ("trace.untraced_hunt_s", "s", untraced.hunt_wall_s);
        ( "trace.overhead_pct",
          "%",
          (traced_hunt_s -. untraced.hunt_wall_s) /. untraced.hunt_wall_s *. 100.0 );
      ]
  in
  let problems =
    match untraced.summary with
    | Some s when List.length s.findings <> List.length (noted tally "core.minimize.runs_per_finding")
      ->
        "re-driven findings differ from the untraced campaign's" :: problems
    | _ -> problems
  in
  { metrics; problems; failed = (if problems <> [] then n else mismatched) }
