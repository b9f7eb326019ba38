(* Test the hunt campaign engine: journal crash-safety, ordered
   fan-out, cross-job determinism, resume convergence, finding
   deduplication, and duplicate trials settled from one run. *)

let read_file path =
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  contents

let mkdir_if_missing path = if not (Sys.file_exists path) then Sys.mkdir path 0o755

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* --- journal ------------------------------------------------------- *)

let sample_entries =
  [
    Hunt.Journal.Header { version = 1; seed = 42L; trials = 3; cases = [ "CA-398" ] };
    Hunt.Journal.Trial
      {
        trial = 0;
        case = "CA-398";
        origin = "planner#4";
        seed = -6180651882152404686L;
        strategy = "drop *->volumectl pvcs/vol-0/create in [903,8000]ms";
        violations =
          [
            {
              Hunt.Journal.time = 5_600_000;
              bug = "CA-398";
              signature = "CA-398/volumectl/leak:vol-0";
              detail = "pvc vol-0 never released";
            };
          ];
      };
    Hunt.Journal.Finding
      {
        signature = "CA-398/volumectl/leak:vol-0";
        trial = 0;
        case = "CA-398";
        time = 5_600_000;
        bug = "CA-398";
        detail = "pvc vol-0 never released";
        strategy = "drop *->volumectl pvcs/vol-0/create in [903,8000]ms";
        minimized = "drop *->volumectl pvcs/vol-0/create (first 1) in [903,1014]ms";
        shrink_runs = 8;
      };
  ]

let journal_roundtrip () =
  List.iter
    (fun entry ->
      match Hunt.Journal.entry_of_json (Hunt.Journal.entry_to_json entry) with
      | Some back -> Alcotest.(check bool) "roundtrips" true (back = entry)
      | None -> Alcotest.fail "entry failed to decode")
    sample_entries

let journal_tolerates_torn_tail () =
  mkdir_if_missing "_hunt_test";
  let path = "_hunt_test/torn.jsonl" in
  let writer = Hunt.Journal.create ~path in
  List.iter (Hunt.Journal.append writer) sample_entries;
  Hunt.Journal.close writer;
  let clean = read_file path in
  (* A crash mid-append leaves a record without its newline: the loader
     must keep everything before it and report the clean byte length. *)
  write_file path (clean ^ {|{"trial":99,"case":"CA-398","ori|});
  let entries, valid = Hunt.Journal.load path in
  Alcotest.(check int) "all clean records survive" (List.length sample_entries)
    (List.length entries);
  Alcotest.(check int) "valid length excludes the torn tail" (String.length clean) valid;
  Alcotest.(check bool) "records intact" true (entries = sample_entries);
  (* open_resume cuts the torn tail off the file itself, so appends land
     exactly where an uninterrupted run would have put them. *)
  let resumed, writer = Hunt.Journal.open_resume ~path in
  Hunt.Journal.close writer;
  Alcotest.(check bool) "resume sees the clean prefix" true (resumed = sample_entries);
  Alcotest.(check string) "file truncated to the clean prefix" clean (read_file path);
  (* A missing file is an empty journal, not an error. *)
  let entries, valid = Hunt.Journal.load "_hunt_test/does-not-exist.jsonl" in
  Alcotest.(check bool) "missing file is empty" true (entries = [] && valid = 0)

(* --- pool ---------------------------------------------------------- *)

let pool_emits_in_order () =
  let tasks = Array.init 100 (fun i -> i) in
  let emitted = ref [] in
  Hunt.Pool.map_ordered ~jobs:4 ~tasks
    ~f:(fun i task ->
      (* Uneven work so completion order differs from task order. *)
      let spin = if i mod 7 = 0 then 40_000 else 200 in
      let acc = ref 0 in
      for _ = 1 to spin do
        incr acc
      done;
      ignore !acc;
      task * task)
    ~emit:(fun i result -> emitted := (i, result) :: !emitted);
  let emitted = List.rev !emitted in
  Alcotest.(check int) "every task emitted" 100 (List.length emitted);
  List.iteri
    (fun expect (i, result) ->
      Alcotest.(check int) "emit order is task order" expect i;
      Alcotest.(check int) "result matches task" (expect * expect) result)
    emitted

let pool_propagates_exceptions () =
  let tasks = Array.init 8 (fun i -> i) in
  match
    Hunt.Pool.map_ordered ~jobs:3 ~tasks
      ~f:(fun _ task -> if task = 5 then failwith "boom" else task)
      ~emit:(fun _ _ -> ())
  with
  | () -> Alcotest.fail "expected the worker's exception"
  | exception Failure msg -> Alcotest.(check string) "original exception" "boom" msg

(* --- campaign ------------------------------------------------------ *)

let campaign ?(jobs = 1) ?(resume = false) ~out () =
  Hunt.Campaign.run ~jobs ~out ~resume ~budget:32 ~seed:42L ~minimize_budget:12
    ~cases:[ Sieve.Bugs.ca_398 () ] ()

let findings_fingerprint (summary : Hunt.Campaign.summary) =
  List.map
    (fun (f : Hunt.Campaign.finding) -> (f.signature, f.trial, f.minimized, f.shrink_runs))
    summary.Hunt.Campaign.findings

let campaign_deterministic_across_jobs () =
  let sequential = campaign ~jobs:1 ~out:"_hunt_test/det-j1" () in
  let parallel = campaign ~jobs:4 ~out:"_hunt_test/det-j4" () in
  Alcotest.(check string) "byte-identical journals"
    (read_file "_hunt_test/det-j1/journal.jsonl")
    (read_file "_hunt_test/det-j4/journal.jsonl");
  Alcotest.(check bool) "found something" true (sequential.Hunt.Campaign.findings <> []);
  Alcotest.(check bool) "same findings" true
    (findings_fingerprint sequential = findings_fingerprint parallel)

let campaign_resume_converges () =
  let full = campaign ~jobs:2 ~out:"_hunt_test/res-full" () in
  let journal = read_file "_hunt_test/res-full/journal.jsonl" in
  (* Rebuild the first half of the journal plus a torn record, as if the
     campaign had been killed mid-append. *)
  let lines = String.split_on_char '\n' journal in
  let keep = List.filteri (fun i _ -> i < List.length lines / 2) lines in
  mkdir_if_missing "_hunt_test/res-half";
  write_file "_hunt_test/res-half/journal.jsonl"
    (String.concat "\n" keep ^ "\n" ^ {|{"trial":999,"torn|});
  let resumed = campaign ~jobs:2 ~resume:true ~out:"_hunt_test/res-half" () in
  Alcotest.(check bool) "some trials replayed" true (resumed.Hunt.Campaign.replayed > 0);
  Alcotest.(check bool) "some trials executed" true (resumed.Hunt.Campaign.executed > 0);
  Alcotest.(check string) "resumed journal converges byte-for-byte" journal
    (read_file "_hunt_test/res-half/journal.jsonl");
  Alcotest.(check bool) "same findings as the uninterrupted run" true
    (findings_fingerprint full = findings_fingerprint resumed)

let campaign_resume_refuses_foreign_journal () =
  mkdir_if_missing "_hunt_test/res-foreign";
  let writer = Hunt.Journal.create ~path:"_hunt_test/res-foreign/journal.jsonl" in
  Hunt.Journal.append writer
    (Hunt.Journal.Header { version = 1; seed = 7L; trials = 32; cases = [ "CA-398" ] });
  Hunt.Journal.close writer;
  match campaign ~resume:true ~out:"_hunt_test/res-foreign" () with
  | _ -> Alcotest.fail "expected resume to refuse a different campaign's journal"
  | exception Failure msg ->
      Alcotest.(check bool) "clear error" true
        (String.length msg > 0 && String.sub msg 0 4 = "hunt")

(* A journal is written in trial order, so resume replays a prefix of
   the plan; one with a trial missing in the middle was not written by
   this campaign. *)
let campaign_resume_refuses_a_gap () =
  ignore (campaign ~out:"_hunt_test/res-gap" ());
  let lines = String.split_on_char '\n' (read_file "_hunt_test/res-gap/journal.jsonl") in
  let is_trial_3 line =
    match Result.map Hunt.Journal.entry_of_json (Dsim.Json.parse line) with
    | Ok (Some (Hunt.Journal.Trial { trial = 3; _ })) -> true
    | _ -> false
  in
  write_file "_hunt_test/res-gap/journal.jsonl"
    (String.concat "\n" (List.filter (fun line -> not (is_trial_3 line)) lines));
  match campaign ~resume:true ~out:"_hunt_test/res-gap" () with
  | _ -> Alcotest.fail "expected resume to refuse a journal missing trial 3"
  | exception Failure msg ->
      Alcotest.(check bool) "names the trial out of order" true
        (String.starts_with ~prefix:"hunt: _hunt_test/res-gap/journal.jsonl holds trial 4" msg)

let campaign_dedups_findings () =
  let summary = campaign ~out:"_hunt_test/dedup" () in
  let entries, _ = Hunt.Journal.load "_hunt_test/dedup/journal.jsonl" in
  let exposures = Hashtbl.create 8 in
  List.iter
    (function
      | Hunt.Journal.Trial { violations; _ } ->
          List.iter
            (fun (v : Hunt.Journal.violation_record) ->
              Hashtbl.replace exposures v.signature
                (1 + Option.value (Hashtbl.find_opt exposures v.signature) ~default:0))
            violations
      | _ -> ())
    entries;
  let repeated =
    Hashtbl.fold (fun s n acc -> if n >= 2 then s :: acc else acc) exposures []
  in
  Alcotest.(check bool) "a signature is exposed by several trials" true (repeated <> []);
  let signatures =
    List.map (fun (f : Hunt.Campaign.finding) -> f.signature) summary.Hunt.Campaign.findings
  in
  Alcotest.(check bool) "findings list each signature once" true
    (List.sort_uniq compare signatures = List.sort compare signatures);
  List.iter
    (fun s ->
      Alcotest.(check bool) "the repeated signature is a single finding" true
        (List.mem s signatures))
    repeated;
  (* Every finding left an artifact directory behind. *)
  List.iter
    (fun s ->
      let dir = Filename.concat "_hunt_test/dedup/findings" (Hunt.Signature.to_dirname s) in
      Alcotest.(check bool) "artifact emitted" true
        (Sys.file_exists (Filename.concat dir "artifact.json")
        && Sys.file_exists (Filename.concat dir "finding.json")))
    signatures

(* --- duplicate trials ------------------------------------------------ *)

let cases_of ids = List.map (fun id -> Option.get (Sieve.Bugs.find id)) ids
let rep_cases () = cases_of [ "REP-STALE"; "REP-CHURN"; "REP-MINORITY"; "REP-RECOVER" ]
let hbase_cases () = cases_of [ "HB-ASSIGN"; "HB-WATCH"; "HB-FOLLOWER" ]

(* A trial's run key: trials of one case share its spec and horizon. *)
let run_key (t : Hunt.Campaign.trial) = (t.case_id, t.test.Sieve.Runner.strategy)

(* (representative, duplicate) pairs of a plan, duplicate order: the
   representative is the lowest-index trial with the same key. *)
let duplicate_pairs (trials : Hunt.Campaign.trial array) =
  let first = Hashtbl.create 97 in
  Array.fold_left
    (fun pairs (t : Hunt.Campaign.trial) ->
      match Hashtbl.find_opt first (run_key t) with
      | Some r -> (trials.(r), t) :: pairs
      | None ->
          Hashtbl.add first (run_key t) t.index;
          pairs)
    [] trials
  |> List.rev

(* The premise of the run cache: a duplicate run straight through equals
   its representative's in every observable byte. Samples the first,
   middle and last duplicate of every REP and HB case. *)
let duplicates_run_identically () =
  let planned = Hunt.Campaign.plan ~seed:42L ~cases:(rep_cases () @ hbase_cases ()) () in
  let pairs = duplicate_pairs planned.trials in
  let sample =
    List.concat_map
      (fun (case : Sieve.Bugs.case) ->
        let mine =
          Array.of_list
            (List.filter
               (fun ((t : Hunt.Campaign.trial), _) -> String.equal t.case_id case.id)
               pairs)
        in
        let k = Array.length mine in
        Alcotest.(check bool) (case.id ^ " has duplicates") true (k > 0);
        List.sort_uniq compare [ 0; k / 2; k - 1 ] |> List.map (fun i -> mine.(i)))
      (rep_cases () @ hbase_cases ())
  in
  Alcotest.(check bool) "at least 20 pairs" true (List.length sample >= 20);
  List.iter
    (fun ((r : Hunt.Campaign.trial), (d : Hunt.Campaign.trial)) ->
      let name = Printf.sprintf "%s trial %d vs %d" d.case_id r.index d.index in
      let a = Sieve.Runner.run_test ~check_conformance:true r.test in
      let b = Sieve.Runner.run_test ~check_conformance:true d.test in
      Alcotest.(check string) (name ^ " trace") (Sieve.Runner.trace_jsonl a)
        (Sieve.Runner.trace_jsonl b);
      Alcotest.(check string) (name ^ " metrics")
        (Dsim.Json.to_string (Sieve.Runner.metrics_json a))
        (Dsim.Json.to_string (Sieve.Runner.metrics_json b));
      let violations (o : Sieve.Runner.outcome) =
        List.map (fun (time, v) -> (time, Sieve.Oracle.describe v)) o.violations
      in
      Alcotest.(check (list (pair int string))) (name ^ " violations") (violations a)
        (violations b);
      let conformance (o : Sieve.Runner.outcome) =
        Option.map
          (fun (c : Sieve.Runner.conformance) -> (c.conf_violations, c.conf_total, c.conf_strict))
          o.conformance
      in
      Alcotest.(check bool) (name ^ " conformance") true (conformance a = conformance b))
    sample

(* Each distinct run is simulated once: 645 runs settle the 873 REP
   trials, and the journal does not depend on which domain ran them. *)
let campaign_simulates_each_run_once () =
  let run jobs =
    let out = Printf.sprintf "_hunt_test/once-j%d" jobs in
    let summary =
      Hunt.Campaign.run ~jobs ~out ~seed:42L ~minimize_budget:12 ~cases:(rep_cases ()) ()
    in
    Alcotest.(check (list int))
      (Printf.sprintf "jobs %d: trials, executed, simulated" jobs)
      [ 873; 873; 645 ]
      [ summary.trials; summary.executed; summary.simulated ];
    read_file (Filename.concat out "journal.jsonl")
  in
  Alcotest.(check string) "byte-identical journals at jobs 1 and 2" (run 1) (run 2)

(* Resume from a journal cut after a representative but before its first
   duplicate: that duplicate has no run to settle from, so it is
   simulated, and the bytes converge on the uninterrupted run's. *)
let campaign_resume_between_duplicates () =
  let cases = hbase_cases () in
  let run ?(resume = false) out =
    Hunt.Campaign.run ~jobs:2 ~out ~resume ~seed:42L ~minimize_budget:12 ~cases ()
  in
  let full = run "_hunt_test/dup-full" in
  Alcotest.(check (pair int int)) "simulated of executed" (170, 200)
    (full.simulated, full.executed);
  let journal = read_file "_hunt_test/dup-full/journal.jsonl" in
  let trials = (Hunt.Campaign.plan ~seed:42L ~cases ()).trials in
  let r, d =
    match duplicate_pairs trials with
    | (r, d) :: _ -> (r.index, d.index)
    | [] -> Alcotest.fail "the HBase plan has no duplicates"
  in
  let cut = (r + d + 1) / 2 in
  Alcotest.(check bool) "cut between representative and duplicate" true (r < cut && cut <= d);
  let before_cut line =
    match Result.map Hunt.Journal.entry_of_json (Dsim.Json.parse line) with
    | Ok (Some (Hunt.Journal.Trial { trial; _ })) -> trial < cut
    | _ -> true
  in
  let rec keep = function
    | line :: rest when line <> "" && before_cut line -> line :: keep rest
    | _ -> []
  in
  mkdir_if_missing "_hunt_test/dup-half";
  write_file "_hunt_test/dup-half/journal.jsonl"
    (String.concat "\n" (keep (String.split_on_char '\n' journal)) ^ "\n");
  let resumed = run ~resume:true "_hunt_test/dup-half" in
  Alcotest.(check string) "resumed journal converges byte-for-byte" journal
    (read_file "_hunt_test/dup-half/journal.jsonl");
  let rest = List.filter (fun (t : Hunt.Campaign.trial) -> t.index >= cut) (Array.to_list trials) in
  Alcotest.(check (list int)) "replayed, executed, simulated"
    [ cut; List.length rest; List.length (List.sort_uniq compare (List.map run_key rest)) ]
    [ resumed.replayed; resumed.executed; resumed.simulated ]

(* --- schedule -------------------------------------------------------- *)

(* The greedy [Schedule.order] must reproduce: every round rescans all
   pending candidates, recomputing each gain from [Coverage.cells_of]
   against its own marked set, and takes the first strictly greater
   (priority, gain). Returns the order and the distinct cells marked. *)
let naive_order ?priority coverage (plans : Sieve.Planner.plan array) =
  let n = Array.length plans in
  let prio = match priority with None -> Array.make n 0 | Some f -> Array.map f plans in
  let cells = Array.map (fun p -> Sieve.Coverage.cells_of coverage p.Sieve.Planner.strategy) plans in
  let marked = Hashtbl.create 128 in
  let gain i =
    let fresh = Hashtbl.create 16 in
    List.iter (fun c -> if not (Hashtbl.mem marked c) then Hashtbl.replace fresh c ()) cells.(i);
    Hashtbl.length fresh
  in
  let pending = Array.make n true in
  let out = ref [] in
  for _ = 1 to n do
    let best = ref (-1) and best_key = ref (min_int, -1) in
    for i = 0 to n - 1 do
      if pending.(i) then begin
        let key = (prio.(i), gain i) in
        if key > !best_key then begin
          best := i;
          best_key := key
        end
      end
    done;
    pending.(!best) <- false;
    List.iter (fun c -> Hashtbl.replace marked c ()) cells.(!best);
    out := !best :: !out
  done;
  (List.rev !out, Hashtbl.length marked)

(* Every corpus case (kube, REP, HB): its planner candidates and a
   constructor for a fresh coverage space over its reference history. *)
let corpus_candidates =
  lazy
    (Array.of_list
       (List.map
          (fun (case : Sieve.Bugs.case) ->
            let spec = case.Sieve.Bugs.spec in
            let commits =
              Sieve.Runner.reference_commits (Sieve.Bugs.reference_test_of_case case)
            in
            ( case.Sieve.Bugs.id,
              Array.of_list
                (Sieve.Family.candidates Sieve.Family.Planner_causal ~spec
                   ~horizon:case.Sieve.Bugs.horizon commits),
              fun () -> Sieve.Family.space spec commits ))
          (Sieve.Bugs.all_with_extras () @ Sieve.Bugs.replicated () @ Sieve.Bugs.hbase ())))

(* Bounds the naive reference's quadratic cost per instance. *)
let max_subset = 96

(* One instance orders a random, shuffled subset of every case's
   candidates, under priorities drawn from [0, range] (none when range is
   0), so equal-priority and equal-gain ties are common. *)
let qcheck_order_matches_naive =
  QCheck.Test.make ~count:25 ~name:"lazy greedy order = naive greedy on every corpus case"
    QCheck.(pair (int_bound 1_000_000) (int_bound 3))
    (fun (seed, range) ->
      Array.iteri
        (fun k (id, candidates, space) ->
          let rng = Dsim.Rng.create (Int64.of_int ((seed * 16) + k)) in
          let pool = Array.copy candidates in
          Dsim.Rng.shuffle rng pool;
          let size = Dsim.Rng.int rng (min (Array.length pool) max_subset + 1) in
          let plans = Array.sub pool 0 size in
          let priority =
            if range = 0 then None
            else
              Some
                (fun (p : Sieve.Planner.plan) ->
                  Hashtbl.hash (seed, Sieve.Strategy.describe p.strategy) mod (range + 1))
          in
          let coverage = space () in
          let got = Hunt.Schedule.order ?priority coverage plans in
          let expect, expect_covered = naive_order ?priority (space ()) plans in
          if got <> expect then
            QCheck.Test.fail_reportf "%s: order differs on %d of %d candidates" id size
              (Array.length candidates);
          if Sieve.Coverage.covered coverage <> expect_covered then
            QCheck.Test.fail_reportf "%s: covered %d, naive %d" id
              (Sieve.Coverage.covered coverage) expect_covered)
        (Lazy.force corpus_candidates);
      true)

let order_matches_naive_on_full_cases () =
  Array.iter
    (fun (id, plans, space) ->
      let coverage = space () in
      let got = Hunt.Schedule.order coverage plans in
      let expect, expect_covered = naive_order (space ()) plans in
      Alcotest.(check (list int)) (id ^ " order") expect got;
      Alcotest.(check int) (id ^ " covered") expect_covered (Sieve.Coverage.covered coverage))
    (Lazy.force corpus_candidates)

let suites =
  [
    ( "hunt.schedule",
      [
        Qcheck_util.to_alcotest qcheck_order_matches_naive;
        Alcotest.test_case "order = naive greedy on full candidate arrays" `Slow
          order_matches_naive_on_full_cases;
      ] );
    ( "hunt.journal",
      [
        Alcotest.test_case "entries roundtrip through json" `Quick journal_roundtrip;
        Alcotest.test_case "torn tail tolerated and truncated" `Quick
          journal_tolerates_torn_tail;
      ] );
    ( "hunt.pool",
      [
        Alcotest.test_case "emits in task order" `Quick pool_emits_in_order;
        Alcotest.test_case "propagates worker exceptions" `Quick pool_propagates_exceptions;
      ] );
    ( "hunt.campaign",
      [
        Alcotest.test_case "journal identical across job counts" `Slow
          campaign_deterministic_across_jobs;
        Alcotest.test_case "resume converges on the full run" `Slow campaign_resume_converges;
        Alcotest.test_case "resume refuses a foreign journal" `Quick
          campaign_resume_refuses_foreign_journal;
        Alcotest.test_case "resume refuses a journal with a gap" `Quick
          campaign_resume_refuses_a_gap;
        Alcotest.test_case "findings dedup by signature" `Slow campaign_dedups_findings;
      ] );
    ( "hunt.duplicates",
      [
        Alcotest.test_case "duplicate trials run identically" `Slow duplicates_run_identically;
        Alcotest.test_case "each distinct run simulated once" `Slow
          campaign_simulates_each_run_once;
        Alcotest.test_case "resume between representative and duplicate converges" `Slow
          campaign_resume_between_duplicates;
      ] );
  ]
