type trial = {
  index : int;
  case_id : string;
  origin : string;
  seed : int64;
  test : Sieve.Runner.test;
}

type planned = {
  trials : trial array;
  space : (string * int * int) list;
}

type finding = {
  signature : string;
  bug : string;
  case_id : string;
  trial : int;
  time : int;
  detail : string;
  strategy : string;
  minimized : string;
  shrink_runs : int;
}

type progress = { trials_done : int; total : int; replayed : int; findings : int }

type conformance_summary = {
  conf_trials : int;
  conf_total : int;
  conf_signatures : string list;
}

type forking = { forked : int; fallbacks : int; images : int; image_bytes : int }

type shrinking = {
  shrunk : int;
  shrink_simulated : int;
  from_prefix : int;
  prefix_bytes : int;
  stopped : int;
}

type summary = {
  trials : int;
  executed : int;
  simulated : int;
  forking : forking;
  shrinking : shrinking;
  replayed : int;
  with_violations : int;
  findings : finding list;
  space : (string * int * int) list;
  journal : string;
  conformance : conformance_summary option;
  cards : int;
}

(* --- planning ------------------------------------------------------ *)

type planned_case = {
  case : Sieve.Bugs.case;
  events : (int * string * History.Event.op) list;
  components : string list;
  apiservers : string list;
  scheduled : (int * Sieve.Planner.plan) list;  (* dispatch order *)
}

(* Coverage over the case's substrate; used both for scheduling and the
   explored-space report. *)
let coverage_of_case (case : Sieve.Bugs.case) ~events =
  match case.Sieve.Bugs.spec with
  | Sieve.Substrate.Kube { config; _ } -> Sieve.Coverage.create ~config ~events
  | Sieve.Substrate.Hbase { config; _ } -> Sieve.Coverage.create_hbase ~config ~events

let plan_case ?(hazard_rank = false) (case : Sieve.Bugs.case) =
  let horizon = case.Sieve.Bugs.horizon in
  let commits = Sieve.Runner.reference_commits (Sieve.Bugs.reference_test_of_case case) in
  let events =
    List.map (fun c -> (c.Sieve.Runner.time, c.Sieve.Runner.key, c.Sieve.Runner.op)) commits
  in
  (* With hazard ranking the static hazard graph enters as a
     lexicographic priority above coverage gain in the scheduler. It
     deliberately leaves the candidate pool's causal order alone: that
     order is the tie-break among equal-(priority, gain) trials, and
     reshuffling it measurably delays some exposures
     (cassandra-operator-402 in the regression corpus). *)
  let hazards, plans =
    match case.Sieve.Bugs.spec with
    | Sieve.Substrate.Kube { config; _ } ->
        ( (if hazard_rank then Analysis.Hazard.of_config config else []),
          Array.of_list (Sieve.Planner.candidates_causal ~config ~commits ~horizon ()) )
    | Sieve.Substrate.Hbase { config; _ } ->
        ( (if hazard_rank then
             Analysis.Hazard.of_footprints (Sieve.Footprint.of_hbase_config config)
           else []),
          Array.of_list (Sieve.Planner.candidates_causal_hbase ~config ~commits ~horizon ()) )
  in
  let coverage = coverage_of_case case ~events in
  let scheduled =
    Schedule.order
      ?priority:(if hazard_rank then Some (Analysis.Hazard.plan_score hazards coverage) else None)
      coverage plans
    |> List.map (fun i -> (i, plans.(i)))
  in
  let components, apiservers = Sieve.Baselines.targets case.Sieve.Bugs.spec in
  { case; events; components; apiservers; scheduled }

(* Round-robin across cases so early trials are diverse even when one
   case dominates the candidate count. *)
let round_robin queues =
  let out = ref [] in
  let continue = ref true in
  while !continue do
    continue := false;
    List.iter
      (fun queue ->
        match !queue with
        | [] -> ()
        | slot :: rest ->
            queue := rest;
            continue := true;
            out := slot :: !out)
      queues
  done;
  List.rev !out

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let plan ?budget ?(seed = 42L) ?(hazard_rank = false) ~cases () =
  let planned_cases = List.map (plan_case ~hazard_rank) cases in
  let planner_slots =
    round_robin
      (List.map
         (fun pc ->
           ref
             (List.map
                (fun (k, (p : Sieve.Planner.plan)) ->
                  (pc, Printf.sprintf "planner#%d" k, Some p.Sieve.Planner.strategy))
                pc.scheduled))
         planned_cases)
  in
  let slots =
    match budget with
    | None -> planner_slots
    | Some b when b <= List.length planner_slots -> take b planner_slots
    | Some b ->
        (* Budget beyond the planner's candidates: keep hunting with
           random-fault exploration trials whose strategies derive from
           the per-trial seed alone, so they too are order-independent. *)
        let extra = b - List.length planner_slots in
        let case_cycle = Array.of_list planned_cases in
        let explore =
          List.init extra (fun j ->
              (case_cycle.(j mod Array.length case_cycle), "explore", None))
        in
        planner_slots @ explore
  in
  let n = List.length slots in
  (* Per-trial seeds: split the campaign generator once per trial, in
     index order, before anything runs. A trial's seed depends only on
     (campaign seed, index) — never on completion order — which is what
     makes resumed and reordered campaigns reproduce exactly. *)
  let rng = Dsim.Rng.create seed in
  let seeds = Array.make n 0L in
  for i = 0 to n - 1 do
    seeds.(i) <- Dsim.Rng.int64 (Dsim.Rng.split rng)
  done;
  let trials =
    Array.of_list
      (List.mapi
         (fun index (pc, origin, strategy) ->
           let case = pc.case in
           let origin =
             if strategy = None then Printf.sprintf "explore#%d" index else origin
           in
           let strategy =
             match strategy with
             | Some s -> s
             | None ->
                 List.hd
                   (Sieve.Baselines.random_faults ~seed:seeds.(index)
                      ~components:pc.components ~apiservers:pc.apiservers
                      ~horizon:case.Sieve.Bugs.horizon ~n:1)
           in
           {
             index;
             case_id = case.Sieve.Bugs.id;
             origin;
             seed = seeds.(index);
             test =
               {
                 Sieve.Runner.name = Printf.sprintf "%s:%s" case.Sieve.Bugs.id origin;
                 spec = case.Sieve.Bugs.spec;
                 horizon = case.Sieve.Bugs.horizon;
                 strategy;
               };
           })
         slots)
  in
  let space =
    List.map
      (fun pc ->
        let coverage = coverage_of_case pc.case ~events:pc.events in
        Array.iter
          (fun (t : trial) ->
            if String.equal t.case_id pc.case.Sieve.Bugs.id then
              Sieve.Coverage.note coverage t.test.Sieve.Runner.strategy)
          trials;
        (pc.case.Sieve.Bugs.id, Sieve.Coverage.covered coverage, Sieve.Coverage.total coverage))
      planned_cases
  in
  { trials; space }

(* --- filesystem helpers ------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if String.length parent < String.length dir then mkdir_p parent;
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* --- running ------------------------------------------------------- *)

(* How a simulated run got its prefix: re-simulated, forked from an
   image, or re-simulated because its image did not fit the minor heap. *)
type path = Straight | Forked | Fallback

type worker_result =
  | Replayed of Journal.violation_record list
  | Ran of ((int * Sieve.Oracle.violation) list * Sieve.Runner.conformance option) * path
  | Duplicate of int  (* settles from this representative's [Ran] *)

(* A trial is a deterministic function of its case and its strategy: the
   trials of a case share its spec and horizon, and a trial's name and
   seed never enter the run. So each distinct (case, strategy) pair is
   simulated once, by its representative: the lowest-index trial with
   that pair that this run does not replay from the journal. Strategies
   are plain data and compare structurally ([Strategy.describe] prints
   milliseconds and would merge distinct windows). Returns each trial's
   representative and, per representative, its last duplicate (-1 if
   none). *)
let representatives (trials : trial array) ~replayed =
  let n = Array.length trials in
  let first = Hashtbl.create n in
  let rep =
    Array.map
      (fun (t : trial) ->
        if replayed t.index then t.index
        else
          let key = (t.case_id, t.test.Sieve.Runner.strategy) in
          match Hashtbl.find_opt first key with
          | Some r -> r
          | None ->
              Hashtbl.add first key t.index;
              t.index)
      trials
  in
  let last = Array.make n (-1) in
  Array.iteri (fun i r -> if r <> i then last.(r) <- i) rep;
  (rep, last)

(* Simulated runs fork from compiled snapshots of their case's reference
   run ({!Sieve.Runner.run_forked}) instead of re-simulating the prefix
   before their first perturbation. Each case's reference world runs
   through rungs [rung_spacing] of virtual time apart. A run's rung is
   the latest one strictly before its first perturbation and before the
   horizon; a rung is compiled only if at least [rung_min_runs] runs
   have it as theirs, since a compile costs memory and each fork saves
   only its run's prefix. A run whose rung is not compiled forks from
   the latest compiled rung below it, or runs straight if there is
   none. *)
let rung_spacing = 1_000_000

let rung_min_runs = 16

type ladder = {
  fork_of : Sieve.Runner.world Dsim.Snapshot.image option array;  (* by trial index *)
  images : int;
  image_bytes : int;
}

let ladder ~check_conformance ~cases (trials : trial array) ~simulated =
  let fork_of = Array.make (Array.length trials) None in
  let images = ref 0 and image_bytes = ref 0 in
  List.iter
    (fun (case : Sieve.Bugs.case) ->
      let last = (case.Sieve.Bugs.horizon - 1) / rung_spacing in
      let runs =
        Array.fold_right
          (fun (t : trial) acc ->
            if String.equal t.case_id case.Sieve.Bugs.id && simulated t.index then
              let first = Sieve.Strategy.first_perturbation t.test.Sieve.Runner.strategy in
              let rung = if first <= 0 then 0 else min last ((first - 1) / rung_spacing) in
              if rung >= 1 then (t.index, rung) :: acc else acc
            else acc)
          trials []
      in
      let counts = Array.make (last + 1) 0 in
      List.iter (fun (_, rung) -> counts.(rung) <- counts.(rung) + 1) runs;
      if Array.exists (fun c -> c >= rung_min_runs) counts then begin
        let world = Sieve.Runner.reference_world ~check_conformance case.Sieve.Bugs.spec in
        (* [latest.(k)]: the image of the latest kept rung at or below k. *)
        let latest = Array.make (Array.length counts) None in
        for k = 1 to last do
          latest.(k) <- latest.(k - 1);
          if counts.(k) >= rung_min_runs then begin
            Sieve.Runner.advance world ~until:(k * rung_spacing);
            let image = Sieve.Runner.compile world in
            incr images;
            image_bytes := !image_bytes + Dsim.Snapshot.bytes image;
            latest.(k) <- Some image
          end
        done;
        List.iter (fun (index, rung) -> fork_of.(index) <- latest.(rung)) runs
      end)
    cases;
  { fork_of; images = !images; image_bytes = !image_bytes }

let finding_of_journal (f : Journal.entry) =
  match f with
  | Journal.Finding { signature; trial; case; time; bug; detail; strategy; minimized; shrink_runs }
    ->
      { signature; bug; case_id = case; trial; time; detail; strategy; minimized; shrink_runs }
  | _ -> invalid_arg "finding_of_journal"

let emit_artifact ~out ~(finding : finding) ~prefix ~(test : Sieve.Runner.test) =
  let dir =
    Filename.concat (Filename.concat out "findings") (Signature.to_dirname finding.signature)
  in
  mkdir_p dir;
  let outcome = Sieve.Runner.run_from ~prefix test in
  write_file
    (Filename.concat dir "artifact.json")
    (Dsim.Json.to_string (Sieve.Runner.artifact outcome) ^ "\n");
  write_file
    (Filename.concat dir "finding.json")
    (Dsim.Json.to_string
       (Dsim.Json.Obj
          [
            ("signature", Dsim.Json.String finding.signature);
            ("bug", Dsim.Json.String finding.bug);
            ("case", Dsim.Json.String finding.case_id);
            ("trial", Dsim.Json.Int finding.trial);
            ("time", Dsim.Json.Int finding.time);
            ("detail", Dsim.Json.String finding.detail);
            ("strategy", Dsim.Json.String finding.strategy);
            ("minimized", Dsim.Json.String finding.minimized);
            ("shrink_runs", Dsim.Json.Int finding.shrink_runs);
          ])
    ^ "\n")

(* A card re-runs the minimized reproduction with divergence tracking —
   deliberately a separate run from [emit_artifact]'s, so artifact.json
   stays byte-identical whether or not --diagnose was given. *)
let card_path ~out ~(finding : finding) =
  Filename.concat
    (Filename.concat (Filename.concat out "findings") (Signature.to_dirname finding.signature))
    "card.json"

let emit_card ~out ~(finding : finding) ~(test : Sieve.Runner.test) =
  let path = card_path ~out ~finding in
  mkdir_p (Filename.dirname path);
  let outcome = Sieve.Runner.run_test ~diagnose:true test in
  let target v = String.equal (Signature.of_violation v) finding.signature in
  match Diagnosis.Diagnose.of_outcome ~target ~minimized:finding.minimized outcome with
  | Some card ->
      write_file path (Dsim.Json.to_string (Diagnosis.Card.to_json card) ^ "\n");
      true
  | None -> false

let run ?(jobs = 1) ?(out = "_hunt") ?(resume = false) ?budget ?(seed = 42L)
    ?(minimize_budget = 200) ?hazard_rank ?(check_conformance = false) ?(diagnose = false)
    ?on_progress ~cases () =
  let ({ trials; space } : planned) = plan ?budget ~seed ?hazard_rank ~cases () in
  let n = Array.length trials in
  let case_ids = List.map (fun (c : Sieve.Bugs.case) -> c.Sieve.Bugs.id) cases in
  mkdir_p out;
  let journal_path = Filename.concat out "journal.jsonl" in
  let replayed_entries, writer =
    if resume then Journal.open_resume ~path:journal_path
    else ([], Journal.create ~path:journal_path)
  in
  let done_trials : (int, Journal.entry) Hashtbl.t = Hashtbl.create 97 in
  let journal_findings : (string, Journal.entry) Hashtbl.t = Hashtbl.create 17 in
  let header_seen = ref false in
  List.iter
    (fun entry ->
      match entry with
      | Journal.Header h ->
          header_seen := true;
          if h.seed <> seed || h.trials <> n || h.cases <> case_ids then
            failwith
              (Printf.sprintf
                 "hunt: %s was journaled by a different campaign (seed %Ld/%Ld, trials %d/%d); \
                  use a fresh --out or matching parameters"
                 journal_path h.seed seed h.trials n)
      | Journal.Trial t ->
          if t.trial >= 0 && t.trial < n then begin
            (* The header cannot see ordering knobs like --hazard-rank, but
               the journaled strategy text can: a journal whose trial N ran
               a different strategy than this plan's trial N was produced
               by a differently-ordered campaign, and replaying it would
               silently misattribute results. *)
            let planned_strategy =
              Sieve.Strategy.describe trials.(t.trial).test.Sieve.Runner.strategy
            in
            if not (String.equal t.strategy planned_strategy) then
              failwith
                (Printf.sprintf
                   "hunt: %s trial %d was journaled with a different strategy than this \
                    campaign plans (ordering flags such as --hazard-rank must match the \
                    original run); use a fresh --out"
                   journal_path t.trial);
            Hashtbl.replace done_trials t.trial entry
          end
      | Journal.Finding f -> Hashtbl.replace journal_findings f.signature entry)
    replayed_entries;
  if not !header_seen then
    Journal.append writer (Journal.Header { version = 1; seed; trials = n; cases = case_ids });
  let rep, last = representatives trials ~replayed:(Hashtbl.mem done_trials) in
  let ladder =
    ladder ~check_conformance ~cases trials ~simulated:(fun i ->
        rep.(i) = i && not (Hashtbl.mem done_trials i))
  in
  (* Workers run trials not present in the journal, except duplicates;
     everything stateful (journal appends, dedup, minimize, artifacts,
     progress) happens in [settle], on this domain, in trial order.
     Workers only read the ladder's images. *)
  let work index trial =
    match Hashtbl.find_opt done_trials index with
    | Some (Journal.Trial { violations; _ }) -> Replayed violations
    | Some _ | None when rep.(index) <> index -> Duplicate rep.(index)
    | Some _ | None ->
        let forked =
          Option.bind ladder.fork_of.(index) (fun image ->
              Sieve.Runner.run_forked ~check_conformance image trial.test)
        in
        let outcome, path =
          match forked with
          | Some outcome -> (outcome, Forked)
          | None ->
              ( Sieve.Runner.run_test ~check_conformance trial.test,
                if Option.is_some ladder.fork_of.(index) then Fallback else Straight )
        in
        Ran ((outcome.Sieve.Runner.violations, outcome.Sieve.Runner.conformance), path)
  in
  (* A representative's run, held from its settle to its last
     duplicate's. A duplicate always settles after its representative. *)
  let held = Hashtbl.create 64 in
  let executed = ref 0 in
  let simulated = ref 0 in
  let forked = ref 0 in
  let fallbacks = ref 0 in
  let replayed = ref 0 in
  let with_violations = ref 0 in
  (* Conformance results stay out of the journal on purpose: the journal
     is pinned byte-identical across job counts, resumes and the
     --check-conformance flag itself. *)
  let conf_trials = ref 0 in
  let conf_total = ref 0 in
  let conf_signatures : (string, unit) Hashtbl.t = Hashtbl.create 7 in
  let conf_signatures_rev = ref [] in
  let known : (string, unit) Hashtbl.t = Hashtbl.create 17 in
  let findings_rev = ref [] in
  let cards = ref 0 in
  let shrunk = ref 0 in
  let shrink_simulated = ref 0 in
  let from_prefix = ref 0 in
  let prefix_bytes = ref 0 in
  let stopped = ref 0 in
  (* The trial that exposed the signature need not run again. Each
     shrink candidate starts from [prefix] when it can and stops once
     its target has fired: it only answers yes or no. *)
  let minimize ~prefix ~(trial : trial) signature =
    if minimize_budget > 0 then begin
      let target v = String.equal (Signature.of_violation v) signature in
      let s =
        Sieve.Minimize.shrink ~prefix:(Lazy.force prefix) ~test:trial.test ~target
          ~budget:minimize_budget ~exposed:true
      in
      incr shrunk;
      shrink_simulated := !shrink_simulated + s.Sieve.Minimize.simulated;
      from_prefix := !from_prefix + s.Sieve.Minimize.forked;
      stopped := !stopped + s.Sieve.Minimize.stopped;
      (s.Sieve.Minimize.test, s.Sieve.Minimize.executions)
    end
    else (trial.test, 0)
  in
  let settle index result =
    let trial = trials.(index) in
    (* The finding runs of this trial's new signatures share one image
       of the case's world just before the trial's first perturbation,
       built when the first of them needs it. It dies with this settle,
       once the trial's findings are written. Without minimization only
       the artifact would fork from it, which saves no more than building
       it costs. *)
    let prefix =
      lazy
        (if minimize_budget > 0 then begin
           let p = Sieve.Runner.prefix trial.test in
           Option.iter (fun p -> prefix_bytes := !prefix_bytes + Sieve.Runner.prefix_bytes p) p;
           p
         end
         else None)
    in
    let strategy = Sieve.Strategy.describe trial.test.Sieve.Runner.strategy in
    let journal_run (violations, conformance) =
      incr executed;
      (match conformance with
      | None -> ()
      | Some c ->
          incr conf_trials;
          conf_total := !conf_total + c.Sieve.Runner.conf_total;
          List.iter
            (fun v ->
              let s = Signature.of_conformance v in
              if not (Hashtbl.mem conf_signatures s) then begin
                Hashtbl.replace conf_signatures s ();
                conf_signatures_rev := s :: !conf_signatures_rev
              end)
            c.Sieve.Runner.conf_violations);
      let records =
        List.map
          (fun (time, v) ->
            {
              Journal.time;
              bug = Sieve.Oracle.bug_id v;
              signature = Signature.of_violation v;
              detail = Sieve.Oracle.describe v;
            })
          violations
      in
      Journal.append writer
        (Journal.Trial
           {
             trial = index;
             case = trial.case_id;
             origin = trial.origin;
             seed = trial.seed;
             strategy;
             violations = records;
           });
      records
    in
    let records =
      match result with
      | Replayed records ->
          incr replayed;
          records
      | Ran (run, path) ->
          incr simulated;
          (match path with
          | Forked -> incr forked
          | Fallback -> incr fallbacks
          | Straight -> ());
          if last.(index) >= 0 then Hashtbl.replace held index run;
          journal_run run
      | Duplicate r ->
          let run = Hashtbl.find held r in
          if last.(r) = index then Hashtbl.remove held r;
          journal_run run
    in
    if records <> [] then incr with_violations;
    List.iter
      (fun (r : Journal.violation_record) ->
        if not (Hashtbl.mem known r.signature) then begin
          Hashtbl.replace known r.signature ();
          let finding =
            match Hashtbl.find_opt journal_findings r.signature with
            | Some entry ->
                let finding = finding_of_journal entry in
                (* Resume: the finding replays from the journal, but a
                   lost (or newly requested) card is recomputed — the
                   minimizer is deterministic, so the reproduction it
                   re-derives matches the journaled one. *)
                if diagnose then begin
                  if Sys.file_exists (card_path ~out ~finding) then incr cards
                  else if
                    emit_card ~out ~finding ~test:(fst (minimize ~prefix ~trial r.signature))
                  then incr cards
                end;
                finding
            | None ->
                (* A new distinct violation: shrink its reproduction and
                   drop a self-contained artifact directory, then journal
                   the finding. Artifact first — if we crash in between,
                   resume recomputes both; the journal stays the source
                   of truth. *)
                let minimized_test, shrink_runs = minimize ~prefix ~trial r.signature in
                let finding =
                  {
                    signature = r.signature;
                    bug = r.bug;
                    case_id = trial.case_id;
                    trial = index;
                    time = r.time;
                    detail = r.detail;
                    strategy;
                    minimized =
                      Sieve.Strategy.describe minimized_test.Sieve.Runner.strategy;
                    shrink_runs;
                  }
                in
                emit_artifact ~out ~finding ~prefix:(Lazy.force prefix) ~test:minimized_test;
                if diagnose && emit_card ~out ~finding ~test:minimized_test then incr cards;
                Journal.append writer
                  (Journal.Finding
                     {
                       signature = finding.signature;
                       trial = finding.trial;
                       case = finding.case_id;
                       time = finding.time;
                       bug = finding.bug;
                       detail = finding.detail;
                       strategy = finding.strategy;
                       minimized = finding.minimized;
                       shrink_runs = finding.shrink_runs;
                     });
                finding
          in
          findings_rev := finding :: !findings_rev
        end)
      records;
    match on_progress with
    | None -> ()
    | Some notify ->
        notify
          {
            trials_done = index + 1;
            total = n;
            replayed = !replayed;
            findings = List.length !findings_rev;
          }
  in
  Fun.protect
    ~finally:(fun () -> Journal.close writer)
    (fun () -> Pool.map_ordered ~jobs ~tasks:trials ~f:work ~emit:settle);
  {
    trials = n;
    executed = !executed;
    simulated = !simulated;
    forking =
      {
        forked = !forked;
        fallbacks = !fallbacks;
        images = ladder.images;
        image_bytes = ladder.image_bytes;
      };
    shrinking =
      {
        shrunk = !shrunk;
        shrink_simulated = !shrink_simulated;
        from_prefix = !from_prefix;
        prefix_bytes = !prefix_bytes;
        stopped = !stopped;
      };
    replayed = !replayed;
    with_violations = !with_violations;
    findings = List.rev !findings_rev;
    space;
    journal = journal_path;
    conformance =
      (if check_conformance then
         Some
           {
             conf_trials = !conf_trials;
             conf_total = !conf_total;
             conf_signatures = List.rev !conf_signatures_rev;
           }
       else None);
    cards = !cards;
  }
