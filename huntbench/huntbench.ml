(* Hunt benchmark driver.

     huntbench --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0, plans the workload's campaign and runs it at jobs 1,
   interleaved and each in a forked process, for S seconds (at least
   five plans and three campaigns), and reports the end-to-end metrics
   in reference time (see Calib);
   with --trace 1, runs the campaign once untraced and once re-driven
   with spans, and reports the per-layer metrics. Every campaign is
   result-checked first. The last stdout line is the result as one JSON
   object; a fuller record (machine, per-repetition samples, median and
   quartiles per metric) goes to .huntbench/results/. *)

let state_dir = ".huntbench"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The checked-out commit, when the tree is a git checkout. *)
let git_commit () =
  try
    let head = String.trim (read_file ".git/HEAD") in
    match String.split_on_char ' ' head with
    | [ "ref:"; ref_ ] -> String.trim (read_file (Filename.concat ".git" ref_))
    | _ -> head
  with Sys_error _ -> "unknown"

let machine () =
  Dsim.Json.Obj
    [
      ("nproc", Dsim.Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Dsim.Json.String Sys.ocaml_version);
      ("git_commit", Dsim.Json.String (git_commit ()));
      ("jobs", Dsim.Json.Int 1);
    ]

(* A metric: name, unit, reported value and the samples behind it. *)
type metric = { name : string; unit_ : string; value : float; samples : float list }

let metric_json m =
  let q1, q3 = Stats.quartiles m.samples in
  Dsim.Json.Obj
    [
      ("unit", Dsim.Json.String m.unit_);
      ("value", Dsim.Json.Float m.value);
      ("median", Dsim.Json.Float (Stats.median m.samples));
      ("q1", Dsim.Json.Float q1);
      ("q3", Dsim.Json.Float q3);
      ("samples", Dsim.Json.List (List.map (fun x -> Dsim.Json.Float x) m.samples));
    ]

(* Each timing is taken over the whole run: the median plan, the median
   campaign, and trial rate and gaps pooled over every campaign's trial
   phase. Every sample, with its median and quartiles, goes to the
   result file. *)
let timed_metrics (setups : Timed.setup list) (reps : Timed.rep list) =
  let over value name unit_ samples = { name; unit_; value = value samples; samples } in
  let median = over Stats.median in
  let per_rep name unit_ f = median name unit_ (List.map f reps) in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 reps in
  let gaps = List.concat_map (fun (r : Timed.rep) -> r.gaps_ms) reps in
  let pooled name p =
    over (fun _ -> Stats.percentile gaps p) name "ms"
      (List.map (fun (r : Timed.rep) -> Stats.percentile r.gaps_ms p) reps)
  in
  [
    median "setup_s" "s" (List.map (fun (s : Timed.setup) -> s.setup_s) setups);
    median "setup_mwords" "Mwords" (List.map (fun (s : Timed.setup) -> s.setup_words /. 1e6) setups);
    per_rep "hunt_s" "s" (fun r -> r.hunt_s);
    per_rep "exposure_s" "s" (fun r -> r.exposure_s);
    over
      (fun _ -> sum (fun r -> float_of_int r.phase_trials) /. sum (fun r -> r.phase_s))
      "trials_per_s" "1/s"
      (List.map (fun (r : Timed.rep) -> float_of_int r.phase_trials /. r.phase_s) reps);
    pooled "trial_ms_p50" 0.5;
    pooled "trial_ms_p90" 0.9;
    per_rep "words_per_trial" "words" (fun r -> r.words_per_trial);
    per_rep "peak_rss_mb" "MB" (fun r -> r.rss_mb);
  ]

(* Wall times behind the reference times, and the mean kernel passes
   that scaled them, for the result file. *)
let wall_metrics (setups : Timed.setup list) (reps : Timed.rep list) =
  List.map
    (fun (name, samples) ->
      (name, metric_json { name; unit_ = "s"; value = Stats.median samples; samples }))
    [
      ("setup_s", List.map (fun (s : Timed.setup) -> s.setup_wall_s) setups);
      ("hunt_s", List.map (fun (r : Timed.rep) -> r.hunt_wall_s) reps);
      ("setup_pass_s", List.map (fun (s : Timed.setup) -> s.setup_pass_s) setups);
      ("hunt_pass_s", List.map (fun (r : Timed.rep) -> r.pass_s) reps);
    ]

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME kube-hunt | rep-audit | hbase-audit");
      ("--seed", Arg.Set_int seed, "N campaign seed (42 is pinned)");
      ("--seconds", Arg.Set_float seconds, "S measure for S seconds");
      ("--trace", Arg.Set_int trace, "0|1 timed end-to-end run, or traced per-layer run");
    ]
    (fun arg -> raise (Arg.Bad ("unexpected argument " ^ arg)))
    "huntbench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None ->
        prerr_endline ("huntbench: unknown workload " ^ !workload);
        exit 2
  in
  let seed64 = Int64.of_int !seed in
  let tag = Printf.sprintf "%s-seed%d-trace%d" w.name !seed !trace in
  let scratch = Filename.concat state_dir ("run-" ^ tag) in
  let campaign = Filename.concat scratch "campaign" in
  mkdir_p scratch;
  let reps, metrics, extra, traced_failed, problems =
    if !trace = 0 then
      let setups, reps = Timed.run w ~seed:seed64 ~seconds:!seconds ~out:campaign in
      let metrics = timed_metrics setups reps in
      let gaps = List.fold_left (fun acc (r : Timed.rep) -> acc + List.length r.gaps_ms) 0 reps in
      Printf.eprintf "%s: %d plans, %d campaigns, %d trial gaps\n%!" w.name (List.length setups)
        (List.length reps) gaps;
      let problems =
        match List.sort_uniq Float.compare (List.map (fun (s : Timed.setup) -> s.setup_words) setups)
        with
        | [ _ ] -> []
        | _ -> [ "Campaign.plan allocated differently on equal inputs" ]
      in
      ( reps,
        metrics,
        [
          ("trial_gap_samples", Dsim.Json.Int gaps);
          ("reference_pass_s", Dsim.Json.Float Calib.reference_s);
          ("wall", Dsim.Json.Obj (wall_metrics setups reps));
        ],
        0,
        problems )
    else begin
      let setup, planned = Timed.setup w ~seed:seed64 in
      let untraced = Timed.rep w ~seed:seed64 ~setup ~planned ~out:campaign in
      let redrive = Filename.concat scratch "redrive" in
      mkdir_p redrive;
      let traced = Traced.run w ~seed:seed64 ~planned ~dir:redrive ~untraced in
      let spans_dir = Filename.concat state_dir "spans" in
      mkdir_p spans_dir;
      Spans.write (Filename.concat spans_dir (tag ^ ".jsonl"));
      let self_times = Spans.self_times () in
      List.iter
        (fun (name, n, total, self) ->
          Printf.eprintf "%-22s %7d spans  total %10.3f ms  self %10.3f ms\n" name n (total *. 1e3)
            (self *. 1e3))
        self_times;
      ( [ untraced ],
        List.map
          (fun (name, unit_, value) -> { name; unit_; value; samples = [ value ] })
          traced.metrics,
        [
          ( "self_times",
            Dsim.Json.List
              (List.map
                 (fun (name, n, total, self) ->
                   Dsim.Json.Obj
                     [
                       ("name", Dsim.Json.String name);
                       ("spans", Dsim.Json.Int n);
                       ("total_s", Dsim.Json.Float total);
                       ("self_s", Dsim.Json.Float self);
                     ])
                 self_times) );
        ],
        traced.failed,
        traced.problems )
    end
  in
  Timed.remove scratch;
  let problems = List.concat_map (fun (r : Timed.rep) -> r.problems) reps @ problems in
  let attempted =
    List.fold_left (fun acc (r : Timed.rep) -> acc + r.trials) 0 reps
    + if !trace = 0 then 0 else (List.hd reps).trials
  in
  let failed = List.fold_left (fun acc (r : Timed.rep) -> acc + r.failed) traced_failed reps in
  List.iter (fun p -> Printf.eprintf "%s: CHECK FAILED: %s\n%!" w.name p) problems;
  let correct = problems = [] && failed = 0 in
  let results = Filename.concat state_dir "results" in
  mkdir_p results;
  Out_channel.with_open_bin (Filename.concat results (tag ^ ".json")) (fun oc ->
      output_string oc
        (Dsim.Json.to_string
           (Dsim.Json.Obj
              ([
                 ("schema", Dsim.Json.String "huntbench-result/1");
                 ("workload", Dsim.Json.String w.name);
                 ("seed", Dsim.Json.Int !seed);
                 ("seconds", Dsim.Json.Float !seconds);
                 ("trace", Dsim.Json.Int !trace);
                 ("machine", machine ());
                 ("correct", Dsim.Json.Bool correct);
                 ("attempted", Dsim.Json.Int attempted);
                 ("failed", Dsim.Json.Int failed);
                 ("problems", Dsim.Json.List (List.map (fun p -> Dsim.Json.String p) problems));
                 ("repetitions", Dsim.Json.Int (List.length reps));
                 ("metrics", Dsim.Json.Obj (List.map (fun m -> (m.name, metric_json m)) metrics));
               ]
              @ extra)));
      output_char oc '\n');
  print_endline
    (Dsim.Json.to_string
       (Dsim.Json.Obj
          [
            ("correct", Dsim.Json.Bool correct);
            ("attempted", Dsim.Json.Int attempted);
            ("failed", Dsim.Json.Int failed);
            ( "metrics",
              Dsim.Json.Obj
                (List.map
                   (fun m ->
                     ( m.name,
                       Dsim.Json.Obj
                         [ ("value", Dsim.Json.Float m.value); ("unit", Dsim.Json.String m.unit_) ]
                     ))
                   metrics) );
          ]))
