(* The timed (untraced) measurement of one workload at jobs 1: separate
   [Campaign.plan] calls for the set-up figures, and repeated
   [Campaign.run]s, each result-checked. Each plan and each campaign
   runs in a process forked from the same parent state, as a [sieve
   hunt] process starts from a fresh heap: a plan timed right after a
   campaign, on the heap the campaign left, ran a third slower.

   Times are reference times (see {!Calib}): the wall time scaled by
   the host's speed, measured with kernel passes before and after each
   call and, in a campaign, between trials. *)

type setup = {
  setup_s : float;  (** [Campaign.plan] *)
  setup_wall_s : float;  (** its wall time *)
  setup_pass_s : float;  (** mean kernel pass around it *)
  setup_words : float;  (** its minor words *)
}

type rep = {
  hunt_s : float;  (** [Campaign.run] *)
  hunt_wall_s : float;  (** its wall time, kernel passes left out *)
  pass_s : float;  (** mean kernel pass around and during it *)
  exposure_s : float;  (** run start to the callback that saw the last finding *)
  phase_s : float;  (** first to last progress callback *)
  phase_trials : int;  (** trials settled within [phase_s] *)
  gaps_ms : float list;  (** between consecutive progress callbacks *)
  words_per_trial : float;  (** run's minor words minus the plan's, per executed trial *)
  rss_mb : float;  (** peak resident memory of the campaign's process *)
  trials : int;  (** planned, so attempted *)
  failed : int;
  problems : string list;
  journal_sha : string;
  summary : Hunt.Campaign.summary option;  (** [None] when the campaign raised *)
}

let rec remove path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Kernel passes run before and after each timed call, and spread over
   a campaign's progress callbacks. *)
let bracket_passes = 6
let in_run_passes = 24

let setup (w : Workloads.t) ~seed =
  let cases = Workloads.cases w in
  let probe = Calib.probe () in
  ignore (Calib.sample probe bracket_passes);
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let planned = Hunt.Campaign.plan ?budget:w.budget ~seed ~cases () in
  let wall = Unix.gettimeofday () -. t0 in
  let setup_words = Gc.minor_words () -. w0 in
  ignore (Calib.sample probe bracket_passes);
  ( {
      setup_s = wall *. Calib.factor probe;
      setup_wall_s = wall;
      setup_pass_s = Calib.mean_pass probe;
      setup_words;
    },
    planned )

let rep (w : Workloads.t) ~seed ~(setup : setup) ~(planned : Hunt.Campaign.planned) ~out =
  remove out;
  let cases = Workloads.cases w in
  let n = Array.length planned.trials in
  let stamps = Array.make n 0.0 in
  let found = Array.make n 0 in
  let settled = ref 0 in
  let probe = Calib.probe () in
  let paused = ref 0.0 in
  let every = max 1 (n / in_run_passes) in
  (* Every [every]-th callback runs a kernel pass, off the campaign's
     clock and off its allocation count. *)
  let on_progress (p : Hunt.Campaign.progress) =
    if !settled < n then begin
      stamps.(!settled) <- Unix.gettimeofday () -. !paused;
      found.(!settled) <- p.findings
    end;
    incr settled;
    if !settled mod every = 0 && !settled < n then paused := !paused +. Calib.sample probe 1
  in
  ignore (Calib.sample probe bracket_passes);
  let bracket_words = probe.words in
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let outcome =
    try
      Ok
        (Hunt.Campaign.run ~jobs:1 ~out ?budget:w.budget ~seed ~check_conformance:w.audit
           ~diagnose:w.audit ~on_progress ~cases ())
    with e -> Error (Printexc.to_string e)
  in
  let wall = Unix.gettimeofday () -. t0 -. !paused in
  let run_words = Gc.minor_words () -. w0 -. (probe.words -. bracket_words) in
  ignore (Calib.sample probe bracket_passes);
  let f = Calib.factor probe in
  let hunt_s = wall *. f in
  let blank =
    {
      hunt_s;
      hunt_wall_s = wall;
      pass_s = Calib.mean_pass probe;
      exposure_s = hunt_s;
      phase_s = 0.0;
      phase_trials = 0;
      gaps_ms = [];
      words_per_trial = 0.0;
      rss_mb = 0.0;
      trials = n;
      failed = n;
      problems = [];
      journal_sha = "";
      summary = None;
    }
  in
  match outcome with
  | Error message -> { blank with problems = [ "campaign raised " ^ message ] }
  | Ok summary ->
      let journal_sha = Sha256.hex_of_file summary.journal in
      let problems, bad_trials = Workloads.check w ~seed ~planned ~summary ~out ~journal_sha in
      let problems =
        if !settled <> n then "progress callbacks missing" :: problems else problems
      in
      let last = !settled - 1 in
      let final = List.length summary.findings in
      let exposed = ref 0 in
      while !exposed < last && found.(!exposed) < final do
        incr exposed
      done;
      {
        blank with
        exposure_s =
          (if last >= 0 then
             (stamps.(!exposed) -. t0)
             *. Calib.factor_first probe (bracket_passes + (!exposed / every))
           else hunt_s);
        phase_s = (if last > 0 then (stamps.(last) -. stamps.(0)) *. f else 0.0);
        phase_trials = max 0 last;
        gaps_ms = List.init (max 0 last) (fun i -> (stamps.(i + 1) -. stamps.(i)) *. f *. 1e3);
        words_per_trial =
          (run_words -. setup.setup_words) /. float_of_int (max 1 summary.executed);
        failed = (if problems <> [] then n else bad_trials);
        problems;
        journal_sha;
        summary = Some summary;
      }

(* Peak resident memory of this process so far. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_lines with
  | lines ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.0
              | [] -> acc)
          | _ -> acc)
        0.0 lines
  | exception Sys_error _ -> 0.0

(* [f ()] in a forked child, its result marshalled back through a pipe.
   The parent waits for the child on every path. *)
let forked (f : unit -> 'a) : ('a, string) result =
  let rd, wr = Unix.pipe ~cloexec:true () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc result [];
      flush oc;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      Fun.protect
        ~finally:(fun () ->
          close_in_noerr ic;
          ignore (Unix.waitpid [] pid))
        (fun () ->
          try (Marshal.from_channel ic : ('a, string) result)
          with End_of_file -> Error "measuring process died")

(* Plans and campaigns interleaved, so both sample the whole run: a plan
   whenever plans have used less than [setup_share] of the time passed
   and number fewer than [max_setups] pro rata; otherwise a campaign,
   while the next is expected to end within [seconds] of the start.
   Once none fits, the run tops up to [min_setups] plans and [min_reps]
   campaigns. A journal that differs between repetitions of one campaign
   is a determinism failure, charged to the later one. The parent plans
   once, untimed, for the campaigns' result check. *)
let min_setups = 5
let max_setups = 15
let setup_share = 0.25
let min_reps = 3

let run (w : Workloads.t) ~seed ~seconds ~out =
  let started = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. started in
  let first, planned = setup w ~seed in
  Gc.full_major ();
  let setups = ref [] in
  let setup_time = ref 0.0 in
  let reps = ref [] in
  let durations = ref [] in
  let plan () =
    let t0 = Unix.gettimeofday () in
    let s =
      match forked (fun () -> fst (setup w ~seed)) with
      | Ok s -> s
      | Error message -> failwith ("Campaign.plan raised " ^ message)
    in
    setup_time := !setup_time +. (Unix.gettimeofday () -. t0);
    setups := s :: !setups
  in
  let campaign () =
    let t0 = Unix.gettimeofday () in
    let r =
      match
        forked (fun () ->
            let r = rep w ~seed ~setup:first ~planned ~out in
            { r with rss_mb = peak_rss_mb (); summary = None })
      with
      | Ok r -> r
      | Error message ->
          let n = Array.length planned.trials in
          {
            hunt_s = 0.0;
            hunt_wall_s = 0.0;
            pass_s = 0.0;
            exposure_s = 0.0;
            phase_s = 0.0;
            phase_trials = 0;
            gaps_ms = [];
            words_per_trial = 0.0;
            rss_mb = 0.0;
            trials = n;
            failed = n;
            problems = [ "campaign raised " ^ message ];
            journal_sha = "";
            summary = None;
          }
    in
    durations := (Unix.gettimeofday () -. t0) :: !durations;
    let r =
      match !reps with
      | previous :: _ when r.problems = [] && not (String.equal previous.journal_sha r.journal_sha)
        ->
          { r with failed = r.trials; problems = [ "journal differs between repetitions" ] }
      | _ -> r
    in
    reps := r :: !reps
  in
  plan ();
  campaign ();
  let next_fits () = elapsed () +. Stats.median !durations <= seconds in
  let plan_due () =
    let made = List.length !setups in
    if next_fits () then
      float_of_int made < float_of_int max_setups *. elapsed () /. seconds
      && !setup_time < setup_share *. elapsed ()
    else made < min_setups
  in
  while List.length !setups < min_setups || List.length !reps < min_reps || next_fits () do
    if plan_due () then plan () else campaign ()
  done;
  (List.rev !setups, List.rev !reps)
