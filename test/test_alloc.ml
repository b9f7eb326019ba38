(* Allocation budget: the minor words of one [Runner.run_test] per
   substrate, one HB-ASSIGN run forked from a snapshot image, plus one
   run over a populated cache, against
   test/fixtures/alloc.budget. Allocation is deterministic, so it is the
   regression gate for trial cost; a run may exceed its recorded figure
   by at most 2%. Each case runs once to warm up lazily built tables,
   then once measured. After an intended change of allocation,
   regenerate the fixture by printing [lines ()], one per line.

   The budget counts minor words only, so it is blind to a block the
   runtime puts straight into the major heap (one larger than 256
   words). The second test pins that side at 0: a run's whole world
   starts in the minor heap, so a run that starts on an empty minor
   heap and fits in it never touches the major heap. *)

let case id =
  match Sieve.Bugs.find id with Some case -> case | None -> failwith ("unknown case " ^ id)

(* HB-ASSIGN forked, as a campaign forks it, from an image of its
   reference world taken at 1 s, before the strategy's first
   perturbation at 1.8 s. The image is compiled once, on the first call;
   a measured run pays for instantiating it and for the rest of the
   run. *)
let forked_hb_assign =
  let open Sieve in
  let image =
    lazy
      (let world = Runner.reference_world ~check_conformance:true (case "HB-ASSIGN").Bugs.spec in
       Runner.advance world ~until:1_000_000;
       Runner.compile world)
  in
  ( "HB-ASSIGN sieve conformance forked at 1 s",
    fun () ->
      match
        Runner.run_forked ~check_conformance:true (Lazy.force image)
          (Bugs.test_of_case (case "HB-ASSIGN"))
      with
      | Some outcome -> outcome
      | None -> Alcotest.fail "the 1 s HB-ASSIGN image did not fit the minor heap" )

let runs =
  let open Sieve in
  [
    ("CA-402 reference", fun () -> Runner.run_test (Bugs.reference_test_of_case (case "CA-402")));
    ( "REP-STALE sieve conformance",
      fun () -> Runner.run_test ~check_conformance:true (Bugs.test_of_case (case "REP-STALE")) );
    ( "HB-ASSIGN sieve conformance",
      fun () -> Runner.run_test ~check_conformance:true (Bugs.test_of_case (case "HB-ASSIGN")) );
    forked_hb_assign;
  ]

(* A populated cache: REP-MINORITY with api-2 cut off from etcd for good
   at 1,205.5 ms and rsctl crashed at 2,005.5 ms for 150 ms. The
   replica-set controller's view freezes and it over-provisions without
   bound, so every controller pass walks hundreds of pods; a cost per
   pass that grows with the pods, or a scheduler that recounts them per
   pending pod, shows here first. The run outgrows the minor heap, so it
   promotes by design and stays out of the direct-major check. *)
let populated =
  let open Sieve in
  ( "REP-MINORITY partition-and-crash conformance",
    fun () ->
      Runner.run_test ~check_conformance:true
        {
          (Bugs.test_of_case (case "REP-MINORITY")) with
          Runner.strategy =
            Strategy.time_travel ~stale_api:"api-2" ~victim:"rsctl" ~stale_from:1_205_500
              ~crash_at:2_005_500 ();
        } )

let budget_runs = runs @ [ populated ]

let minor_words run =
  ignore (run ());
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (run ()));
  Gc.minor_words () -. before

(* One line per run: "<words> <name>". *)
let lines () =
  List.map (fun (name, run) -> Printf.sprintf "%.0f %s" (minor_words run) name) budget_runs

(* Words a run allocates straight into the major heap: what the major
   heap gained beyond what minor collections promoted, after a
   [Gc.minor] that gives the run an empty minor heap. [Gc.counters]
   reads this domain's live counters, direct allocations included.
   [Gc.quick_stat] would not do: it counts direct allocations only at
   the next minor collection, and it also sums counters that move
   without this domain allocating: once other tests had run in the
   same process, it read 242 and 431 words over runs that allocated
   none. *)
let direct_major_words run =
  ignore (run ());
  Gc.minor ();
  let _, promoted, major = Gc.counters () in
  ignore (Sys.opaque_identity (run ()));
  let _, promoted', major' = Gc.counters () in
  major' -. major -. (promoted' -. promoted)

let read_budget () =
  List.map
    (fun line ->
      let i = String.index line ' ' in
      (String.sub line (i + 1) (String.length line - i - 1), float_of_string (String.sub line 0 i)))
    (Fixture.read_lines (Filename.concat "fixtures" "alloc.budget"))

let within_budget () =
  let budget = read_budget () in
  Alcotest.(check (list string))
    "one budget line per run" (List.map fst budget_runs) (List.map fst budget);
  List.iter2
    (fun (name, run) (_, limit) ->
      let words = minor_words run in
      if words > limit *. 1.02 then
        Alcotest.failf "%s: %.0f minor words, more than 2%% over its budget of %.0f" name words
          limit)
    budget_runs budget

let nothing_straight_to_major () =
  List.iter
    (fun (name, run) ->
      Alcotest.(check (float 0.)) (name ^ ": words allocated straight into the major heap") 0.
        (direct_major_words run))
    runs

let suites =
  [
    ( "alloc budget",
      [
        Alcotest.test_case "one run per substrate within 2%" `Quick within_budget;
        Alcotest.test_case "no run allocates straight into the major heap" `Quick
          nothing_straight_to_major;
      ] );
  ]
