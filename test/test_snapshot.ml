(* Dsim.Snapshot: what a copy keeps, what it shares, and when compile
   and instantiate refuse. Every graph is built, then moved out of the
   minor heap with [Gc.minor ()] before it is compiled. *)

let compile v =
  Gc.minor ();
  Dsim.Snapshot.compile v

let fork image =
  match Dsim.Snapshot.instantiate image with
  | Some v -> v
  | None -> Alcotest.fail "instantiate: no room in the minor heap"

type node = { label : string; mutable next : node option; mutable weight : int }

let sharing_and_cycles () =
  let a = { label = "a"; next = None; weight = 1 } in
  let b = { label = "b"; next = Some a; weight = 2 } in
  a.next <- Some b;
  let pair = (a, b, [ a; b; a ]) in
  let image = compile pair in
  let a', b', list' = fork image in
  (* The copy lives in the minor heap: promoting and marking it must
     keep every link. *)
  Gc.full_major ();
  Alcotest.(check bool) "a copy, not the original" false (a' == a);
  (match (a'.next, b'.next) with
  | Some b'', Some a'' ->
      Alcotest.(check bool) "a -> b within the copy" true (b'' == b');
      Alcotest.(check bool) "b -> a within the copy: the cycle holds" true (a'' == a')
  | _ -> Alcotest.fail "links lost");
  (match list' with
  | [ x; y; z ] ->
      Alcotest.(check bool) "shared elements stay shared" true (x == a' && y == b' && z == a')
  | _ -> Alcotest.fail "list shape");
  Alcotest.(check (list string)) "labels" [ "a"; "b" ] [ a'.label; b'.label ];
  a'.weight <- 10;
  Alcotest.(check int) "the original is untouched" 1 a.weight

let closures () =
  let counter = ref 0 in
  let incr_by k = counter := !counter + k in
  let read () = !counter in
  (* Both capture [step], so they are one heap-allocated set of
     mutually recursive closures, not static code. *)
  let step = Sys.opaque_identity 1 in
  let rec even n = n = 0 || odd (n - step)
  and odd n = n <> 0 && even (n - step) in
  let image = compile (incr_by, read, even, odd) in
  let incr', read', even', odd' = fork image in
  Gc.full_major ();
  incr' 5;
  incr' 2;
  Alcotest.(check int) "closures share their copied environment" 7 (read' ());
  Alcotest.(check int) "the original counter is untouched" 0 !counter;
  Alcotest.(check bool) "the recursive set is copied" false (Obj.repr odd' == Obj.repr odd);
  Alcotest.(check bool) "even 10" true (even' 10);
  Alcotest.(check bool) "odd 7" true (odd' 7);
  Alcotest.(check bool) "even 7" false (even' 7)

let raw_blocks () =
  let b = Bytes.of_string "snapshot" in
  let floats = [| 1.5; -2.25; 1e300 |] in
  let boxed = ref 3.75 in
  let table = Hashtbl.create 8 in
  for i = 0 to 99 do
    Hashtbl.replace table (Printf.sprintf "k%d" i) i
  done;
  let image = compile (b, floats, boxed, table) in
  let b', floats', boxed', table' = fork image in
  Alcotest.(check string) "bytes" "snapshot" (Bytes.to_string b');
  Alcotest.(check (array (float 0.))) "float array" floats floats';
  Alcotest.(check (float 0.)) "boxed float" 3.75 !boxed';
  Alcotest.(check int) "hashtable size" 100 (Hashtbl.length table');
  Alcotest.(check (option int)) "hashtable lookup" (Some 42) (Hashtbl.find_opt table' "k42");
  Hashtbl.replace table' "new" 1;
  Bytes.set b' 0 'S';
  Alcotest.(check bool) "the original table is untouched" false (Hashtbl.mem table "new");
  Alcotest.(check string) "the original bytes are untouched" "snapshot" (Bytes.to_string b)

let independent_copies () =
  let state = (ref 0, Array.make 4 "x") in
  let image = compile state in
  let size = Dsim.Snapshot.bytes image in
  let r1, a1 = fork image in
  let r2, a2 = fork image in
  r1 := 5;
  a1.(0) <- "y";
  Alcotest.(check int) "the second copy's ref" 0 !r2;
  Alcotest.(check string) "the second copy's array" "x" a2.(0);
  let r3, a3 = fork image in
  Alcotest.(check int) "a later copy starts from the image" 0 !r3;
  Alcotest.(check string) "a later copy's array" "x" a3.(0);
  Alcotest.(check int) "the image did not change size" size (Dsim.Snapshot.bytes image)

type _ Effect.t += Probe : int Effect.t

exception Marked of int

let extension_constructors () =
  let id : int Type.Id.t = Type.Id.make () in
  let marked = Marked (Sys.opaque_identity 3) in
  let witness = (id, Probe, marked) in
  let image = compile witness in
  let id', probe', marked' = fork image in
  Alcotest.(check bool) "a Type.Id witness keeps its identity" true
    (match Type.Id.provably_equal id id' with Some Type.Equal -> true | None -> false);
  Alcotest.(check bool) "an effect constructor is physically equal" true
    (Obj.repr probe' == Obj.repr Probe);
  (match marked' with
  | Marked 3 -> ()
  | _ -> Alcotest.fail "an exception constructor no longer matches");
  Alcotest.(check bool) "an exception value is copied" false (Obj.repr marked' == Obj.repr marked)

let refusals () =
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s: compile did not raise" what
    | exception Failure msg ->
        Alcotest.(check bool)
          (what ^ " names the block: " ^ msg)
          true
          (String.length msg > 0 && String.starts_with ~prefix:"Snapshot.compile:" msg)
  in
  raises "a young graph" (fun () ->
      let young = Sys.opaque_identity (ref (Sys.opaque_identity [ 1; 2; 3 ])) in
      Dsim.Snapshot.compile young);
  raises "a custom block" (fun () ->
      let v = (1, Int64.add (Sys.opaque_identity 1_000_000L) 1L) in
      Gc.minor ();
      Dsim.Snapshot.compile v)

let no_room () =
  (* 20,001 + 40,000 words: more than a 32k-word minor heap holds, far
     less than the default 256k. *)
  let big = Array.init 20_000 (fun i -> Some i) in
  let image = compile big in
  let previous = Gc.get () in
  Fun.protect
    ~finally:(fun () -> Gc.set previous)
    (fun () ->
      Gc.set { previous with Gc.minor_heap_size = 32_768 };
      Alcotest.(check bool) "an image beyond the minor heap gives None" true
        (Dsim.Snapshot.instantiate image = None));
  match Dsim.Snapshot.instantiate image with
  | Some copy -> Alcotest.(check (option int)) "fits the default heap" (Some 19_999) copy.(19_999)
  | None -> Alcotest.fail "the default minor heap should take the image"

(* --- forked runs against straight ones -------------------------------- *)

let case id =
  match Sieve.Bugs.find id with Some case -> case | None -> failwith ("unknown case " ^ id)

(* What a run leaves that the campaign, an artifact or a trace reader
   sees. *)
let observed (o : Sieve.Runner.outcome) =
  let violations =
    List.map (fun (time, v) -> Printf.sprintf "%d %s" time (Sieve.Oracle.describe v)) o.violations
  in
  let conformance =
    match o.conformance with
    | None -> [ "no monitor" ]
    | Some c ->
        Printf.sprintf "total %d strict %b" c.conf_total c.conf_strict
        :: List.map
             (fun (v : Conformance.Monitor.violation) ->
               Printf.sprintf "%s %s %d %s"
                 (Conformance.Monitor.code_to_string v.code)
                 v.subject v.rev v.detail)
             c.conf_violations
  in
  [
    ("violations", String.concat "\n" violations);
    ("conformance", String.concat "\n" conformance);
    ("truth revision", string_of_int o.truth_rev);
    ("metrics", Dsim.Json.to_string (Sieve.Runner.metrics_json o));
    ("trace JSONL", Sieve.Runner.trace_jsonl o);
  ]

(* Every 8th distinct run of a gate's plan (seed 42), forked from its
   case's reference world at the latest 1 s rung strictly before its
   first perturbation, the campaign's spacing, against the same run
   straight, both with the monitor on. Returns how many forked. *)
let forked_equals_straight ~ids ?budget () =
  let planned = Hunt.Campaign.plan ?budget ~seed:42L ~cases:(List.map case ids) () in
  let seen = Hashtbl.create 1024 in
  let distinct =
    List.filter
      (fun (t : Hunt.Campaign.trial) ->
        let key = (t.case_id, t.test.Sieve.Runner.strategy) in
        (not (Hashtbl.mem seen key)) && (Hashtbl.add seen key (); true))
      (Array.to_list planned.trials)
  in
  let sampled = List.filteri (fun i _ -> i mod 8 = 0) distinct in
  let rung (t : Hunt.Campaign.trial) =
    let first = Sieve.Strategy.first_perturbation t.test.Sieve.Runner.strategy in
    if first <= 0 then 0
    else min ((first - 1) / 1_000_000) ((t.test.Sieve.Runner.horizon - 1) / 1_000_000)
  in
  let forked = ref 0 in
  List.iter
    (fun id ->
      let runs =
        List.filter
          (fun (t : Hunt.Campaign.trial) -> String.equal t.case_id id && rung t >= 1)
          sampled
      in
      let rungs = List.sort_uniq compare (List.map rung runs) in
      let prefixes =
        List.combine rungs
          (Sieve.Runner.prefixes ~check_conformance:true (case id).Sieve.Bugs.spec
             (List.map (fun k -> k * 1_000_000) rungs))
      in
      List.iter
        (fun (t : Hunt.Campaign.trial) ->
          let prefix = List.assoc (rung t) prefixes in
          let fork = Sieve.Runner.run_test ~check_conformance:true ~prefix t.test in
          if not fork.forked then
            Alcotest.failf "%s: the image did not fit the minor heap" t.test.name;
          incr forked;
          let straight = Sieve.Runner.run_test ~check_conformance:true t.test in
          List.iter2
            (fun (what, want) (_, got) ->
              if not (String.equal want got) then
                Alcotest.failf "%s (%s) forked at %d s: %s differ" t.test.name
                  (Sieve.Strategy.describe t.test.strategy)
                  (rung t) what)
            (observed straight) (observed fork))
        runs)
    ids;
  !forked

let rep_gate_forks () =
  let forked =
    forked_equals_straight ~ids:[ "REP-STALE"; "REP-CHURN"; "REP-MINORITY"; "REP-RECOVER" ] ()
  in
  Alcotest.(check bool) (Printf.sprintf "%d forked runs checked" forked) true (forked >= 40)

let hbase_explore_gate_forks () =
  let forked =
    forked_equals_straight ~ids:[ "HB-ASSIGN"; "HB-WATCH"; "HB-FOLLOWER" ] ~budget:2000 ()
  in
  Alcotest.(check bool) (Printf.sprintf "%d forked runs checked" forked) true (forked >= 150)

(* --- the fork site --------------------------------------------------- *)

(* A prefix must hold the run's own world: one with a monitor for a run
   with [check_conformance] and one without otherwise, and none at all
   for a run that tracks divergence. A mismatch raises, whether or not
   the run would fork. *)
let mismatched_prefixes_raise () =
  let test = Sieve.Bugs.test_of_case (case "REP-STALE") in
  let plain = List.hd (Sieve.Runner.prefixes test.spec [ 1_000_000 ]) in
  let monitored =
    List.hd (Sieve.Runner.prefixes ~check_conformance:true test.spec [ 1_000_000 ])
  in
  List.iter
    (fun (what, run) ->
      match run () with
      | _ -> Alcotest.failf "%s: ran" what
      | exception Invalid_argument _ -> ())
    [
      ( "a monitor-carrying prefix on a run without check_conformance",
        fun () -> ignore (Sieve.Runner.run_test ~prefix:monitored test) );
      ( "a monitor-less prefix on a run with check_conformance",
        fun () -> ignore (Sieve.Runner.run_test ~check_conformance:true ~prefix:plain test) );
      ( "a monitor-less prefix on a diagnosed run",
        fun () -> ignore (Sieve.Runner.run_test ~diagnose:true ~prefix:plain test) );
      ( "a monitor-carrying prefix on a diagnosed run",
        fun () ->
          ignore
            (Sieve.Runner.run_test ~check_conformance:true ~diagnose:true ~prefix:monitored test)
      );
      ( "instants out of order",
        fun () -> ignore (Sieve.Runner.prefixes test.spec [ 2_000_000; 1_000_000 ]) );
      ( "a repeated instant",
        fun () -> ignore (Sieve.Runner.prefixes test.spec [ 1_000_000; 1_000_000 ]) );
    ]

(* HB-FOLLOWER's focused test perturbs at 0.8 s, before a 1 s prefix of
   its world: it runs straight and leaves the straight run's bytes. *)
let perturbed_before_the_prefix_runs_straight () =
  let test = Sieve.Bugs.test_of_case (case "HB-FOLLOWER") in
  Alcotest.(check int) "first perturbation" 800_000
    (Sieve.Strategy.first_perturbation test.strategy);
  let prefix = List.hd (Sieve.Runner.prefixes test.spec [ 1_000_000 ]) in
  let run = Sieve.Runner.run_test ~prefix test in
  Alcotest.(check bool) "forked" false run.forked;
  List.iter2
    (fun (what, want) (_, got) -> Alcotest.(check string) what want got)
    (observed (Sieve.Runner.run_test test))
    (observed run)

(* Under a 4k-word minor heap a rung's image does not fit: the run falls
   back to running straight, with the straight run's bytes. *)
let too_big_an_image_runs_straight () =
  let test = Sieve.Bugs.test_of_case (case "REP-STALE") in
  let rung = (Sieve.Strategy.first_perturbation test.strategy - 1) / 1_000_000 in
  Alcotest.(check bool) "the focused test has a rung" true (rung >= 1);
  let prefix =
    List.hd (Sieve.Runner.prefixes ~check_conformance:true test.spec [ rung * 1_000_000 ])
  in
  Alcotest.(check bool) "forks at the default minor heap" true
    (Sieve.Runner.run_test ~check_conformance:true ~prefix test).forked;
  let straight = Sieve.Runner.run_test ~check_conformance:true test in
  let previous = Gc.get () in
  let run =
    Fun.protect
      ~finally:(fun () -> Gc.set previous)
      (fun () ->
        Gc.set { previous with Gc.minor_heap_size = 4_096 };
        Sieve.Runner.run_test ~check_conformance:true ~prefix test)
  in
  Alcotest.(check bool) "forked" false run.forked;
  List.iter2
    (fun (what, want) (_, got) -> Alcotest.(check string) what want got)
    (observed straight) (observed run)

let suites =
  [
    ( "snapshot",
      [
        Alcotest.test_case "sharing and cycles survive a copy" `Quick sharing_and_cycles;
        Alcotest.test_case "closures and their environments survive a copy" `Quick closures;
        Alcotest.test_case "bytes, float arrays and a hashtable survive a copy" `Quick raw_blocks;
        Alcotest.test_case "copies are independent of each other and of the image" `Quick
          independent_copies;
        Alcotest.test_case "extension constructors stay physically equal" `Quick
          extension_constructors;
        Alcotest.test_case "young and custom blocks make compile raise" `Quick refusals;
        Alcotest.test_case "an image beyond the free minor heap gives None" `Quick no_room;
      ] );
    ( "forked runs",
      [
        Alcotest.test_case "rep gate: every 8th distinct run, forked equals straight" `Quick
          rep_gate_forks;
        Alcotest.test_case "hbase-explore gate: every 8th distinct run, forked equals straight"
          `Quick hbase_explore_gate_forks;
        Alcotest.test_case "a prefix of another world raises" `Quick mismatched_prefixes_raise;
        Alcotest.test_case "a run perturbed before its prefix runs straight" `Quick
          perturbed_before_the_prefix_runs_straight;
        Alcotest.test_case "an image beyond the minor heap runs straight" `Quick
          too_big_an_image_runs_straight;
      ] );
  ]
