(* Perturbation-space coverage accounting. *)

let events =
  [
    (1_000, "pods/a", History.Event.Create);
    (2_000, "nodes/n", History.Event.Delete);
    (3_000, "pvcs/c", History.Event.Create);
  ]

let space () = Sieve.Coverage.create ~config:Kube.Cluster.default_config ~events

let space_shape () =
  let c = space () in
  (* Components consuming each key: pods/a -> kubelets(3) + scheduler +
     volumectl + cassop = 6; nodes/n -> scheduler = 1; pvcs/c ->
     volumectl + cassop = 2. Times 3 patterns. *)
  Alcotest.(check int) "total cells" ((6 + 1 + 2) * 3) (Sieve.Coverage.total c);
  Alcotest.(check int) "nothing covered" 0 (Sieve.Coverage.covered c);
  Alcotest.(check (float 0.001)) "ratio 0" 0.0 (Sieve.Coverage.ratio c)

let drop_marks_gap_cells () =
  let c = space () in
  Sieve.Coverage.note c
    (Sieve.Strategy.observability_gap ~dst:"scheduler" ~key_prefix:"nodes/n" ~from:0 ~until:1 ());
  Alcotest.(check int) "one cell" 1 (Sieve.Coverage.covered c);
  match Sieve.Coverage.by_pattern c with
  | [ (`Staleness, 0, _); (`Obs_gap, 1, _); (`Time_travel, 0, _) ] -> ()
  | _ -> Alcotest.fail "expected a single obs-gap cell"

let unscoped_drop_marks_all_consumed () =
  let c = space () in
  Sieve.Coverage.note c (Sieve.Strategy.observability_gap ~dst:"cassop" ~from:0 ~until:1 ());
  (* cassop consumes pods/a and pvcs/c. *)
  Alcotest.(check int) "two cells" 2 (Sieve.Coverage.covered c)

let crash_marks_time_travel () =
  let c = space () in
  Sieve.Coverage.note c (Sieve.Strategy.Crash_restart { victim = "kubelet-1"; at = 0; downtime = 1 });
  (* kubelet-1 consumes pods/a only. *)
  match Sieve.Coverage.by_pattern c with
  | [ (`Staleness, 0, _); (`Obs_gap, 0, _); (`Time_travel, 1, _) ] -> ()
  | _ -> Alcotest.fail "expected one time-travel cell"

let apiserver_partition_marks_everyone_stale () =
  let c = space () in
  Sieve.Coverage.note c
    (Sieve.Strategy.Partition_window { a = "etcd"; b = "api-2"; from = 0; until = 1 });
  (* Every (component, key) pair gets its staleness cell: 9 pairs. *)
  match Sieve.Coverage.by_pattern c with
  | [ (`Staleness, 9, 9); (`Obs_gap, 0, _); (`Time_travel, 0, _) ] -> ()
  | other ->
      Alcotest.fail
        (String.concat ", "
           (List.map
              (fun (p, d, t) ->
                Printf.sprintf "%s %d/%d" (Sieve.Coverage.pattern_to_string p) d t)
              other))

let planner_covers_everything () =
  let c = space () in
  List.iter
    (fun plan -> Sieve.Coverage.note c plan.Sieve.Planner.strategy)
    (Sieve.Planner.candidates ~config:Kube.Cluster.default_config ~events ~horizon:1_000_000 ());
  Alcotest.(check (float 0.001)) "full coverage" 1.0 (Sieve.Coverage.ratio c)

let baselines_cannot_touch_gap_cells () =
  let c = space () in
  let components =
    List.map (fun t -> t.Sieve.Planner.component)
      (Sieve.Planner.targets_of_config Kube.Cluster.default_config)
  in
  List.iter (Sieve.Coverage.note c)
    (Sieve.Baselines.crashtuner ~events ~components
    @ Sieve.Baselines.cofi ~events ~components ~apiservers:[ "api-1"; "api-2" ]
    @ Sieve.Baselines.random_faults ~seed:1L ~components ~apiservers:[ "api-1"; "api-2" ]
        ~horizon:1_000_000 ~n:50);
  match List.assoc_opt `Obs_gap (List.map (fun (p, d, t) -> (p, (d, t))) (Sieve.Coverage.by_pattern c)) with
  | Some (0, total) when total > 0 -> ()
  | _ -> Alcotest.fail "fault injection must not reach observability-gap cells"

(* Lazy-greedy scheduling trusts a cached gain as an upper bound: marking
   any footprint must never raise another footprint's fresh count. *)
let fresh_never_increases_after_mark () =
  let c = space () in
  let config = Kube.Cluster.default_config in
  let components =
    List.map (fun t -> t.Sieve.Planner.component) (Sieve.Planner.targets_of_config config)
  in
  let apiservers = [ "api-1"; "api-2" ] in
  let strategies =
    List.map
      (fun plan -> plan.Sieve.Planner.strategy)
      (Sieve.Planner.candidates ~config ~events ~horizon:1_000_000 ())
    @ Sieve.Baselines.cofi ~events ~components ~apiservers
    @ Sieve.Baselines.random_faults ~seed:3L ~components ~apiservers ~horizon:1_000_000 ~n:20
  in
  let footprints = Array.of_list (List.map (Sieve.Coverage.footprint c) strategies) in
  let last = Array.map (Sieve.Coverage.fresh c) footprints in
  Array.iter
    (fun marked ->
      Sieve.Coverage.mark c marked;
      Array.iteri
        (fun i fp ->
          let now = Sieve.Coverage.fresh c fp in
          if now > last.(i) then Alcotest.failf "fresh rose from %d to %d" last.(i) now;
          last.(i) <- now)
        footprints)
    footprints;
  Alcotest.(check bool) "every footprint fully marked" true (Array.for_all (( = ) 0) last)

let combo_overlap_counts_once () =
  let c = space () in
  (* cassop consumes pods/a and pvcs/c; the second part repeats pvcs/c. *)
  let combo =
    Sieve.Strategy.Combo
      [
        Sieve.Strategy.observability_gap ~dst:"cassop" ~from:0 ~until:1 ();
        Sieve.Strategy.observability_gap ~dst:"cassop" ~key_prefix:"pvcs/" ~from:0 ~until:1 ();
      ]
  in
  Alcotest.(check int) "cells_of repeats the overlap" 3
    (List.length (Sieve.Coverage.cells_of c combo));
  let fp = Sieve.Coverage.footprint c combo in
  Alcotest.(check int) "fresh counts it once" 2 (Sieve.Coverage.fresh c fp);
  Sieve.Coverage.mark c fp;
  Sieve.Coverage.note c combo;
  Alcotest.(check int) "covered counts it once" 2 (Sieve.Coverage.covered c);
  Alcotest.(check int) "nothing fresh after mark" 0 (Sieve.Coverage.fresh c fp)

let suites =
  [
    ( "coverage",
      [
        Alcotest.test_case "space shape" `Quick space_shape;
        Alcotest.test_case "drop marks gap cells" `Quick drop_marks_gap_cells;
        Alcotest.test_case "unscoped drop marks all consumed" `Quick
          unscoped_drop_marks_all_consumed;
        Alcotest.test_case "crash marks time travel" `Quick crash_marks_time_travel;
        Alcotest.test_case "apiserver partition marks everyone stale" `Quick
          apiserver_partition_marks_everyone_stale;
        Alcotest.test_case "planner covers everything" `Quick planner_covers_everything;
        Alcotest.test_case "baselines cannot touch gap cells" `Quick
          baselines_cannot_touch_gap_cells;
        Alcotest.test_case "fresh never increases after mark" `Quick
          fresh_never_increases_after_mark;
        Alcotest.test_case "combo overlap counts once" `Quick combo_overlap_counts_once;
      ] );
  ]
