(* Fault plans: application and random generation. *)

let plan_applies_in_order () =
  let engine = Dsim.Engine.create () in
  let net = Dsim.Network.create engine in
  Dsim.Network.join net "a";
  Dsim.Network.join net "b";
  let plan =
    [
      (100, Dsim.Fault.Crash "a");
      (200, Dsim.Fault.Partition ("a", "b"));
      (300, Dsim.Fault.Restart "a");
      (400, Dsim.Fault.Heal ("a", "b"));
    ]
  in
  Dsim.Fault.apply net plan;
  Dsim.Engine.run ~until:150 engine;
  Alcotest.(check bool) "a down at 150" false (Dsim.Network.is_up net "a");
  Dsim.Engine.run ~until:250 engine;
  Alcotest.(check bool) "cut at 250" true (Dsim.Network.partitioned net "a" "b");
  Dsim.Engine.run ~until:500 engine;
  Alcotest.(check bool) "a back" true (Dsim.Network.is_up net "a");
  Alcotest.(check bool) "healed" false (Dsim.Network.partitioned net "a" "b")

let heal_all_action () =
  let engine = Dsim.Engine.create () in
  let net = Dsim.Network.create engine in
  Dsim.Network.partition net "x" "y";
  Dsim.Fault.apply net [ (10, Dsim.Fault.Heal_all) ];
  Dsim.Engine.run engine;
  Alcotest.(check bool) "healed" false (Dsim.Network.partitioned net "x" "y")

let random_plan_sorted_and_paired () =
  let rng = Dsim.Rng.create 5L in
  let plan =
    Dsim.Fault.random_plan rng ~nodes:[ "a"; "b"; "c" ] ~horizon:1_000_000 ~crashes:3
      ~partitions:2 ()
  in
  let times = List.map fst plan in
  Alcotest.(check (list int)) "sorted" (List.sort compare times) times;
  let crashes =
    List.filter (fun (_, a) -> match a with Dsim.Fault.Crash _ -> true | _ -> false) plan
  in
  let restarts =
    List.filter (fun (_, a) -> match a with Dsim.Fault.Restart _ -> true | _ -> false) plan
  in
  Alcotest.(check int) "each crash has a restart" (List.length crashes) (List.length restarts)

let random_plan_deterministic () =
  let gen () =
    Dsim.Fault.random_plan (Dsim.Rng.create 9L) ~nodes:[ "a"; "b" ] ~horizon:500_000 ()
  in
  Alcotest.(check bool) "same seed same plan" true (gen () = gen ())

let random_plan_empty_nodes () =
  let rng = Dsim.Rng.create 1L in
  Alcotest.(check bool) "no nodes, no plan" true
    (Dsim.Fault.random_plan rng ~nodes:[] ~horizon:100 () = [])

let suites =
  [
    ( "fault",
      [
        Alcotest.test_case "plan applies in order" `Quick plan_applies_in_order;
        Alcotest.test_case "heal_all action" `Quick heal_all_action;
        Alcotest.test_case "random plan sorted and paired" `Quick random_plan_sorted_and_paired;
        Alcotest.test_case "random plan deterministic" `Quick random_plan_deterministic;
        Alcotest.test_case "random plan with no nodes" `Quick random_plan_empty_nodes;
      ] );
  ]
