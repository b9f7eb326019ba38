(* The lifecycle every kube component shares: crash stops the informers
   before the component's reset, restart re-lists from the endpoint the
   incarnation picks, the reconcile pass skips a down node, and the view
   revision is the least informer revision. *)

let apiservers = [ "api-1"; "api-2"; "api-3" ]

(* A component with a pods/ and a nodes/ informer over three apiservers. *)
let setup () =
  let engine = Dsim.Engine.create () in
  let net = Dsim.Network.create engine in
  let intercept = History.Intercept.create () in
  let etcd = Kube.Etcd.create ~net ~intercept () in
  List.iter
    (fun name -> Kube.Apiserver.start (Kube.Apiserver.create ~net ~intercept ~name ~etcd:"etcd" ()))
    apiservers;
  let ctl = Kube.Controller.create ~net ~name:"comp" ~endpoints:apiservers in
  List.iter
    (fun prefix ->
      ignore
        (Kube.Controller.watch ctl
           (Kube.Informer.create ~net ~owner:"comp" ~endpoints:apiservers ~prefix ())))
    [ Kube.Resource.pods_prefix; Kube.Resource.nodes_prefix ];
  (engine, net, etcd, ctl)

let run_for engine us = Dsim.Engine.run ~until:(Dsim.Engine.now engine + us) engine

let put etcd key value = ignore (Etcdlike.Kv.put (Kube.Etcd.kv etcd) key value)

let crash_stops_informers_first () =
  let engine, net, _, ctl = setup () in
  let seen = ref [] in
  Kube.Controller.start ctl ~on_crash:(fun () ->
      seen := List.map Kube.Informer.running (Kube.Controller.informers ctl) :: !seen);
  run_for engine 1_000_000;
  Alcotest.(check (list bool)) "running before the crash" [ true; true ]
    (List.map Kube.Informer.running (Kube.Controller.informers ctl));
  Dsim.Network.crash net "comp";
  Alcotest.(check (list (list bool))) "reset ran once, after every informer stopped"
    [ [ false; false ] ] !seen

let restart_relists_from_incarnation_endpoint () =
  let engine, net, _, ctl = setup () in
  Kube.Controller.start ctl ~on_crash:ignore;
  run_for engine 1_000_000;
  let informers = Kube.Controller.informers ctl in
  let endpoints () = List.map Kube.Informer.current_endpoint informers in
  let relists () = List.map Kube.Informer.relists informers in
  Alcotest.(check (list string)) "first start at endpoint 0" [ "api-1"; "api-1" ] (endpoints ());
  List.iter
    (fun incarnation ->
      let before = relists () in
      Dsim.Network.crash net "comp";
      run_for engine 200_000;
      Dsim.Network.restart net "comp";
      run_for engine 1_000_000;
      let expected = List.nth apiservers (incarnation mod List.length apiservers) in
      Alcotest.(check int) "incarnation" incarnation (Dsim.Network.incarnation net "comp");
      Alcotest.(check (list string))
        (Printf.sprintf "incarnation %d lists from %s" incarnation expected)
        [ expected; expected ] (endpoints ());
      Alcotest.(check (list int))
        (Printf.sprintf "incarnation %d re-listed each informer once" incarnation)
        (List.map succ before) (relists ()))
    [ 1; 2; 3 ]

let pass_skipped_while_down () =
  let engine, net, _, ctl = setup () in
  let passes = ref 0 in
  Kube.Controller.start ctl ~on_crash:ignore;
  Kube.Controller.every ctl ~period:100_000 (fun () -> incr passes);
  run_for engine 450_000;
  Alcotest.(check int) "a pass now and every 100 ms" 5 !passes;
  Dsim.Network.crash net "comp";
  run_for engine 1_000_000;
  Alcotest.(check int) "no pass while down" 5 !passes;
  Dsim.Network.restart net "comp";
  run_for engine 500_000;
  Alcotest.(check int) "passes resume after restart" 10 !passes

let view_rev_is_least () =
  let engine, _, etcd, ctl = setup () in
  Alcotest.(check int) "0 before start" 0 (Kube.Controller.view_rev ctl);
  put etcd "pods/a" (Kube.Resource.make_pod "a");
  Kube.Controller.start ctl ~on_crash:ignore;
  run_for engine 1_000_000;
  let pods, nodes =
    match Kube.Controller.informers ctl with
    | [ pods; nodes ] -> (pods, nodes)
    | _ -> Alcotest.fail "expected two informers"
  in
  Kube.Informer.stop nodes;
  put etcd "pods/b" (Kube.Resource.make_pod "b");
  put etcd "pods/c" (Kube.Resource.make_pod "c");
  run_for engine 1_000_000;
  Alcotest.(check bool) "the stopped view is behind" true
    (Kube.Informer.rev nodes < Kube.Informer.rev pods);
  Alcotest.(check int) "least informer revision" (Kube.Informer.rev nodes)
    (Kube.Controller.view_rev ctl)

let suites =
  [
    ( "controller",
      [
        Alcotest.test_case "crash stops every informer before the reset" `Quick
          crash_stops_informers_first;
        Alcotest.test_case "restart re-lists from endpoint incarnation mod n" `Quick
          restart_relists_from_incarnation_endpoint;
        Alcotest.test_case "pass skipped while the node is down" `Quick pass_skipped_while_down;
        Alcotest.test_case "view_rev is the least informer revision" `Quick view_rev_is_least;
      ] );
  ]
