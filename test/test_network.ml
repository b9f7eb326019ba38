(* RPC, casts, partitions, crashes and incarnation semantics. *)

type Dsim.Network.request += Ping of int
type Dsim.Network.response += Pong of int
type Dsim.Network.cast += Note of string

let make () =
  let engine = Dsim.Engine.create () in
  let net = Dsim.Network.create engine in
  (engine, net)

let echo_server net name =
  Dsim.Network.register net name
    ~serve:(fun ~src:_ req reply -> match req with Ping n -> reply (Pong n) | _ -> ())
    ()

let rpc_roundtrip () =
  let engine, net = make () in
  echo_server net "server";
  Dsim.Network.register net "client" ~serve:(fun ~src:_ _ _ -> ()) ();
  let got = ref None in
  Dsim.Network.call net ~src:"client" ~dst:"server" (Ping 7) (fun r -> got := Some r);
  Dsim.Engine.run engine;
  match !got with
  | Some (Ok (Pong 7)) -> ()
  | _ -> Alcotest.fail "expected Pong 7"

let rpc_latency_is_positive () =
  let engine, net = make () in
  echo_server net "server";
  Dsim.Network.register net "client" ~serve:(fun ~src:_ _ _ -> ()) ();
  let finished_at = ref 0 in
  Dsim.Network.call net ~src:"client" ~dst:"server" (Ping 1) (fun _ ->
      finished_at := Dsim.Engine.now engine);
  Dsim.Engine.run engine;
  Alcotest.(check bool) "took at least two hops" true (!finished_at >= 1_000)

let unknown_destination () =
  let engine, net = make () in
  Dsim.Network.register net "client" ~serve:(fun ~src:_ _ _ -> ()) ();
  let got = ref None in
  Dsim.Network.call net ~src:"client" ~dst:"nobody" (Ping 1) (fun r -> got := Some r);
  Dsim.Engine.run engine;
  match !got with
  | Some (Error Dsim.Network.Unreachable) -> ()
  | _ -> Alcotest.fail "expected Unreachable"

let partition_times_out () =
  let engine, net = make () in
  echo_server net "server";
  Dsim.Network.register net "client" ~serve:(fun ~src:_ _ _ -> ()) ();
  Dsim.Network.partition net "client" "server";
  let got = ref None in
  Dsim.Network.call net ~src:"client" ~dst:"server" ~timeout:50_000 (Ping 1) (fun r ->
      got := Some r);
  Dsim.Engine.run engine;
  match !got with
  | Some (Error Dsim.Network.Timeout) -> ()
  | _ -> Alcotest.fail "expected Timeout"

let heal_restores () =
  let engine, net = make () in
  echo_server net "server";
  Dsim.Network.register net "client" ~serve:(fun ~src:_ _ _ -> ()) ();
  Dsim.Network.partition net "client" "server";
  Dsim.Network.heal net "client" "server";
  let ok = ref false in
  Dsim.Network.call net ~src:"client" ~dst:"server" (Ping 1) (fun r -> ok := Result.is_ok r);
  Dsim.Engine.run engine;
  Alcotest.(check bool) "healed" true !ok

let down_server_times_out () =
  let engine, net = make () in
  echo_server net "server";
  Dsim.Network.register net "client" ~serve:(fun ~src:_ _ _ -> ()) ();
  Dsim.Network.crash net "server";
  let got = ref None in
  Dsim.Network.call net ~src:"client" ~dst:"server" ~timeout:50_000 (Ping 1) (fun r ->
      got := Some r);
  Dsim.Engine.run engine;
  match !got with
  | Some (Error Dsim.Network.Timeout) -> ()
  | _ -> Alcotest.fail "expected Timeout for down server"

let restarted_caller_never_sees_reply () =
  let engine, net = make () in
  (* Server replies after a long think; the caller restarts meanwhile. *)
  Dsim.Network.register net "server"
    ~serve:(fun ~src:_ req reply ->
      match req with
      | Ping n -> ignore (Dsim.Engine.schedule engine ~delay:100_000 (fun () -> reply (Pong n)))
      | _ -> ())
    ();
  Dsim.Network.register net "client" ~serve:(fun ~src:_ _ _ -> ()) ();
  let outcomes = ref [] in
  Dsim.Network.call net ~src:"client" ~dst:"server" ~timeout:400_000 (Ping 1) (fun r ->
      outcomes := r :: !outcomes);
  ignore (Dsim.Engine.schedule engine ~delay:20_000 (fun () -> Dsim.Network.crash net "client"));
  ignore (Dsim.Engine.schedule engine ~delay:30_000 (fun () -> Dsim.Network.restart net "client"));
  Dsim.Engine.run engine;
  match !outcomes with
  | [ Error Dsim.Network.Timeout ] -> ()
  | _ -> Alcotest.fail "reply should have been dropped (new incarnation), leaving a timeout"

let crash_bumps_incarnation_and_hooks () =
  let _, net = make () in
  let crashes = ref 0 and restarts = ref 0 in
  Dsim.Network.register net "n" ~serve:(fun ~src:_ _ _ -> ()) ();
  Dsim.Network.set_lifecycle net "n"
    ~on_crash:(fun () -> incr crashes)
    ~on_restart:(fun () -> incr restarts);
  Alcotest.(check int) "inc 0" 0 (Dsim.Network.incarnation net "n");
  Dsim.Network.crash net "n";
  Dsim.Network.crash net "n" (* idempotent while down *);
  Alcotest.(check int) "inc 1" 1 (Dsim.Network.incarnation net "n");
  Alcotest.(check bool) "down" false (Dsim.Network.is_up net "n");
  Alcotest.(check int) "one crash hook" 1 !crashes;
  Dsim.Network.restart net "n";
  Dsim.Network.restart net "n";
  Alcotest.(check bool) "up" true (Dsim.Network.is_up net "n");
  Alcotest.(check int) "one restart hook" 1 !restarts

let cast_delivery_and_partition () =
  let engine, net = make () in
  let received = ref [] in
  Dsim.Network.register net "sink"
    ~serve:(fun ~src:_ _ _ -> ())
    ~on_cast:(fun ~src:_ c -> match c with Note s -> received := s :: !received | _ -> ())
    ();
  Dsim.Network.register net "src" ~serve:(fun ~src:_ _ _ -> ()) ();
  Dsim.Network.cast net ~src:"src" ~dst:"sink" (Note "one");
  Dsim.Engine.run engine;
  Dsim.Network.partition net "src" "sink";
  Dsim.Network.cast net ~src:"src" ~dst:"sink" (Note "lost");
  Dsim.Engine.run engine;
  Alcotest.(check (list string)) "only pre-partition cast" [ "one" ] !received

let heal_all_clears_every_cut () =
  let _, net = make () in
  Dsim.Network.partition net "a" "b";
  Dsim.Network.partition net "c" "d";
  Dsim.Network.heal_all net;
  Alcotest.(check bool) "ab healed" false (Dsim.Network.partitioned net "a" "b");
  Alcotest.(check bool) "cd healed" false (Dsim.Network.partitioned net "c" "d")

let partition_is_symmetric () =
  let _, net = make () in
  Dsim.Network.partition net "a" "b";
  Alcotest.(check bool) "b-a also cut" true (Dsim.Network.partitioned net "b" "a")

let latency_models_sample_in_range () =
  let engine = Dsim.Engine.create () in
  let net = Dsim.Network.create ~min_latency:100 ~max_latency:200 engine in
  for _ = 1 to 100 do
    let l = Dsim.Network.sample_latency net in
    Alcotest.(check bool) "uniform in range" true (l >= 100 && l <= 200)
  done;
  Dsim.Network.set_latency_model net
    (Dsim.Network.Exponential { mean = 1_000.0; floor = 50 });
  for _ = 1 to 100 do
    Alcotest.(check bool) "exponential above floor" true
      (Dsim.Network.sample_latency net >= 50)
  done

let suites =
  [
    ( "network",
      [
        Alcotest.test_case "rpc roundtrip" `Quick rpc_roundtrip;
        Alcotest.test_case "rpc latency positive" `Quick rpc_latency_is_positive;
        Alcotest.test_case "unknown destination" `Quick unknown_destination;
        Alcotest.test_case "partition times out" `Quick partition_times_out;
        Alcotest.test_case "heal restores" `Quick heal_restores;
        Alcotest.test_case "down server times out" `Quick down_server_times_out;
        Alcotest.test_case "restarted caller never sees reply" `Quick
          restarted_caller_never_sees_reply;
        Alcotest.test_case "crash bumps incarnation and hooks" `Quick
          crash_bumps_incarnation_and_hooks;
        Alcotest.test_case "cast delivery and partition" `Quick cast_delivery_and_partition;
        Alcotest.test_case "heal_all clears every cut" `Quick heal_all_clears_every_cut;
        Alcotest.test_case "partition is symmetric" `Quick partition_is_symmetric;
        Alcotest.test_case "latency models sample in range" `Quick
          latency_models_sample_in_range;
      ] );
  ]
