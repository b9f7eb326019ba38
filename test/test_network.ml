(* RPC, casts, partitions, crashes and incarnation semantics. *)

type _ echo = Ping : int -> int echo

module Echo = Dsim.Network.Service (struct
  type 'a request = 'a echo
  type 'a reply = 'a
  let name = "echo"
end)

type _ note = Note : string -> unit note

module Notes = Dsim.Network.Service (struct
  type 'a request = 'a note
  type 'a reply = 'a
  let name = "note"
end)

let make () =
  let engine = Dsim.Engine.create () in
  let net = Dsim.Network.create engine in
  (engine, net)

let peer = Dsim.Network.peer

let echo_server net name =
  Echo.register net name
    { serve = (fun (type a) ~src:_ (Ping n : a echo) (reply : a -> unit) -> reply n) }

let rpc_roundtrip () =
  let engine, net = make () in
  echo_server net "server";
  Dsim.Network.join net "client";
  let got = ref None in
  Echo.call ~src:(peer net "client") ~dst:(peer net "server") (Ping 7) (fun r -> got := Some r);
  Dsim.Engine.run engine;
  match !got with
  | Some (Ok 7) -> ()
  | _ -> Alcotest.fail "expected 7 back"

let rpc_latency_is_positive () =
  let engine, net = make () in
  echo_server net "server";
  Dsim.Network.join net "client";
  let finished_at = ref 0 in
  Echo.call ~src:(peer net "client") ~dst:(peer net "server") (Ping 1) (fun _ ->
      finished_at := Dsim.Engine.now engine);
  Dsim.Engine.run engine;
  Alcotest.(check bool) "took at least two hops" true (!finished_at >= 1_000)

let unknown_destination () =
  let engine, net = make () in
  Dsim.Network.join net "client";
  let got = ref None in
  Echo.call ~src:(peer net "client") ~dst:(peer net "nobody") (Ping 1) (fun r -> got := Some r);
  Dsim.Engine.run engine;
  match !got with
  | Some (Error Dsim.Network.Unreachable) -> ()
  | _ -> Alcotest.fail "expected Unreachable"

let partition_times_out () =
  let engine, net = make () in
  echo_server net "server";
  Dsim.Network.join net "client";
  Dsim.Network.partition net "client" "server";
  let got = ref None in
  Echo.call ~src:(peer net "client") ~dst:(peer net "server") ~timeout:50_000 (Ping 1) (fun r ->
      got := Some r);
  Dsim.Engine.run engine;
  match !got with
  | Some (Error Dsim.Network.Timeout) -> ()
  | _ -> Alcotest.fail "expected Timeout"

let heal_restores () =
  let engine, net = make () in
  echo_server net "server";
  Dsim.Network.join net "client";
  Dsim.Network.partition net "client" "server";
  Dsim.Network.heal net "client" "server";
  let ok = ref false in
  Echo.call ~src:(peer net "client") ~dst:(peer net "server") (Ping 1) (fun r ->
      ok := Result.is_ok r);
  Dsim.Engine.run engine;
  Alcotest.(check bool) "healed" true !ok

let down_server_times_out () =
  let engine, net = make () in
  echo_server net "server";
  Dsim.Network.join net "client";
  Dsim.Network.crash net "server";
  let got = ref None in
  Echo.call ~src:(peer net "client") ~dst:(peer net "server") ~timeout:50_000 (Ping 1) (fun r ->
      got := Some r);
  Dsim.Engine.run engine;
  match !got with
  | Some (Error Dsim.Network.Timeout) -> ()
  | _ -> Alcotest.fail "expected Timeout for down server"

let restarted_caller_never_sees_reply () =
  let engine, net = make () in
  (* Server replies after a long think; the caller restarts meanwhile. *)
  Echo.register net "server"
    {
      serve =
        (fun (type a) ~src:_ (Ping n : a echo) (reply : a -> unit) ->
          ignore (Dsim.Engine.schedule engine ~delay:100_000 (fun () -> reply n)));
    };
  Dsim.Network.join net "client";
  let outcomes = ref [] in
  Echo.call ~src:(peer net "client") ~dst:(peer net "server") ~timeout:400_000 (Ping 1) (fun r ->
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
  Dsim.Network.join net "n";
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
  Notes.register net "sink"
    {
      serve =
        (fun (type a) ~src:_ (Note s : a note) (_ : a -> unit) -> received := s :: !received);
    };
  Dsim.Network.join net "src";
  Notes.cast ~src:(peer net "src") ~dst:(peer net "sink") (Note "one");
  Dsim.Engine.run engine;
  Dsim.Network.partition net "src" "sink";
  Notes.cast ~src:(peer net "src") ~dst:(peer net "sink") (Note "lost");
  Dsim.Engine.run engine;
  Alcotest.(check (list string)) "only pre-partition cast" [ "one" ] !received

(* Addresses are strings, so a request or cast can reach a live node
   that does not serve its kind. That is traced and counted at the
   destination; the caller still times out. *)
type _ other = Other : unit other

module Other = Dsim.Network.Service (struct
  type 'a request = 'a other
  type 'a reply = 'a
  let name = "other"
end)

let unhandled engine =
  List.assoc_opt "net.unhandled" (Dsim.Metrics.counters (Dsim.Engine.metrics engine))

let mismatched_service_is_loud () =
  let engine, net = make () in
  echo_server net "server";
  Dsim.Network.join net "client";
  Echo.call ~src:(peer net "client") ~dst:(peer net "server") (Ping 1) (fun _ -> ());
  Dsim.Engine.run engine;
  Alcotest.(check (option int)) "no counter until a mismatch" None (unhandled engine);
  let sent = Dsim.Engine.now engine in
  let got = ref None in
  Other.call ~src:(peer net "client") ~dst:(peer net "server") ~timeout:50_000 Other (fun r ->
      got := Some (r, Dsim.Engine.now engine));
  Other.cast ~src:(peer net "client") ~dst:(peer net "server") Other;
  Dsim.Engine.run engine;
  (match !got with
  | Some (Error Dsim.Network.Timeout, at) ->
      Alcotest.(check int) "after its deadline" (sent + 50_000) at
  | _ -> Alcotest.fail "expected Timeout");
  Alcotest.(check (option int)) "both counted" (Some 2) (unhandled engine);
  let entries = Dsim.Trace.find_all (Dsim.Engine.trace engine) ~kind:"net.unhandled" in
  Alcotest.(check (list (pair string string)))
    "traced at the destination"
    [ ("server", "other cast from client"); ("server", "other request from client") ]
    (List.sort compare (List.map (fun (e : Dsim.Trace.entry) -> (e.actor, e.detail)) entries))

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
  let net = Dsim.Network.create engine in
  Dsim.Network.set_latency_model net (Dsim.Network.Uniform { min = 100; max = 200 });
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

(* --- node handles ---------------------------------------------------------
   A peer must answer exactly as the by-name lookups do, whenever it was
   made. *)

let reads net peer addr =
  ( (Dsim.Network.peer_is_up peer, Dsim.Network.peer_incarnation peer),
    (Dsim.Network.is_up net addr, Dsim.Network.incarnation net addr) )

let check_reads what expected net peer addr =
  let by_peer, by_name = reads net peer addr in
  Alcotest.(check (pair bool int)) (what ^ ", by peer") expected by_peer;
  Alcotest.(check (pair bool int)) (what ^ ", by name") expected by_name

let peer_before_join () =
  let _, net = make () in
  let peer = Dsim.Network.peer net "late" in
  check_reads "before join" (false, 0) net peer "late";
  Dsim.Network.join net "late";
  check_reads "after join" (true, 0) net peer "late"

let peer_sees_crash_and_restart () =
  let _, net = make () in
  Dsim.Network.join net "n";
  let peer = Dsim.Network.peer net "n" in
  check_reads "joined" (true, 0) net peer "n";
  Dsim.Network.crash net "n";
  check_reads "crashed" (false, 1) net peer "n";
  Dsim.Network.restart net "n";
  check_reads "restarted" (true, 1) net peer "n"

let join_keeps_the_node () =
  (* A peer resolved before the crash, restart and re-join keeps seeing
     the node: join found the record instead of replacing it. *)
  let _, net = make () in
  Dsim.Network.join net "n";
  let peer = Dsim.Network.peer net "n" in
  ignore (Dsim.Network.peer_is_up peer);
  Dsim.Network.crash net "n";
  Dsim.Network.restart net "n";
  Dsim.Network.join net "n";
  check_reads "re-joined" (true, 1) net peer "n";
  Dsim.Network.crash net "n";
  check_reads "crashed again" (false, 2) net peer "n"

let caller_that_never_joined () =
  (* The caller's peer resolves on first use after its address joins: a
     caller still absent when the reply arrives loses it; one that
     joined before the reply gets it. *)
  let engine, net = make () in
  echo_server net "server";
  let ghost = ref None and late = ref None in
  Echo.call ~src:(peer net "ghost") ~dst:(peer net "server") ~timeout:50_000 (Ping 1) (fun r ->
      ghost := Some r);
  Echo.call ~src:(peer net "late") ~dst:(peer net "server") ~timeout:50_000 (Ping 2) (fun r ->
      late := Some r);
  Dsim.Network.join net "late";
  Dsim.Engine.run engine;
  (match !ghost with
  | Some (Error Dsim.Network.Timeout) -> ()
  | _ -> Alcotest.fail "a caller that never joined should time out");
  match !late with
  | Some (Ok 2) -> ()
  | _ -> Alcotest.fail "a caller that joined before the reply should get it"

let unreachable_until_joined () =
  (* The destination's peer keeps looking its address up until it joins:
     until then a call fails at once, without scheduling anything; the
     same peer then reaches the node. *)
  let engine, net = make () in
  Dsim.Network.join net "client";
  let client = peer net "client" and server = peer net "server" in
  let got = ref None in
  Echo.call ~src:client ~dst:server (Ping 3) (fun r -> got := Some r);
  (match !got with
  | Some (Error Dsim.Network.Unreachable) -> ()
  | _ -> Alcotest.fail "expected Unreachable before the engine runs");
  Alcotest.(check int) "nothing scheduled" 0 (Dsim.Engine.pending engine);
  echo_server net "server";
  got := None;
  Echo.call ~src:client ~dst:server (Ping 3) (fun r -> got := Some r);
  Dsim.Engine.run engine;
  match !got with
  | Some (Ok 3) -> ()
  | _ -> Alcotest.fail "expected the joined server to answer"

let partitioned_allocates_nothing () =
  let _, net = make () in
  Dsim.Network.partition net "a" "b";
  Dsim.Network.partition net "c" "d";
  Dsim.Network.partition net "e" "f";
  let hit = ref false and miss = ref true in
  let words =
    Test_engine.words_per_op (fun () ->
        hit := Dsim.Network.partitioned net "d" "c";
        miss := Dsim.Network.partitioned net "a" "f")
  in
  Alcotest.(check (pair bool bool)) "answers" (true, false) (!hit, !miss);
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per pair of checks < 1" words)
    true (words < 1.0)

(* Minor words of one round trip on warm peers: the call record, the
   timeout, request, reply and arrival closures, and the [Ok] the
   continuation receives. Pinned at its measured figure, like the
   engine's zero. *)
let round_trip_words = 32.0

let rpc_round_trip_allocation () =
  let engine, net = make () in
  echo_server net "server";
  Dsim.Network.join net "client";
  let client = peer net "client" and server = peer net "server" in
  let replies = ref 0 in
  let k = function Ok _ -> incr replies | Error _ -> () in
  let words =
    Test_engine.words_per_op (fun () ->
        Echo.call ~src:client ~dst:server (Ping 1) k;
        Dsim.Engine.run engine)
  in
  Alcotest.(check int) "every call answered" 10_001 !replies;
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per round trip <= %.0f" words round_trip_words)
    true
    (words <= round_trip_words)

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
        Alcotest.test_case "mismatched service is traced, counted and times out" `Quick
          mismatched_service_is_loud;
        Alcotest.test_case "heal_all clears every cut" `Quick heal_all_clears_every_cut;
        Alcotest.test_case "partition is symmetric" `Quick partition_is_symmetric;
        Alcotest.test_case "latency models sample in range" `Quick
          latency_models_sample_in_range;
        Alcotest.test_case "peer made before join" `Quick peer_before_join;
        Alcotest.test_case "peer sees crash and restart" `Quick peer_sees_crash_and_restart;
        Alcotest.test_case "join keeps the node record" `Quick join_keeps_the_node;
        Alcotest.test_case "caller that never joined times out" `Quick caller_that_never_joined;
        Alcotest.test_case "unreachable until the peer joins" `Quick unreachable_until_joined;
        Alcotest.test_case "partitioned allocates nothing" `Quick partitioned_allocates_nothing;
        Alcotest.test_case "rpc round trip within its word budget" `Quick
          rpc_round_trip_allocation;
      ] );
  ]
