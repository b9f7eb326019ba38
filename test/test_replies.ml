(* How every RPC client reacts to every reply a real server can send it,
   and to a timeout: what its continuation receives, at what virtual
   time, and which requests it sent. One line per (client operation,
   reply) in fixtures/replies.pins. Kube clients face scripted stub
   endpoints that answer every request with the row's reply (or never,
   for a timeout); ZooKeeper and HBase clients face the real servers,
   driven into each reply by writes, compaction, crashes and partitions.
   The fixture was recorded before the RPC layer was typed, so row labels
   name each reply as the untyped vocabulary did (Backend_unavailable is
   [Error `Unavailable], Lease_gone is [Ok false], ...). Regenerate by
   printing [lines ()], one per line — only after an intended change of
   client behaviour. *)

let make () =
  let engine = Dsim.Engine.create () in
  (engine, Dsim.Network.create engine)

let run_until engine t = Dsim.Engine.run ~until:t engine

let unavailable = "unavailable"

(* --- kube: scripted stub endpoints ---------------------------------- *)

let kind : type a. a Kube.Messages.request -> string = function
  | Kube.Messages.List _ -> "list"
  | Kube.Messages.Watch _ -> "watch"
  | Kube.Messages.(Get _ | Txn _ | Lease_grant _ | Lease_keepalive _ | Lease_revoke _) -> "op"

type respond = { respond : 'a. 'a Kube.Messages.request -> 'a Kube.Messages.reply option }

(* Each request kind gets its reply, or none (the caller times out). *)
let answers ?list ?get ?txn ?grant ?keepalive ?revoke ?watch () =
  let open Kube.Messages in
  let list : listing reply option = list
  and get : (Kube.Resource.value * int) option reply option = get
  and txn : outcome reply option = txn
  and grant : int reply option = grant
  and keepalive : bool reply option = keepalive
  and revoke : unit reply option = revoke
  and watch : watch_start reply option = watch in
  {
    respond =
      (fun (type a) (request : a Kube.Messages.request) : a Kube.Messages.reply option ->
        match request with
        | Kube.Messages.List _ -> list
        | Kube.Messages.Get _ -> get
        | Kube.Messages.Txn _ -> txn
        | Kube.Messages.Lease_grant _ -> grant
        | Kube.Messages.Lease_keepalive _ -> keepalive
        | Kube.Messages.Lease_revoke _ -> revoke
        | Kube.Messages.Watch _ -> watch);
  }

(* Answers every request as [respond] says, logging "<kind>><endpoint>"
   per request received. *)
let stub net log name { respond } =
  Kube.Messages.Store.register net name
    {
      serve =
        (fun ~src:_ request reply ->
          log := (kind request ^ ">" ^ name) :: !log;
          match respond request with Some r -> reply r | None -> ());
    }

let pod = Kube.Resource.make_pod "a"

(* One client operation against two stub apiservers answering [reply]. *)
let client_row op (label, reply) invoke =
  let engine, net = make () in
  let log = ref [] in
  List.iter (fun name -> stub net log name reply) [ "api-1"; "api-2" ];
  Dsim.Network.join net "comp";
  let client = Kube.Client.create ~net ~owner:"comp" ~endpoints:[ "api-1"; "api-2" ] () in
  let got = ref "-" in
  invoke client (fun outcome ->
      got := Printf.sprintf "%s @%d" outcome (Dsim.Engine.now engine));
  run_until engine 20_000_000;
  Printf.sprintf "client.%s | %s | %s | %s" op label !got (String.concat " " (List.rev !log))

let result render = function Ok v -> "ok " ^ render v | Error `Unavailable -> unavailable

let backend = ("Backend_unavailable", Some (Error `Unavailable))
let timeout = ("timeout", None)

let client_rows () =
  let outcome { Kube.Messages.succeeded; rev } = Printf.sprintf "succeeded=%b rev=%d" succeeded rev in
  let txn k client =
    Kube.Client.txn client (Kube.Messages.put "pods/a" pod) (fun r -> k (result outcome r))
  in
  let lease_grant k client =
    Kube.Client.lease_grant client ~ttl:1_000_000 (fun r -> k (result string_of_int r))
  in
  let keepalive k client =
    Kube.Client.lease_keepalive client ~lease:3 (fun r -> k (result string_of_bool r))
  in
  let revoke _ client = Kube.Client.lease_revoke client ~lease:3 in
  let value = function
    | Some (v, mod_rev) -> Printf.sprintf "%s@%d" (Kube.Resource.to_string v) mod_rev
    | None -> "none"
  in
  let get k client = Kube.Client.get_quorum client "pods/a" (fun r -> k (result value r)) in
  let items l =
    String.concat ","
      (List.map
         (fun (key, v, mod_rev) ->
           Printf.sprintf "%s=%s@%d" key (Kube.Resource.to_string v) mod_rev)
         l)
  in
  let list k client =
    Kube.Client.list_quorum client ~prefix:"pods/" (fun r -> k (result items r))
  in
  let rows op replies answer invoke =
    List.map
      (fun (label, reply) -> client_row op (label, answer reply) (fun c k -> invoke k c))
      replies
  in
  List.concat
    [
      rows "txn"
        [
          ("Txn_result succeeded", Some (Ok { Kube.Messages.succeeded = true; rev = 7 }));
          ("Txn_result failed", Some (Ok { Kube.Messages.succeeded = false; rev = 7 }));
          backend;
          timeout;
        ]
        (fun txn -> answers ?txn ())
        txn;
      rows "lease_grant"
        [ ("Lease_granted", Some (Ok 3)); backend; timeout ]
        (fun grant -> answers ?grant ())
        lease_grant;
      rows "lease_keepalive"
        [
          ("Lease_ok", Some (Ok true));
          ("Lease_gone", Some (Ok false));
          backend;
          timeout;
        ]
        (fun keepalive -> answers ?keepalive ())
        keepalive;
      rows "lease_revoke"
        [ ("Lease_ok", Some (Ok ())); backend; timeout ]
        (fun revoke -> answers ?revoke ())
        revoke;
      rows "get_quorum"
        [
          ("Value some", Some (Ok (Some (pod, 4))));
          ("Value none", Some (Ok None));
          backend;
          timeout;
        ]
        (fun get -> answers ?get ())
        get;
      rows "list_quorum"
        [
          ("Items", Some (Ok { Kube.Messages.items = [ ("pods/a", pod, 4) ]; rev = 9 }));
          backend;
          timeout;
        ]
        (fun list -> answers ?list ())
        list;
    ]

(* The informer against two stub apiservers: [list] answers lists,
   [watch] answers watches. *)
let informer_row (list_label, list) (watch_label, watch) =
  let engine, net = make () in
  let log = ref [] in
  List.iter (fun name -> stub net log name (answers ?list ?watch ())) [ "api-1"; "api-2" ];
  Dsim.Network.join net "comp";
  let informer =
    Kube.Informer.create ~net ~owner:"comp" ~endpoints:[ "api-1"; "api-2" ] ~prefix:"pods/" ()
  in
  Kube.Informer.start informer ();
  run_until engine 2_500_000;
  Printf.sprintf "informer | %s, %s | relists=%d rev=%d endpoint=%s | %s" list_label watch_label
    (Kube.Informer.relists informer) (Kube.Informer.rev informer)
    (Kube.Informer.current_endpoint informer)
    (String.concat " " (List.rev !log))

let items = ("Items", Some (Ok { Kube.Messages.items = [ ("pods/a", pod, 4) ]; rev = 9 }))
let watch_ok = ("Watch_ok", Some (Ok Kube.Messages.Watching))
let watch_compacted = ("Watch_compacted", Some (Ok (Kube.Messages.Compacted 5)))

let informer_rows () =
  List.map (informer_row items) [ watch_ok; watch_compacted; backend; timeout ]
  @ List.map (fun list -> informer_row list watch_ok) [ backend; timeout ]

(* The apiserver's bootstrap against a stub etcd. *)
let apiserver_row (range_label, range) (watch_label, watch) =
  let engine, net = make () in
  let log = ref [] in
  stub net log "etcd" (answers ?list:range ?watch ());
  let api =
    Kube.Apiserver.create ~net ~intercept:(History.Intercept.create ()) ~name:"api-1"
      ~etcd:"etcd" ()
  in
  Kube.Apiserver.start api;
  run_until engine 1_500_000;
  Printf.sprintf "apiserver | %s, %s | ready=%b rev=%d | %s" range_label watch_label
    (Kube.Apiserver.ready api) (Kube.Apiserver.rev api)
    (String.concat " " (List.rev !log))

let apiserver_rows () =
  List.map (apiserver_row items) [ watch_ok; watch_compacted; backend; timeout ]
  @ List.map (fun range -> apiserver_row range watch_ok) [ backend; timeout ]

(* --- ZooKeeper and HBase: the real servers -------------------------- *)

let calls engine =
  Dsim.Metrics.counters (Dsim.Engine.metrics engine)
  |> List.assoc_opt "net.calls" |> Option.value ~default:0

(* [prepare] shapes the ensemble; then [invoke] runs one client call at
   50 ms. The row reports the continuation's value and time, the
   network calls the operation made and the follower's resync count. *)
let zk_row op label ?(lag = 10_000) ?compaction_window ~prepare invoke =
  let engine, net = make () in
  let zk = Hbaselike.Zk.create ~net ~replication_lag:lag ?compaction_window () in
  Dsim.Network.join net "client";
  prepare net zk;
  run_until engine 50_000;
  let before = calls engine in
  let got = ref "-" in
  invoke (Dsim.Network.peer net "client") zk (fun outcome ->
      got := Printf.sprintf "%s @%d" outcome (Dsim.Engine.now engine));
  run_until engine 5_000_000;
  Printf.sprintf "zk.%s | %s | %s | calls=%d resyncs=%d" op label !got (calls engine - before)
    (Hbaselike.Zk.follower_resyncs zk)

let write_a net zk =
  Hbaselike.Zk.write zk ~src:(Dsim.Network.peer net "client") ~key:"a" "1" (fun _ -> ())
let crash name net _ = Dsim.Network.crash net name

let read_value = function
  | Ok (v, rev) -> Printf.sprintf "ok %s@%d" (Option.value v ~default:"none") rev
  | Error `Unavailable -> unavailable

let zk_rows () =
  let read ?sync key src zk k =
    Hbaselike.Zk.read zk ~src ?sync key (fun r -> k (read_value r))
  in
  let cas expected src zk k =
    Hbaselike.Zk.cas zk ~src ~key:"a" ~expected_mod_rev:expected (Some "2") (fun r ->
        k (result string_of_bool r))
  in
  let write src zk k =
    Hbaselike.Zk.write zk ~src ~key:"b" "2" (fun r -> k (result (fun () -> "()") r))
  in
  let arm src zk k = Hbaselike.Zk.arm_watch zk ~src "a" (fun r -> k (read_value r)) in
  let leader = Hbaselike.Zk.leader_name and follower = Hbaselike.Zk.follower_name in
  let write_a_then f net zk =
    write_a net zk;
    f net zk
  in
  [
    zk_row "read" "Zk_value" ~prepare:write_a (read "a");
    zk_row "read" "timeout" ~prepare:(write_a_then (crash follower)) (read "a");
    zk_row "read sync" "Zk_events" ~lag:500_000 ~prepare:write_a (read ~sync:true "a");
    zk_row "read sync" "Zk_compacted" ~lag:100_000_000 ~compaction_window:2
      ~prepare:(fun net zk ->
        for i = 1 to 6 do
          Hbaselike.Zk.write zk ~src:(Dsim.Network.peer net "client") ~key:(Printf.sprintf "k%d" i)
            (Printf.sprintf "v%d" i)
            (fun _ -> ())
        done)
      (read ~sync:true "k1");
    zk_row "read sync" "pull timeout" ~lag:500_000
      ~prepare:(write_a_then (fun net _ -> Dsim.Network.partition net follower leader))
      (read ~sync:true "a");
    zk_row "read sync" "timeout" ~prepare:(write_a_then (crash follower)) (read ~sync:true "a");
    zk_row "cas" "Zk_cas_result true" ~prepare:write_a (cas 1);
    zk_row "cas" "Zk_cas_result false" ~prepare:write_a (cas 0);
    zk_row "cas" "timeout" ~prepare:(write_a_then (crash leader)) (cas 1);
    zk_row "write" "Zk_written" ~prepare:write_a write;
    zk_row "write" "timeout" ~prepare:(crash leader) write;
    zk_row "arm_watch" "Zk_value" ~prepare:write_a arm;
    zk_row "arm_watch" "timeout" ~prepare:(write_a_then (crash leader)) arm;
  ]

(* A region server heartbeating the real master; [fail] crashes the
   master at 1 s. *)
let heartbeat_row label ~fail ~relookup =
  let engine = Dsim.Engine.create ~seed:13L () in
  let net = Dsim.Network.create engine in
  let zk = Hbaselike.Zk.create ~net () in
  let master = Hbaselike.Master.create ~net ~name:"master-1" ~zk ~regions:[ "r1" ] () in
  let rs =
    Hbaselike.Regionserver.create ~net ~name:"rs-1" ~zk ~relookup_on_failure:relookup ()
  in
  Hbaselike.Master.start master;
  Hbaselike.Regionserver.start rs;
  run_until engine 1_000_000;
  if fail then Dsim.Network.crash net "master-1";
  run_until engine 2_000_000;
  Printf.sprintf "regionserver.heartbeat | %s%s | failures=%d master=%s" label
    (if relookup then " relookup" else "")
    (Hbaselike.Regionserver.consecutive_failures rs)
    (Option.value (Hbaselike.Regionserver.cached_master rs) ~default:"none")

let heartbeat_rows () =
  [
    heartbeat_row "Heartbeat_ack" ~fail:false ~relookup:false;
    heartbeat_row "timeout" ~fail:true ~relookup:false;
    heartbeat_row "timeout" ~fail:true ~relookup:true;
  ]

let lines () =
  client_rows () @ informer_rows () @ apiserver_rows () @ zk_rows () @ heartbeat_rows ()

let fixture = Filename.concat "fixtures" "replies.pins"

let replies_match_fixture () =
  let expected = Fixture.read_lines fixture in
  let actual = lines () in
  Alcotest.(check int) "one line per (operation, reply)" (List.length expected)
    (List.length actual);
  List.iter2 (fun e a -> Alcotest.(check string) "client reaction" e a) expected actual

let suites =
  [
    ( "replies",
      [ Alcotest.test_case "client reactions match fixture" `Quick replies_match_fixture ] );
  ]
