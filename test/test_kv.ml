(* The MVCC store core. *)

let put_get_roundtrip () =
  let kv = Etcdlike.Kv.create () in
  let e = Etcdlike.Kv.put kv "k" "v" in
  Alcotest.(check int) "first rev" 1 e.History.Event.rev;
  Alcotest.(check (option (pair string int))) "get" (Some ("v", 1)) (Etcdlike.Kv.get kv "k")

let create_vs_update_op () =
  let kv = Etcdlike.Kv.create () in
  let e1 = Etcdlike.Kv.put kv "k" "a" in
  let e2 = Etcdlike.Kv.put kv "k" "b" in
  Alcotest.(check bool) "create" true (e1.History.Event.op = History.Event.Create);
  Alcotest.(check bool) "update" true (e2.History.Event.op = History.Event.Update);
  Alcotest.(check (option (pair string int))) "mod rev" (Some ("b", 2)) (Etcdlike.Kv.get kv "k")

let delete_semantics () =
  let kv = Etcdlike.Kv.create () in
  ignore (Etcdlike.Kv.put kv "k" "v");
  (match Etcdlike.Kv.delete kv "k" with
  | Some e -> Alcotest.(check bool) "delete op" true (e.History.Event.op = History.Event.Delete)
  | None -> Alcotest.fail "expected delete event");
  Alcotest.(check (option (pair string int))) "gone" None (Etcdlike.Kv.get kv "k");
  Alcotest.(check bool) "deleting absent yields no event" true (Etcdlike.Kv.delete kv "k" = None);
  Alcotest.(check int) "rev counts only real events" 2 (Etcdlike.Kv.rev kv)

let range_by_prefix () =
  let kv = Etcdlike.Kv.create () in
  ignore (Etcdlike.Kv.put kv "pods/a" "1");
  ignore (Etcdlike.Kv.put kv "nodes/x" "2");
  ignore (Etcdlike.Kv.put kv "pods/b" "3");
  let items = Etcdlike.Kv.range kv ~prefix:"pods/" in
  Alcotest.(check (list string)) "keys" [ "pods/a"; "pods/b" ] (List.map (fun (k, _, _) -> k) items);
  Alcotest.(check (list int)) "mod revs" [ 1; 3 ] (List.map (fun (_, _, r) -> r) items)

let listeners_fire_in_order () =
  let kv = Etcdlike.Kv.create () in
  let log = ref [] in
  Etcdlike.Kv.on_commit kv (fun e -> log := ("first", e.History.Event.rev) :: !log);
  Etcdlike.Kv.on_commit kv (fun e -> log := ("second", e.History.Event.rev) :: !log);
  ignore (Etcdlike.Kv.put kv "k" "v");
  Alcotest.(check (list (pair string int))) "registration order" [ ("first", 1); ("second", 1) ]
    (List.rev !log)

let many_listeners_keep_registration_order () =
  (* Pins the notification order across the growable-array registrations
     a cluster boot performs: every commit must visit listeners 0..n-1. *)
  let kv = Etcdlike.Kv.create () in
  let seen = ref [] in
  for i = 0 to 49 do
    Etcdlike.Kv.on_commit kv (fun _ -> seen := i :: !seen)
  done;
  ignore (Etcdlike.Kv.put kv "k" "v");
  Alcotest.(check (list int)) "0..49 in registration order" (List.init 50 Fun.id)
    (List.rev !seen);
  seen := [];
  ignore (Etcdlike.Kv.put kv "k" "v2");
  Alcotest.(check (list int)) "stable on the next commit" (List.init 50 Fun.id)
    (List.rev !seen)

let qcheck_range_agrees_with_naive =
  (* The fused range scan must agree with the pre-PR two-pass
     implementation: prefix-filter all keys, then re-find each one. *)
  QCheck.Test.make ~name:"range = prefix filter + per-key find" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 50) (pair (int_range 0 9) bool))
        (oneofl [ ""; "k"; "k1"; "pods/"; "zz" ]))
    (fun (ops, prefix) ->
      let kv = Etcdlike.Kv.create () in
      List.iter
        (fun (k, is_put) ->
          let key = if k mod 2 = 0 then Printf.sprintf "k%d" k else Printf.sprintf "pods/p%d" k in
          if is_put then ignore (Etcdlike.Kv.put kv key k)
          else ignore (Etcdlike.Kv.delete kv key))
        ops;
      let state = Etcdlike.Kv.state kv in
      let naive =
        History.State.keys state
        |> List.filter (fun key -> String.starts_with ~prefix key)
        |> List.filter_map (fun key ->
               match History.State.find state key with
               | Some (v, mod_rev) -> Some (key, v, mod_rev)
               | None -> None)
      in
      Etcdlike.Kv.range kv ~prefix = naive)

let compaction_flows_through () =
  let kv = Etcdlike.Kv.create () in
  for i = 1 to 10 do
    ignore (Etcdlike.Kv.put kv (Printf.sprintf "k%d" i) "v")
  done;
  Etcdlike.Kv.compact_keep_last kv 2;
  Alcotest.(check int) "compacted rev" 8 (Etcdlike.Kv.compacted_rev kv);
  match Etcdlike.Kv.since kv ~rev:5 with
  | Error (`Compacted 8) -> ()
  | _ -> Alcotest.fail "expected Compacted 8"

(* The commit feed: a commit is traced, counted and made the causal
   frontier before any feed listener runs, in registration order; per
   revision anchors, times and labels, and each key's last anchor, read
   back through the view, past the growth of the per-revision arrays. *)
let commit_feed_anchors_before_listeners () =
  let engine = Dsim.Engine.create () in
  let kv = Etcdlike.Kv.create () in
  let feed = Etcdlike.Commits.create engine ~actor:"store" ~kind:"store.commit" in
  let view = Etcdlike.Commits.view feed in
  Etcdlike.Kv.on_commit kv (Etcdlike.Commits.commit feed);
  let seen = ref [] in
  Etcdlike.Commits.on_commit feed (fun e ->
      seen := ("first", e.History.Event.rev, Dsim.Engine.current_cause engine) :: !seen);
  Etcdlike.Commits.on_revision view (fun ~rev ~key:_ ~op:_ ->
      seen := ("second", rev, Dsim.Engine.current_cause engine) :: !seen);
  for i = 1 to 100 do
    let e = Etcdlike.Kv.put kv (Printf.sprintf "k%d" (i mod 3)) i in
    if i = 50 then Etcdlike.Commits.label feed ~rev:e.History.Event.rev "user"
  done;
  let anchors = Dsim.Trace.find_all (Dsim.Engine.trace engine) ~kind:"store.commit" in
  Alcotest.(check int) "frontier" 100 (Etcdlike.Commits.rev view);
  Alcotest.(check int) "counted" 100
    (Dsim.Metrics.count (Dsim.Engine.metrics engine) "store.commits");
  Alcotest.(check (list (option int))) "one anchor per revision"
    (List.map (fun (a : Dsim.Trace.entry) -> Some a.Dsim.Trace.id) anchors)
    (List.init 100 (fun i -> Etcdlike.Commits.anchor view ~rev:(i + 1)));
  Alcotest.(check bool) "anchors recognised" true
    (List.for_all (Etcdlike.Commits.anchored view) anchors);
  Alcotest.(check (list (triple string int (option int)))) "listeners see their commit's anchor"
    (List.concat_map
       (fun rev ->
         let a = Etcdlike.Commits.anchor view ~rev in
         [ ("first", rev, a); ("second", rev, a) ])
       (List.init 100 (fun i -> i + 1)))
    (List.rev !seen);
  Alcotest.(check (list (option int))) "no anchor outside 1..frontier" [ None; None ]
    [ Etcdlike.Commits.anchor view ~rev:0; Etcdlike.Commits.anchor view ~rev:101 ];
  Alcotest.(check (option int)) "commit time" (Some 0) (Etcdlike.Commits.time view ~rev:100);
  Alcotest.(check (list string)) "labels" [ "boot"; "user"; "boot"; "boot" ]
    (List.map (fun rev -> Etcdlike.Commits.origin view ~rev) [ 49; 50; 100; 1_000 ]);
  Alcotest.(check (list (option int))) "each key's last anchor"
    [ Etcdlike.Commits.anchor view ~rev:99; Etcdlike.Commits.anchor view ~rev:100; None ]
    (List.map (Etcdlike.Commits.key_anchor view) [ "k0"; "k1"; "k3" ])

let qcheck_rev_equals_mutations =
  QCheck.Test.make ~name:"rev counts committed mutations" ~count:100
    QCheck.(list_of_size Gen.(0 -- 50) (pair (int_range 0 5) bool))
    (fun ops ->
      let kv = Etcdlike.Kv.create () in
      let committed = ref 0 in
      List.iter
        (fun (k, is_put) ->
          let key = Printf.sprintf "k%d" k in
          if is_put then begin
            ignore (Etcdlike.Kv.put kv key "v");
            incr committed
          end
          else if Etcdlike.Kv.delete kv key <> None then incr committed)
        ops;
      Etcdlike.Kv.rev kv = !committed)

let suites =
  [
    ( "kv",
      [
        Alcotest.test_case "put/get roundtrip" `Quick put_get_roundtrip;
        Alcotest.test_case "create vs update op" `Quick create_vs_update_op;
        Alcotest.test_case "delete semantics" `Quick delete_semantics;
        Alcotest.test_case "range by prefix" `Quick range_by_prefix;
        Alcotest.test_case "listeners fire in order" `Quick listeners_fire_in_order;
        Alcotest.test_case "many listeners keep registration order" `Quick
          many_listeners_keep_registration_order;
        Alcotest.test_case "compaction flows through" `Quick compaction_flows_through;
        Alcotest.test_case "commit feed anchors before listeners" `Quick
          commit_feed_anchors_before_listeners;
        Qcheck_util.to_alcotest qcheck_rev_equals_mutations;
        Qcheck_util.to_alcotest qcheck_range_agrees_with_naive;
      ] );
  ]
