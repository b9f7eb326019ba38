(* The conformance layer: monitor unit properties, the model-based
   differential harness (real store vs. sequential reference), the
   mutation self-test, and monitor silence + passivity on cluster runs
   under injected faults. *)

module M = Conformance.Monitor
module Model = Conformance.Model

let ev ~rev ~key ~op value = History.Event.make ~rev ~key ~op value

let codes m = List.map (fun (v : M.violation) -> v.M.code) (M.violations m)

(* --- monitor unit properties --------------------------------------- *)

let faithful_stream_is_silent () =
  let kv = Etcdlike.Kv.create () in
  let m = M.create () in
  (* The mirror must see commits before the stream delivers them. *)
  Etcdlike.Kv.on_commit kv (M.note_commit m);
  Etcdlike.Kv.on_commit kv (M.observe_event m ~stream:"c<-store@1");
  ignore (Etcdlike.Kv.put kv "pods/a" "1");
  ignore (Etcdlike.Kv.put kv "pods/b" "2");
  ignore (Etcdlike.Kv.delete kv "pods/a");
  ignore (Etcdlike.Kv.put kv "pods/b" "3");
  M.check_state m ~subject:"c" ~rev:(Etcdlike.Kv.rev kv) (Etcdlike.Kv.state kv);
  Alcotest.(check int) "no violations" 0 (List.length (M.violations m));
  Alcotest.(check int) "no occurrences" 0 (M.total m);
  Alcotest.(check bool) "still strict" true (M.strict m)

let density_violation () =
  let m = M.create () in
  M.note_commit m (ev ~rev:1 ~key:"k" ~op:History.Event.Create (Some "a"));
  M.note_commit m (ev ~rev:3 ~key:"k" ~op:History.Event.Update (Some "b"));
  Alcotest.(check bool) "density tripped" true (codes m = [ M.Density ])

let non_monotone_violation () =
  let m = M.create () in
  M.note_commit m (ev ~rev:1 ~key:"k" ~op:History.Event.Create (Some "a"));
  M.note_commit m (ev ~rev:2 ~key:"k" ~op:History.Event.Update (Some "b"));
  let e2 = ev ~rev:2 ~key:"k" ~op:History.Event.Update (Some "b") in
  M.observe_event m ~stream:"s@1" e2;
  M.observe_event m ~stream:"s@1" e2;
  Alcotest.(check bool) "monotonicity tripped" true (List.mem M.Non_monotone (codes m));
  (* A new generation is a new stream: the same revision is fine there. *)
  let m2 = M.create () in
  M.note_commit m2 (ev ~rev:1 ~key:"k" ~op:History.Event.Create (Some "a"));
  let e1 = ev ~rev:1 ~key:"k" ~op:History.Event.Create (Some "a") in
  M.observe_event m2 ~stream:"s@1" e1;
  M.observe_event m2 ~stream:"s@2" e1;
  Alcotest.(check int) "fresh generation restarts the frontier" 0 (M.total m2)

let content_violation () =
  let m = M.create () in
  M.note_commit m (ev ~rev:1 ~key:"k" ~op:History.Event.Create (Some "a"));
  M.observe_event m ~stream:"s@1" (ev ~rev:1 ~key:"k" ~op:History.Event.Create (Some "FORGED"));
  Alcotest.(check bool) "content tripped" true (List.mem M.Content (codes m))

let prefix_filter_violation () =
  (* An event outside the stream's declared prefix cannot have come from
     that watch — authenticity, not completeness, so always on. *)
  let m = M.create () in
  M.note_commit m (ev ~rev:1 ~key:"nodes/x" ~op:History.Event.Create (Some "a"));
  M.relax m;
  M.observe_event m ~stream:"s@1" ~prefix:"pods/"
    (ev ~rev:1 ~key:"nodes/x" ~op:History.Event.Create (Some "a"));
  Alcotest.(check bool) "filter breach tripped" true (List.mem M.Content (codes m))

let gap_strict_only () =
  let feed m =
    M.note_commit m (ev ~rev:1 ~key:"pods/a" ~op:History.Event.Create (Some "1"));
    M.note_commit m (ev ~rev:2 ~key:"pods/b" ~op:History.Event.Create (Some "2"));
    M.note_commit m (ev ~rev:3 ~key:"pods/c" ~op:History.Event.Create (Some "3"));
    M.observe_event m ~stream:"s@1" (ev ~rev:1 ~key:"pods/a" ~op:History.Event.Create (Some "1"));
    M.observe_event m ~stream:"s@1" (ev ~rev:3 ~key:"pods/c" ~op:History.Event.Create (Some "3"))
  in
  let strict = M.create () in
  feed strict;
  Alcotest.(check bool) "skipping rev 2 trips strict mode" true (List.mem M.Gap (codes strict));
  let relaxed = M.create () in
  M.relax relaxed;
  feed relaxed;
  Alcotest.(check int) "relaxed mode allows the gap" 0 (M.total relaxed);
  Alcotest.(check bool) "relax is sticky" false (M.strict relaxed)

let future_rev_violation () =
  let m = M.create () in
  M.note_commit m (ev ~rev:1 ~key:"k" ~op:History.Event.Create (Some "a"));
  M.observe_advance m ~stream:"s@1" ~rev:5 ();
  Alcotest.(check bool) "future frontier tripped" true (List.mem M.Future_rev (codes m))

let state_divergence_violation () =
  let m = M.create () in
  M.note_commit m (ev ~rev:1 ~key:"k" ~op:History.Event.Create (Some "a"));
  M.check_state m ~subject:"cache" ~rev:1 History.State.empty;
  Alcotest.(check bool) "missing binding tripped" true (List.mem M.State_divergence (codes m))

let violations_deduplicate () =
  let fired = ref 0 in
  let m = M.create ~on_violation:(fun _ -> incr fired) () in
  M.note_commit m (ev ~rev:1 ~key:"k" ~op:History.Event.Create (Some "a"));
  let forged = ev ~rev:1 ~key:"k" ~op:History.Event.Create (Some "FORGED") in
  M.observe_event m ~stream:"s@1" forged;
  let forged2 = ev ~rev:1 ~key:"k" ~op:History.Event.Create (Some "FORGED2") in
  M.observe_event m ~stream:"s@2" forged2;
  Alcotest.(check int) "one distinct (code, subject) per stream" 2
    (List.length (M.violations m));
  Alcotest.(check int) "callback fires once per distinct pair" 2 !fired;
  M.note_commit m (ev ~rev:2 ~key:"k" ~op:History.Event.Update (Some "b"));
  M.observe_event m ~stream:"s@1" (ev ~rev:2 ~key:"k" ~op:History.Event.Update (Some "FORGED"));
  Alcotest.(check int) "repeat occurrences dedup" 2 (List.length (M.violations m));
  Alcotest.(check bool) "but still count" true (M.total m > 2)

let reset_allows_time_travel () =
  (* An informer adopting an older list moves its frontier backwards —
     the paper's time-travel semantics, legal by definition. *)
  let m = M.create () in
  let e1 = ev ~rev:1 ~key:"pods/a" ~op:History.Event.Create (Some "1") in
  let e2 = ev ~rev:2 ~key:"pods/a" ~op:History.Event.Update (Some "2") in
  M.note_commit m e1;
  M.note_commit m e2;
  M.observe_event m ~stream:"s@1" e1;
  M.observe_event m ~stream:"s@1" e2;
  let old_state = History.State.apply History.State.empty e1 in
  M.observe_reset m ~stream:"s@2" ~rev:1 old_state;
  M.observe_event m ~stream:"s@2" e2;
  Alcotest.(check int) "backwards reset is not a violation" 0 (M.total m)

(* --- differential harness: real store vs. sequential model --------- *)

type dop =
  | Put of int
  | Del of int
  | Txn of int * int * int
  | Compact_frac of int
  | Compact_keep of int
  | Grant of int
  | Attach of int * int
  | Keepalive of int
  | Revoke of int
  | Tick of int
  | Expire

let key_of i = if i < 6 then Printf.sprintf "pods/p%d" i else Printf.sprintf "nodes/n%d" (i - 6)

let dop_to_string = function
  | Put k -> Printf.sprintf "put %s" (key_of k)
  | Del k -> Printf.sprintf "del %s" (key_of k)
  | Txn (k, g, k2) -> Printf.sprintf "txn %s guard#%d %s" (key_of k) g (key_of k2)
  | Compact_frac n -> Printf.sprintf "compact %d/10" n
  | Compact_keep n -> Printf.sprintf "compact-keep %d" n
  | Grant ttl -> Printf.sprintf "grant ttl=%d" ttl
  | Attach (l, k) -> Printf.sprintf "attach #%d %s" l (key_of k)
  | Keepalive l -> Printf.sprintf "keepalive #%d" l
  | Revoke l -> Printf.sprintf "revoke #%d" l
  | Tick d -> Printf.sprintf "tick +%d" d
  | Expire -> "expire"

let gen_dop =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun k -> Put k) (int_bound 8));
        (3, map (fun k -> Del k) (int_bound 8));
        (3, map (fun (k, g, k2) -> Txn (k, g, k2)) (triple (int_bound 8) (int_bound 4) (int_bound 8)));
        (1, map (fun n -> Compact_frac n) (int_bound 9));
        (1, map (fun n -> Compact_keep n) (int_bound 10));
        (2, map (fun t -> Grant (1 + t)) (int_bound 4));
        (2, map (fun (l, k) -> Attach (l, k)) (pair (int_bound 5) (int_bound 8)));
        (1, map (fun l -> Keepalive l) (int_bound 5));
        (1, map (fun l -> Revoke l) (int_bound 5));
        (2, map (fun d -> Tick (1 + d)) (int_bound 3));
        (1, return Expire);
      ])

let arb_program =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map dop_to_string ops))
    QCheck.Gen.(list_size (0 -- 80) gen_dop)

(* Assert every observable of the real stack equals the model's. *)
let agree step kv model lease granted now =
  let ck name cond = if not cond then QCheck.Test.fail_reportf "step %d: %s disagrees" step name in
  ck "rev" (Etcdlike.Kv.rev kv = Model.rev model);
  ck "compacted_rev" (Etcdlike.Kv.compacted_rev kv = Model.compacted_rev model);
  ck "bindings" (History.State.bindings (Etcdlike.Kv.state kv) = Model.bindings model);
  ck "range pods/" (Etcdlike.Kv.range kv ~prefix:"pods/" = Model.range model ~prefix:"pods/");
  ck "range all" (Etcdlike.Kv.range kv ~prefix:"" = Model.range model ~prefix:"");
  List.iter
    (fun i ->
      let k = key_of i in
      ck ("get " ^ k) (Etcdlike.Kv.get kv k = Model.get model k))
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ];
  let rev = Etcdlike.Kv.rev kv in
  List.iter
    (fun r ->
      ck (Printf.sprintf "since %d" r) (Etcdlike.Kv.since kv ~rev:r = Model.since model ~rev:r))
    [ 0; rev / 2; rev ];
  ck "active leases" (Etcdlike.Lease.active lease = Model.active_leases model);
  List.iter
    (fun id ->
      ck "lease keys" (Etcdlike.Lease.keys lease ~lease:id = Model.lease_keys model ~lease:id);
      ck "ttl remaining"
        (Etcdlike.Lease.ttl_remaining lease ~lease:id ~now = Model.ttl_remaining model ~lease:id ~now))
    granted

let qcheck_store_agrees_with_model =
  QCheck.Test.make ~name:"etcdlike agrees with the sequential model" ~count:120 arb_program
    (fun ops ->
      let kv = Etcdlike.Kv.create () in
      let model = ref Model.empty in
      let lease = Etcdlike.Lease.create () in
      let monitor = M.create () in
      Etcdlike.Kv.on_commit kv (M.note_commit monitor);
      let delivered = ref 0 in
      Etcdlike.Kv.on_commit kv (fun e ->
          incr delivered;
          M.observe_event monitor ~stream:"harness@1" e);
      let granted = ref [] in
      let vc = ref 0 in
      let now = ref 0 in
      let fresh () =
        incr vc;
        Printf.sprintf "v%d" !vc
      in
      let slot l =
        match !granted with [] -> 999 | ids -> List.nth ids (l mod List.length ids)
      in
      List.iteri
        (fun step op ->
          (match op with
          | Put k ->
              let v = fresh () in
              let e = Etcdlike.Kv.put kv (key_of k) v in
              let m', e' = Model.put !model (key_of k) v in
              model := m';
              if e <> e' then QCheck.Test.fail_reportf "step %d: put event disagrees" step
          | Del k ->
              let e = Etcdlike.Kv.delete kv (key_of k) in
              let m', e' = Model.delete !model (key_of k) in
              model := m';
              if e <> e' then QCheck.Test.fail_reportf "step %d: delete event disagrees" step
          | Txn (k, g, k2) ->
              let key = key_of k in
              let guard =
                match g with
                | 0 -> Etcdlike.Txn.Exists key
                | 1 -> Etcdlike.Txn.Absent key
                | 2 ->
                    let mr = match Etcdlike.Kv.get kv key with Some (_, r) -> r | None -> 0 in
                    Etcdlike.Txn.Mod_rev_eq (key, mr)
                | 3 -> Etcdlike.Txn.Mod_rev_eq (key, 1)
                | _ -> (
                    match Etcdlike.Kv.get kv key with
                    | Some (v, _) -> Etcdlike.Txn.Value_eq (key, v)
                    | None -> Etcdlike.Txn.Value_eq (key, "nope"))
              in
              let txn =
                {
                  Etcdlike.Txn.guards = [ guard ];
                  success = [ Etcdlike.Txn.Put (key_of k2, fresh ()) ];
                  failure = [ Etcdlike.Txn.Delete (key_of k2) ];
                }
              in
              let o = Etcdlike.Txn.eval kv txn in
              let m', o' = Model.txn !model txn in
              model := m';
              if o <> o' then QCheck.Test.fail_reportf "step %d: txn outcome disagrees" step
          | Compact_frac n ->
              let before = n * Etcdlike.Kv.rev kv / 10 in
              Etcdlike.Kv.compact kv ~before;
              model := Model.compact !model ~before
          | Compact_keep n ->
              Etcdlike.Kv.compact_keep_last kv n;
              model := Model.compact_keep_last !model n
          | Grant ttl ->
              let id = Etcdlike.Lease.grant lease ~ttl ~now:!now in
              let m', id' = Model.grant !model ~ttl ~now:!now in
              model := m';
              if id <> id' then QCheck.Test.fail_reportf "step %d: lease id disagrees" step;
              granted := !granted @ [ id ]
          | Attach (l, k) ->
              let id = slot l in
              Etcdlike.Lease.attach lease ~lease:id ~key:(key_of k);
              model := Model.attach !model ~lease:id ~key:(key_of k)
          | Keepalive l ->
              let id = slot l in
              let ok = Etcdlike.Lease.keepalive lease ~lease:id ~now:!now in
              let m', ok' = Model.keepalive !model ~lease:id ~now:!now in
              model := m';
              if ok <> ok' then QCheck.Test.fail_reportf "step %d: keepalive disagrees" step
          | Revoke l ->
              let id = slot l in
              let keys = Etcdlike.Lease.revoke lease ~lease:id in
              let m', keys' = Model.revoke !model ~lease:id in
              model := m';
              granted := List.filter (fun g -> g <> id) !granted;
              if keys <> keys' then QCheck.Test.fail_reportf "step %d: revoke keys disagree" step;
              (* The store deletes a revoked lease's keys, as etcd does. *)
              List.iter
                (fun k ->
                  ignore (Etcdlike.Kv.delete kv k);
                  model := fst (Model.delete !model k))
                keys
          | Tick d -> now := !now + d
          | Expire ->
              let out = Etcdlike.Lease.expire lease ~now:!now in
              let m', out' = Model.expire !model ~now:!now in
              model := m';
              if out <> out' then QCheck.Test.fail_reportf "step %d: expire disagrees" step;
              granted := List.filter (fun g -> not (List.mem_assoc g out)) !granted;
              List.iter
                (fun (_, keys) ->
                  List.iter
                    (fun k ->
                      ignore (Etcdlike.Kv.delete kv k);
                      model := fst (Model.delete !model k))
                    keys)
                out);
          agree step kv !model lease !granted !now)
        ops;
      (* Every commit reached the watcher, and the watcher's stream kept
         the monitor silent — the real stack conforms to itself. *)
      if !delivered <> Etcdlike.Kv.rev kv then
        QCheck.Test.fail_reportf "delivered %d of %d commits" !delivered (Etcdlike.Kv.rev kv);
      M.check_state monitor ~subject:"harness" ~rev:(Etcdlike.Kv.rev kv) (Etcdlike.Kv.state kv);
      if M.total monitor > 0 then
        QCheck.Test.fail_reportf "monitor tripped: %s"
          (String.concat "; " (List.map M.describe (M.violations monitor)));
      true)

(* --- mutation self-test -------------------------------------------- *)

let selftest_all_mutations_detected () =
  let outcomes = Conformance.Selftest.run () in
  Alcotest.(check int) "control + five mutations" 6 (List.length outcomes);
  List.iter
    (fun (o : Conformance.Selftest.outcome) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s %s" o.Conformance.Selftest.mutation
           (if o.Conformance.Selftest.tripped then "tripped" else "silent"))
        true (Conformance.Selftest.ok o))
    outcomes

let selftest_stable_across_seeds () =
  List.iter
    (fun seed ->
      List.iter
        (fun (o : Conformance.Selftest.outcome) ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %Ld: %s" seed o.Conformance.Selftest.mutation)
            true (Conformance.Selftest.ok o))
        (Conformance.Selftest.run ~seed ()))
    [ 1L; 7L; 42L ]

(* HBase-boundary mutations: each must trip with its *expected* code —
   a lost one-shot notification is a gap, a truncated master view is a
   state divergence, a forged znode payload is a content violation. *)
let selftest_hbase_mutations_detected () =
  let outcomes = Conformance.Selftest.run_hbase () in
  Alcotest.(check int) "control + three mutations" 4 (List.length outcomes);
  List.iter
    (fun (o : Conformance.Selftest.outcome) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s %s (codes: %s)" o.Conformance.Selftest.mutation
           (if o.Conformance.Selftest.tripped then "tripped" else "silent")
           (String.concat ","
              (List.map Conformance.Monitor.code_to_string o.Conformance.Selftest.codes)))
        true
        (Conformance.Selftest.hbase_ok o))
    outcomes

let selftest_hbase_stable_across_seeds () =
  List.iter
    (fun seed ->
      List.iter
        (fun (o : Conformance.Selftest.outcome) ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %Ld: %s" seed o.Conformance.Selftest.mutation)
            true
            (Conformance.Selftest.hbase_ok o))
        (Conformance.Selftest.run_hbase ~seed ()))
    [ 1L; 7L; 42L ]

(* --- cluster tier: silence under faults, passivity ----------------- *)

let cluster_test strategy =
  Sieve.Runner.base_test ~config:Kube.Cluster.default_config
    ~workload:(Kube.Workload.pod_churn ~n:2 ())
    ~horizon:5_000_000 strategy

let conf (outcome : Sieve.Runner.outcome) =
  match outcome.Sieve.Runner.conformance with
  | Some c -> c
  | None -> Alcotest.fail "expected a conformance report"

let monitor_silent_under_faults () =
  let fixed =
    [
      Sieve.Strategy.No_perturbation;
      Sieve.Strategy.Crash_restart { victim = "kubelet-1"; at = 1_000_000; downtime = 800_000 };
      Sieve.Strategy.Partition_window
        { a = "kubelet-2"; b = "api-1"; from = 500_000; until = 2_000_000 };
      Sieve.Strategy.staleness ~dst:"scheduler" ~from:0 ~until:3_000_000 ~extra:400_000 ();
    ]
  in
  let random =
    Sieve.Baselines.random_faults ~seed:20260704L
      ~components:[ "kubelet-1"; "kubelet-2"; "scheduler" ]
      ~apiservers:[ "api-1"; "api-2" ] ~horizon:5_000_000 ~n:3
  in
  List.iter
    (fun strategy ->
      let outcome = Sieve.Runner.run_test ~check_conformance:true (cluster_test strategy) in
      let c = conf outcome in
      if c.Sieve.Runner.conf_total > 0 then
        Alcotest.fail
          (Printf.sprintf "monitor tripped under %s: %s"
             (Sieve.Strategy.describe strategy)
             (String.concat "; "
                (List.map Conformance.Monitor.describe c.Sieve.Runner.conf_violations)));
      Alcotest.(check bool)
        (Sieve.Strategy.describe strategy ^ " stays strict")
        true c.Sieve.Runner.conf_strict)
    (fixed @ random)

let drops_relax_but_stay_silent () =
  (* A deliberate observability gap ends strict mode; the always-on
     checks must still hold — the gap is the experiment, nothing else
     may go wrong. *)
  let strategy =
    Sieve.Strategy.observability_gap ~dst:"scheduler" ~from:0 ~until:4_000_000 ()
  in
  let outcome = Sieve.Runner.run_test ~check_conformance:true (cluster_test strategy) in
  let c = conf outcome in
  Alcotest.(check int) "always-on checks silent" 0 c.Sieve.Runner.conf_total

let corpus_reference_runs_conform () =
  List.iter
    (fun case ->
      let outcome =
        Sieve.Runner.run_test ~check_conformance:true (Sieve.Bugs.reference_test_of_case case)
      in
      let c = conf outcome in
      if c.Sieve.Runner.conf_total > 0 then
        Alcotest.fail
          (Printf.sprintf "%s: %s" case.Sieve.Bugs.id
             (String.concat "; "
                (List.map Conformance.Monitor.describe c.Sieve.Runner.conf_violations)));
      Alcotest.(check bool) (case.Sieve.Bugs.id ^ " strict") true c.Sieve.Runner.conf_strict)
    (Sieve.Bugs.all_with_extras ())

let monitor_is_passive () =
  (* Same test, flag on and off: the run's externally visible trajectory
     (trace bytes, oracle verdicts, truth revision) must be identical. *)
  List.iter
    (fun strategy ->
      let test = cluster_test strategy in
      let without = Sieve.Runner.run_test test in
      let with_m = Sieve.Runner.run_test ~check_conformance:true test in
      Alcotest.(check string)
        ("trace bytes unchanged under " ^ Sieve.Strategy.describe strategy)
        (Sieve.Runner.trace_jsonl without)
        (Sieve.Runner.trace_jsonl with_m);
      Alcotest.(check int) "same truth rev" without.Sieve.Runner.truth_rev
        with_m.Sieve.Runner.truth_rev;
      Alcotest.(check int) "same violation count"
        (List.length without.Sieve.Runner.violations)
        (List.length with_m.Sieve.Runner.violations))
    [
      Sieve.Strategy.No_perturbation;
      Sieve.Strategy.Crash_restart { victim = "kubelet-1"; at = 1_000_000; downtime = 800_000 };
    ]

let suites =
  [
    ( "conformance monitor",
      [
        Alcotest.test_case "faithful stream is silent" `Quick faithful_stream_is_silent;
        Alcotest.test_case "density" `Quick density_violation;
        Alcotest.test_case "non-monotone" `Quick non_monotone_violation;
        Alcotest.test_case "content" `Quick content_violation;
        Alcotest.test_case "prefix filter breach" `Quick prefix_filter_violation;
        Alcotest.test_case "gap is strict-only" `Quick gap_strict_only;
        Alcotest.test_case "future rev" `Quick future_rev_violation;
        Alcotest.test_case "state divergence" `Quick state_divergence_violation;
        Alcotest.test_case "violations deduplicate" `Quick violations_deduplicate;
        Alcotest.test_case "reset allows time travel" `Quick reset_allows_time_travel;
      ] );
    ( "conformance differential",
      [ Qcheck_util.to_alcotest qcheck_store_agrees_with_model ] );
    ( "conformance self-test",
      [
        Alcotest.test_case "all mutations detected" `Quick selftest_all_mutations_detected;
        Alcotest.test_case "stable across seeds" `Quick selftest_stable_across_seeds;
        Alcotest.test_case "hbase mutations trip their expected codes" `Quick
          selftest_hbase_mutations_detected;
        Alcotest.test_case "hbase mutations stable across seeds" `Quick
          selftest_hbase_stable_across_seeds;
      ] );
    ( "conformance cluster",
      [
        Alcotest.test_case "silent under faults" `Slow monitor_silent_under_faults;
        Alcotest.test_case "drops relax but stay silent" `Slow drops_relax_but_stay_silent;
        Alcotest.test_case "corpus reference runs conform" `Slow corpus_reference_runs_conform;
        Alcotest.test_case "monitor is passive" `Slow monitor_is_passive;
      ] );
  ]
