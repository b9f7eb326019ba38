(* Provenance and lag over the whole corpus: every case under its
   strategy, its reference run and its fixed configuration, with
   divergence tracking on. Boot state explains nothing, a workload step
   is where a chain starts, and every Lag record is measured the way the
   lag gauges measure it. *)

let variants =
  [
    ("bug", Sieve.Bugs.test_of_case);
    ("reference", Sieve.Bugs.reference_test_of_case);
    ("fixed", Sieve.Bugs.fixed_test_of_case);
  ]

(* "<id> <variant>" and the run, tracking divergences. *)
let corpus =
  lazy
    (List.concat_map
       (fun (case : Sieve.Bugs.case) ->
         List.map
           (fun (variant, test_of) ->
             ( Printf.sprintf "%s %s" case.Sieve.Bugs.id variant,
               Sieve.Runner.run_test ~diagnose:true (test_of case) ))
           variants)
       (Sieve.Bugs.all_with_extras () @ Sieve.Bugs.replicated () @ Sieve.Bugs.hbase ()))

(* The seeds: the store commits recorded before anything else, at
   time 0, while the cluster starts. *)
let seed_anchors feed trace =
  let rec leading = function
    | (e : Dsim.Trace.entry) :: rest
      when Etcdlike.Commits.anchored feed e && e.Dsim.Trace.time = 0 ->
        e :: leading rest
    | _ -> []
  in
  leading (Dsim.Trace.entries trace)

let seeds_cause_nothing () =
  List.iter
    (fun (name, (o : Sieve.Runner.outcome)) ->
      let live = o.Sieve.Runner.live in
      let feed = Sieve.Substrate.commits live and trace = Sieve.Substrate.trace live in
      let seeds = seed_anchors feed trace in
      Alcotest.(check bool) (name ^ ": the store was seeded") true (seeds <> []);
      List.iteri
        (fun i (s : Dsim.Trace.entry) ->
          Alcotest.(check string)
            (Printf.sprintf "%s: seed #%d is boot state" name s.Dsim.Trace.id)
            "boot"
            (Etcdlike.Commits.origin feed ~rev:(i + 1));
          Alcotest.(check (option int))
            (Printf.sprintf "%s: seed #%d has no cause" name s.Dsim.Trace.id)
            None s.Dsim.Trace.cause)
        seeds;
      let ids = List.map (fun (s : Dsim.Trace.entry) -> s.Dsim.Trace.id) seeds in
      List.iter
        (fun (e : Dsim.Trace.entry) ->
          match e.Dsim.Trace.cause with
          | Some c when List.mem c ids ->
              Alcotest.failf "%s: #%d %s %S is caused by seed #%d" name e.Dsim.Trace.id
                e.Dsim.Trace.kind e.Dsim.Trace.detail c
          | Some _ | None -> ())
        (Dsim.Trace.entries trace))
    (Lazy.force corpus)

(* The paper's Figure-2 walk for K8s-59848 starts at the user's
   migration, not at the boot node objects. *)
let chain_starts_at_workload_step () =
  let case = Option.get (Sieve.Bugs.find "K8s-59848") in
  let outcome, card = Diagnosis.Diagnose.diagnose_case case in
  let card = match card with Some c -> c | None -> Alcotest.fail "no card produced" in
  let chain = Sieve.Runner.causal_chain outcome in
  Alcotest.(check int) "card counts the chain" (List.length chain)
    card.Diagnosis.Card.chain.Diagnosis.Card.length;
  match chain with
  | first :: _ ->
      Alcotest.(check (pair string string))
        "chain root"
        ("workload.step", "migrate p1: create on node-2")
        (first.Dsim.Trace.kind, first.Dsim.Trace.detail)
  | [] -> Alcotest.fail "empty causal chain"

let lag_records (o : Sieve.Runner.outcome) =
  match o.Sieve.Runner.hooks with
  | None -> Alcotest.fail "run carries no monitor"
  | Some h ->
      List.filter
        (fun (d : Conformance.Monitor.divergence) -> d.Conformance.Monitor.d_kind = Conformance.Monitor.Lag)
        (Conformance.Handle.divergences h)

let replica_of_stream stream =
  if String.ends_with ~suffix:"<-raft" stream then
    Some (String.sub stream 0 (String.length stream - String.length "<-raft"))
  else None

(* A replica owes every revision, so the first one it has not applied
   is the one after its applied revision: a replica's Lag record names
   that revision as its frontier. *)
let replica_lag_names_applied_revision () =
  let seen = ref 0 in
  List.iter
    (fun (name, (o : Sieve.Runner.outcome)) ->
      List.iter
        (fun (d : Conformance.Monitor.divergence) ->
          match replica_of_stream d.Conformance.Monitor.d_stream with
          | None -> ()
          | Some replica ->
              incr seen;
              let store =
                List.assoc replica
                  (Kube.Etcd.replicas (Kube.Cluster.etcd (Sieve.Runner.kube_cluster o)))
              in
              let label = Printf.sprintf "%s: %s lag" name d.Conformance.Monitor.d_stream in
              Alcotest.(check int)
                (label ^ " frontier is the revision before the one it owes")
                (d.Conformance.Monitor.d_rev - 1) d.Conformance.Monitor.d_frontier;
              Alcotest.(check bool)
                (label ^ " frontier was applied")
                true
                (d.Conformance.Monitor.d_frontier <= Etcdlike.Kv.rev store))
        (lag_records o))
    (Lazy.force corpus);
  Alcotest.(check bool) "the corpus has replica lag" true (!seen > 0)

(* One lag definition: a Lag record on a stream whose component the lag
   sampler probes is seen by that component's [lag.<component>] series
   too — some sample at or after the owed revision's commit reads at
   least the record's revision gap. The sampler does not probe replicas
   (probing them costs allocation on every tick), so their records are
   tied by the test above instead. *)
let lag_records_agree_with_the_gauges () =
  let tied = ref 0 in
  List.iter
    (fun (name, (o : Sieve.Runner.outcome)) ->
      let live = o.Sieve.Runner.live in
      let feed = Sieve.Substrate.commits live and metrics = Sieve.Substrate.metrics live in
      List.iter
        (fun (d : Conformance.Monitor.divergence) ->
          let stream = d.Conformance.Monitor.d_stream in
          if replica_of_stream stream = None then begin
            incr tied;
            let component =
              List.hd (String.split_on_char '#' (List.hd (String.split_on_char '<' stream)))
            in
            let committed =
              Option.get (Etcdlike.Commits.time feed ~rev:d.Conformance.Monitor.d_rev)
            in
            let gap = d.Conformance.Monitor.d_rev - d.Conformance.Monitor.d_frontier in
            let samples = Dsim.Metrics.series metrics ("lag." ^ component) in
            if
              not
                (List.exists
                   (fun (time, lag) -> time >= committed && lag >= float_of_int gap)
                   samples)
            then
              Alcotest.failf "%s: %s lags %d revisions behind @%d, but lag.%s (%d samples) never reads it"
                name stream gap d.Conformance.Monitor.d_rev component (List.length samples)
          end)
        (lag_records o))
    (Lazy.force corpus);
  Alcotest.(check bool) "the corpus has sampled lag" true (!tied > 0)

let suites =
  [
    ( "provenance",
      [
        Alcotest.test_case "seed commits cause nothing" `Quick seeds_cause_nothing;
        Alcotest.test_case "K8s-59848's chain starts at its workload step" `Quick
          chain_starts_at_workload_step;
      ] );
    ( "lag",
      [
        Alcotest.test_case "a replica's lag names its applied revision" `Quick
          replica_lag_names_applied_revision;
        Alcotest.test_case "lag records agree with the lag gauges" `Quick
          lag_records_agree_with_the_gauges;
      ] );
  ]
