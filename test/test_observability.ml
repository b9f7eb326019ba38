(* End-to-end observability: causal chains behind every corpus bug,
   revision-lag gauges under a partition, and the machine-readable
   artifacts' JSON round-trips. *)

let is_commit e = String.equal e.Dsim.Trace.kind "etcd.commit"

let is_violation e = String.equal e.Dsim.Trace.kind "oracle.violation"

(* The acceptance criterion: for every bug in the corpus, walking cause
   links backwards from the oracle-firing entry reaches an originating
   store commit — the trace explains each violation, not merely records
   it. *)
let chain_reaches_commit (case : Sieve.Bugs.case) () =
  let outcome = Sieve.Runner.run_test (Sieve.Bugs.test_of_case case) in
  Alcotest.(check bool) "bug reproduced" true (outcome.Sieve.Runner.violations <> []);
  let chain = Sieve.Runner.causal_chain outcome in
  Alcotest.(check bool) "chain non-empty" true (chain <> []);
  Alcotest.(check bool) "chain reaches a store commit" true (List.exists is_commit chain);
  Alcotest.(check bool) "chain ends at the violation" true
    (is_violation (List.nth chain (List.length chain - 1)))

let chain_cases =
  List.map
    (fun case ->
      Alcotest.test_case
        (Printf.sprintf "chain reaches commit (%s)" case.Sieve.Bugs.id)
        `Quick (chain_reaches_commit case))
    (Sieve.Bugs.all_with_extras ())

(* An apiserver partitioned from etcd stops advancing its watch cache
   while commits keep flowing: its revision-lag gauge must climb while
   the healthy apiserver's stays near zero. *)
let lag_gauge_under_partition () =
  let cluster = Kube.Cluster.create () in
  Kube.Cluster.start cluster;
  let engine = Kube.Cluster.engine cluster in
  let kv = Kube.Etcd.kv (Kube.Cluster.etcd cluster) in
  let n = ref 0 in
  Dsim.Engine.every engine ~period:50_000 (fun () ->
      incr n;
      let name = Printf.sprintf "extra-%d" !n in
      ignore (Etcdlike.Kv.put kv (Kube.Resource.node_key name) (Kube.Resource.make_node name));
      true);
  Kube.Cluster.run cluster ~until:1_000_000;
  Dsim.Network.partition (Kube.Cluster.net cluster) "api-1" "etcd";
  Kube.Cluster.run cluster ~until:3_000_000;
  let m = Kube.Cluster.metrics cluster in
  let lag_1 = Dsim.Metrics.gauge m "lag.api-1" in
  let lag_2 = Dsim.Metrics.gauge m "lag.api-2" in
  Alcotest.(check bool)
    (Printf.sprintf "partitioned apiserver lags (%.0f)" lag_1)
    true (lag_1 >= 10.0);
  Alcotest.(check bool)
    (Printf.sprintf "healthy apiserver keeps up (%.0f)" lag_2)
    true (lag_2 <= 3.0);
  (* The series carries the whole climb, newest sample last. *)
  let series = Dsim.Metrics.series m "lag.api-1" in
  Alcotest.(check bool) "series sampled" true (List.length series >= 10);
  let times = List.map fst series in
  Alcotest.(check bool) "series chronological" true (List.sort compare times = times)

let watch_latency_histogram_filled () =
  let cluster = Kube.Cluster.create () in
  Kube.Cluster.start cluster;
  Kube.Cluster.run cluster ~until:2_000_000;
  let m = Kube.Cluster.metrics cluster in
  (* Apiservers consume the etcd watch stream, so their delivery-latency
     histogram must have samples bounded by the link latency. *)
  let name = "watch.latency.api-1" in
  Alcotest.(check bool) "samples observed" true (Dsim.Metrics.samples m name > 0);
  (* The fastest delivery still pays at least one link traversal (500 us
     or more); queueing can only add on top. *)
  Alcotest.(check bool) "floor is the link latency" true
    (Dsim.Metrics.percentile m name 0.0 >= 500.)

let trace_jsonl_round_trips () =
  match Sieve.Bugs.find "k8s-56261" with
  | None -> Alcotest.fail "corpus lookup is case-insensitive"
  | Some case -> (
      let outcome = Sieve.Runner.run_test (Sieve.Bugs.test_of_case case) in
      let dump = Sieve.Runner.trace_jsonl outcome in
      match Dsim.Trace.of_jsonl dump with
      | Error msg -> Alcotest.failf "trace dump does not parse: %s" msg
      | Ok imported ->
          let live = Kube.Cluster.trace (Sieve.Runner.kube_cluster outcome) in
          Alcotest.(check int) "all entries exported" (Dsim.Trace.length live)
            (Dsim.Trace.length imported);
          (* Chain extraction works identically on the imported trace. *)
          let entry =
            match Sieve.Runner.violation_entry outcome with
            | Some e -> e
            | None -> Alcotest.fail "no violation entry"
          in
          let original = Sieve.Runner.causal_chain outcome in
          let replayed = Dsim.Trace.chain imported ~id:entry.Dsim.Trace.id in
          Alcotest.(check bool) "chains agree" true (original = replayed))

let metrics_and_artifact_json_parse () =
  match Sieve.Bugs.find "CA-398" with
  | None -> Alcotest.fail "missing corpus bug"
  | Some case ->
      let outcome = Sieve.Runner.run_test (Sieve.Bugs.test_of_case case) in
      (match Dsim.Json.parse (Dsim.Json.to_string (Sieve.Runner.metrics_json outcome)) with
      | Error msg -> Alcotest.failf "metrics snapshot does not parse: %s" msg
      | Ok j ->
          Alcotest.(check bool) "has counters" true (Dsim.Json.member "counters" j <> None));
      (match Dsim.Json.parse (Dsim.Json.to_string (Sieve.Runner.artifact outcome)) with
      | Error msg -> Alcotest.failf "artifact does not parse: %s" msg
      | Ok j -> (
          Alcotest.(check bool) "has causal chain" true
            (Dsim.Json.member "causal_chain" j <> None);
          match Dsim.Json.member "violations" j with
          | Some (Dsim.Json.List (_ :: _)) -> ()
          | _ -> Alcotest.fail "artifact lost the violations"))

let oracle_violations_counted () =
  match Sieve.Bugs.find "EXT-RS" with
  | None -> Alcotest.fail "missing corpus bug"
  | Some case ->
      let outcome = Sieve.Runner.run_test (Sieve.Bugs.test_of_case case) in
      let m = Kube.Cluster.metrics (Sieve.Runner.kube_cluster outcome) in
      Alcotest.(check int) "violations counter matches oracle"
        (List.length outcome.Sieve.Runner.violations)
        (Dsim.Metrics.count m "oracle.violations");
      Alcotest.(check bool) "commits counted" true (Dsim.Metrics.count m "etcd.commits" > 0)

(* The lag sampler reads revisions and writes resolved handles, so a
   tick allocates nothing but series growth: the same run sampled every
   10 ms instead of every 100 ms allocates under 4 more words per extra
   tick (the series arrays grow by doubling). *)
let lag_sampler_tick_allocates_nothing () =
  let words period =
    let config = { Kube.Cluster.default_config with Kube.Cluster.obs_sample_period = period } in
    let c = Kube.Cluster.create ~config () in
    Kube.Cluster.start c;
    Kube.Cluster.run c ~until:2_000_000;
    let before = Gc.minor_words () in
    Kube.Cluster.run c ~until:10_000_000;
    Gc.minor_words () -. before
  in
  let extra_ticks = 720.0 -. 80.0 in
  let per_tick = (words 10_000 -. words 100_000) /. extra_ticks in
  Alcotest.(check bool) (Printf.sprintf "%.1f words per tick" per_tick) true (per_tick < 4.0)

(* The printer's float path, as it was: everything through [Printf]. *)
let printf_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let json_float_edges =
  [
    0.;
    -0.;
    1e15 -. 1.;
    -.(1e15 -. 1.);
    1e15;
    -1e15;
    Float.nan;
    Float.infinity;
    Float.neg_infinity;
    Float.max_float;
    Float.min_float;
    Int64.float_of_bits 1L;
  ]

let json_float_prints_as_printf_did =
  let gen =
    QCheck.Gen.(
      frequency
        [
          (1, oneofl json_float_edges);
          (2, map float_of_int int);
          (2, map float_of_int (int_range (-1_000_000_000_000_000) 1_000_000_000_000_000));
          (2, map Float.round (float_range (-1e18) 1e18));
          (2, float_range (-1e15) 1e15);
          (2, map Int64.float_of_bits int64);
        ])
  in
  Qcheck_util.to_alcotest
    (QCheck.Test.make ~name:"json floats print as Printf did" ~count:2000
       (QCheck.make ~print:(fun f -> Printf.sprintf "%h" f) gen)
       (fun f ->
         let got = Dsim.Json.to_string (Dsim.Json.Float f) in
         String.equal got (printf_float f)
         || QCheck.Test.fail_reportf "%h prints %s, Printf %s" f got (printf_float f)))

let json_float_edges_print_as_printf_did () =
  List.iter
    (fun f ->
      Alcotest.(check string) (Printf.sprintf "%h" f) (printf_float f)
        (Dsim.Json.to_string (Dsim.Json.Float f)))
    json_float_edges

let suites =
  [
    ( "observability",
      chain_cases
      @ [
          Alcotest.test_case "lag gauge under partition" `Quick lag_gauge_under_partition;
          Alcotest.test_case "watch latency histogram filled" `Quick
            watch_latency_histogram_filled;
          Alcotest.test_case "trace jsonl round trips" `Quick trace_jsonl_round_trips;
          Alcotest.test_case "metrics and artifact json parse" `Quick
            metrics_and_artifact_json_parse;
          Alcotest.test_case "oracle violations counted" `Quick oracle_violations_counted;
          Alcotest.test_case "lag sampler tick allocates nothing" `Quick
            lag_sampler_tick_allocates_nothing;
          Alcotest.test_case "json float edge cases print as Printf did" `Quick
            json_float_edges_print_as_printf_did;
          json_float_prints_as_printf_did;
        ] );
  ]
