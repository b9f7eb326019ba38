(* Counters, gauges, series, histogram percentiles and the JSON
   snapshot. *)

let counters_accumulate () =
  let m = Dsim.Metrics.create () in
  Dsim.Metrics.incr m "a";
  Dsim.Metrics.incr m "a";
  Dsim.Metrics.add m "a" 3;
  Alcotest.(check int) "a=5" 5 (Dsim.Metrics.count m "a");
  Alcotest.(check int) "missing=0" 0 (Dsim.Metrics.count m "nope")

let counters_listing_sorted () =
  let m = Dsim.Metrics.create () in
  Dsim.Metrics.incr m "z";
  Dsim.Metrics.incr m "a";
  Alcotest.(check (list (pair string int))) "sorted" [ ("a", 1); ("z", 1) ]
    (Dsim.Metrics.counters m)

let histogram_stats () =
  let m = Dsim.Metrics.create () in
  List.iter (Dsim.Metrics.observe m "lat") [ 1.0; 2.0; 3.0; 4.0; 100.0 ];
  Alcotest.(check int) "samples" 5 (Dsim.Metrics.samples m "lat");
  Alcotest.(check (float 0.001)) "mean" 22.0 (Dsim.Metrics.mean m "lat");
  Alcotest.(check (float 0.001)) "p50" 3.0 (Dsim.Metrics.percentile m "lat" 0.5);
  Alcotest.(check (float 0.001)) "p99" 100.0 (Dsim.Metrics.percentile m "lat" 0.99)

let empty_histogram_zero () =
  let m = Dsim.Metrics.create () in
  Alcotest.(check (float 0.0)) "mean" 0.0 (Dsim.Metrics.mean m "none");
  Alcotest.(check (float 0.0)) "p99" 0.0 (Dsim.Metrics.percentile m "none" 0.99)

let percentile_extremes () =
  let m = Dsim.Metrics.create () in
  List.iter (Dsim.Metrics.observe m "h") [ 5.0; 1.0; 3.0 ];
  Alcotest.(check (float 0.0)) "p=0 is the minimum" 1.0 (Dsim.Metrics.percentile m "h" 0.0);
  Alcotest.(check (float 0.0)) "p=1 is the maximum" 5.0 (Dsim.Metrics.percentile m "h" 1.0);
  (* Out-of-range probabilities clamp instead of raising. *)
  Alcotest.(check (float 0.0)) "p<0 clamps" 1.0 (Dsim.Metrics.percentile m "h" (-1.0));
  Alcotest.(check (float 0.0)) "p>1 clamps" 5.0 (Dsim.Metrics.percentile m "h" 2.0)

let observe_after_percentile_invalidates_cache () =
  let m = Dsim.Metrics.create () in
  List.iter (Dsim.Metrics.observe m "h") [ 1.0; 2.0; 3.0 ];
  Alcotest.(check (float 0.0)) "before" 3.0 (Dsim.Metrics.percentile m "h" 1.0);
  Dsim.Metrics.observe m "h" 10.0;
  Alcotest.(check (float 0.0)) "after" 10.0 (Dsim.Metrics.percentile m "h" 1.0);
  Alcotest.(check (float 0.001)) "mean tracks" 4.0 (Dsim.Metrics.mean m "h")

let histogram_growth () =
  let m = Dsim.Metrics.create () in
  for i = 1 to 10_000 do
    Dsim.Metrics.observe m "big" (float_of_int i)
  done;
  Alcotest.(check int) "all samples kept" 10_000 (Dsim.Metrics.samples m "big");
  Alcotest.(check (float 0.0)) "max" 10_000.0 (Dsim.Metrics.percentile m "big" 1.0);
  Alcotest.(check (float 0.001)) "mean" 5000.5 (Dsim.Metrics.mean m "big")

let gauges_set_and_add () =
  let m = Dsim.Metrics.create () in
  let depth = Dsim.Metrics.Gauge.resolve m "depth" in
  Dsim.Metrics.Gauge.set_int depth 4;
  Dsim.Metrics.Gauge.add depth (-1.0);
  Dsim.Metrics.Gauge.add (Dsim.Metrics.Gauge.resolve m "other") 2.5;
  Alcotest.(check (float 0.0)) "set+add" 3.0 (Dsim.Metrics.gauge m "depth");
  Alcotest.(check (float 0.0)) "missing=0" 0.0 (Dsim.Metrics.gauge m "nope");
  Alcotest.(check (list (pair string (float 0.0)))) "sorted listing"
    [ ("depth", 3.0); ("other", 2.5) ]
    (Dsim.Metrics.gauges m)

let series_chronological () =
  let m = Dsim.Metrics.create () in
  Dsim.Metrics.sample m "lag" ~time:100 1.0;
  Dsim.Metrics.sample m "lag" ~time:200 5.0;
  Dsim.Metrics.sample m "lag" ~time:300 2.0;
  Alcotest.(check (list (pair int (float 0.0)))) "in time order"
    [ (100, 1.0); (200, 5.0); (300, 2.0) ]
    (Dsim.Metrics.series m "lag");
  Alcotest.(check (list string)) "names" [ "lag" ] (Dsim.Metrics.series_names m)

let json_snapshot_parses () =
  let m = Dsim.Metrics.create () in
  Dsim.Metrics.incr m "commits";
  Dsim.Metrics.Gauge.set_int (Dsim.Metrics.Gauge.resolve m "lag.api-1") 7;
  List.iter (Dsim.Metrics.observe m "latency") [ 500.0; 1200.0 ];
  Dsim.Metrics.sample m "lag.api-1" ~time:100_000 7.0;
  match Dsim.Json.parse (Dsim.Json.to_string (Dsim.Metrics.to_json m)) with
  | Error msg -> Alcotest.failf "snapshot does not parse: %s" msg
  | Ok j ->
      (* A float that prints whole may parse back as an int. *)
      let float_of = function
        | Dsim.Json.Float f -> Some f
        | Dsim.Json.Int n -> Some (float_of_int n)
        | _ -> None
      in
      let section name =
        match Dsim.Json.member name j with
        | Some s -> s
        | None -> Alcotest.failf "snapshot lost %s" name
      in
      (match Dsim.Json.member "commits" (section "counters") with
      | Some v -> Alcotest.(check (option int)) "counter" (Some 1) (Dsim.Json.to_int v)
      | None -> Alcotest.fail "counter missing");
      (match Dsim.Json.member "lag.api-1" (section "gauges") with
      | Some v -> Alcotest.(check (option (float 0.0))) "gauge" (Some 7.0) (float_of v)
      | None -> Alcotest.fail "gauge missing");
      (match Dsim.Json.member "latency" (section "histograms") with
      | Some h -> (
          match Dsim.Json.member "count" h with
          | Some v -> Alcotest.(check (option int)) "histogram count" (Some 2) (Dsim.Json.to_int v)
          | None -> Alcotest.fail "histogram summary missing count")
      | None -> Alcotest.fail "histogram missing");
      match Dsim.Json.member "lag.api-1" (section "series") with
      | Some (Dsim.Json.List [ Dsim.Json.List [ t; v ] ]) ->
          Alcotest.(check (option int)) "series time" (Some 100_000) (Dsim.Json.to_int t);
          Alcotest.(check (option (float 0.0))) "series value" (Some 7.0) (float_of v)
      | _ -> Alcotest.fail "series missing or ill-shaped"

(* Writes through a resolved handle are field stores: averaged over 10k
   writes after a warm-up, no write allocates a block (at least two
   words). Series and histogram arrays grow by doubling; past the warm-up
   the growth lands in the major heap, outside this count. *)
let handle_writes_allocate_nothing () =
  let m = Dsim.Metrics.create () in
  let counter = Dsim.Metrics.Counter.resolve m "c" in
  let gauge = Dsim.Metrics.Gauge.resolve m "g" in
  let histogram = Dsim.Metrics.Histogram.resolve m "h" in
  let series = Dsim.Metrics.Series.resolve m "s" in
  let words_per_op f =
    let n = 10_000 in
    for i = 1 to n do
      f i
    done;
    let before = Gc.minor_words () in
    for i = 1 to n do
      f i
    done;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let check what f =
    let words = words_per_op f in
    Alcotest.(check bool) (Printf.sprintf "%s: %.2f words per write" what words) true (words < 1.0)
  in
  check "counter incr" (fun _ -> Dsim.Metrics.Counter.incr counter);
  check "gauge add" (fun _ -> Dsim.Metrics.Gauge.add gauge (-1.0));
  check "histogram observe" (fun _ -> Dsim.Metrics.Histogram.observe histogram 3.0);
  check "gauge set_int" (fun i -> Dsim.Metrics.Gauge.set_int gauge i);
  check "series sample_int" (fun i -> Dsim.Metrics.Series.sample_int series ~time:i i);
  Alcotest.(check int) "counter" 20_000 (Dsim.Metrics.count m "c");
  Alcotest.(check int) "samples" 20_000 (Dsim.Metrics.samples m "h");
  Alcotest.(check int) "series points" 20_000 (List.length (Dsim.Metrics.series m "s"));
  Alcotest.(check (float 0.0)) "set_int stores the value" 10_000.0
    (List.assoc "g" (Dsim.Metrics.gauges m))

let resolved_handles_register_on_first_write () =
  let m = Dsim.Metrics.create () in
  let counter = Dsim.Metrics.Counter.resolve m "c" in
  let gauge = Dsim.Metrics.Gauge.resolve m "g" in
  let _histogram = Dsim.Metrics.Histogram.resolve m "h" in
  let _series = Dsim.Metrics.Series.resolve m "s" in
  let empty = Dsim.Json.to_string (Dsim.Metrics.to_json (Dsim.Metrics.create ())) in
  Alcotest.(check string) "unwritten handles list nothing" empty
    (Dsim.Json.to_string (Dsim.Metrics.to_json m));
  Dsim.Metrics.Counter.incr counter;
  Dsim.Metrics.incr m "c";
  Dsim.Metrics.Gauge.add gauge 1.5;
  Alcotest.(check (list (pair string int))) "by name and by handle share a cell" [ ("c", 2) ]
    (Dsim.Metrics.counters m);
  Alcotest.(check (list (pair string (float 0.0)))) "gauge listed once written" [ ("g", 1.5) ]
    (Dsim.Metrics.gauges m);
  Alcotest.(check (list string)) "histogram still unlisted" [] (Dsim.Metrics.histograms m);
  Alcotest.(check (list string)) "series still unlisted" [] (Dsim.Metrics.series_names m)

let qcheck_percentile_is_member =
  QCheck.Test.make ~name:"percentile returns an observed sample" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_range 0.0 1000.0)) (float_range 0.01 1.0))
    (fun (samples, p) ->
      let m = Dsim.Metrics.create () in
      List.iter (Dsim.Metrics.observe m "h") samples;
      List.mem (Dsim.Metrics.percentile m "h" p) samples)

let suites =
  [
    ( "metrics",
      [
        Alcotest.test_case "counters accumulate" `Quick counters_accumulate;
        Alcotest.test_case "counters listing sorted" `Quick counters_listing_sorted;
        Alcotest.test_case "histogram stats" `Quick histogram_stats;
        Alcotest.test_case "empty histogram zero" `Quick empty_histogram_zero;
        Alcotest.test_case "percentile extremes" `Quick percentile_extremes;
        Alcotest.test_case "observe invalidates cache" `Quick
          observe_after_percentile_invalidates_cache;
        Alcotest.test_case "histogram growth" `Quick histogram_growth;
        Alcotest.test_case "gauges set and add" `Quick gauges_set_and_add;
        Alcotest.test_case "series chronological" `Quick series_chronological;
        Alcotest.test_case "json snapshot parses" `Quick json_snapshot_parses;
        Alcotest.test_case "handle writes allocate nothing" `Quick handle_writes_allocate_nothing;
        Alcotest.test_case "handles register on first write" `Quick
          resolved_handles_register_on_first_write;
        Qcheck_util.to_alcotest qcheck_percentile_is_member;
      ] );
  ]
