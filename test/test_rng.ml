(* Determinism and distribution sanity for the SplitMix64 generator. *)

let draw_n rng n f = List.init n (fun _ -> f rng)

let same_seed_same_stream () =
  let a = Dsim.Rng.create 7L and b = Dsim.Rng.create 7L in
  Alcotest.(check (list int64))
    "identical streams"
    (draw_n a 32 Dsim.Rng.int64)
    (draw_n b 32 Dsim.Rng.int64)

let different_seed_different_stream () =
  let a = Dsim.Rng.create 7L and b = Dsim.Rng.create 8L in
  Alcotest.(check bool)
    "streams differ" false
    (draw_n a 8 Dsim.Rng.int64 = draw_n b 8 Dsim.Rng.int64)

let copy_is_independent () =
  let a = Dsim.Rng.create 7L in
  let b = Dsim.Rng.copy a in
  let from_a = draw_n a 8 Dsim.Rng.int64 in
  let from_b = draw_n b 8 Dsim.Rng.int64 in
  Alcotest.(check (list int64)) "copy replays the same stream" from_a from_b

let split_diverges () =
  let a = Dsim.Rng.create 7L in
  let child = Dsim.Rng.split a in
  Alcotest.(check bool)
    "child stream differs from parent" false
    (draw_n a 8 Dsim.Rng.int64 = draw_n child 8 Dsim.Rng.int64)

let int_bound_zero_rejected () =
  let rng = Dsim.Rng.create 1L in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Dsim.Rng.int rng 0))

let pick_empty_rejected () =
  let rng = Dsim.Rng.create 1L in
  Alcotest.check_raises "empty array" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Dsim.Rng.pick rng [||]))

let chance_extremes () =
  let rng = Dsim.Rng.create 1L in
  Alcotest.(check bool) "p=0 never" false (Dsim.Rng.chance rng 0.0);
  Alcotest.(check bool) "p=1 always" true (Dsim.Rng.chance rng 1.0)

let shuffle_is_permutation () =
  let rng = Dsim.Rng.create 3L in
  let a = Array.init 50 (fun i -> i) in
  Dsim.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 50 (fun i -> i)) sorted

let exponential_mean () =
  let rng = Dsim.Rng.create 11L in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Dsim.Rng.exponential rng ~mean:5.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f within 5%% of 5.0" mean)
    true
    (abs_float (mean -. 5.0) < 0.25)

let qcheck_int_in_bounds =
  QCheck.Test.make ~name:"int stays in [0, bound)" ~count:500
    QCheck.(pair int64 (int_range 1 10_000))
    (fun (seed, bound) ->
      let rng = Dsim.Rng.create seed in
      let v = Dsim.Rng.int rng bound in
      v >= 0 && v < bound)

let qcheck_float_in_bounds =
  QCheck.Test.make ~name:"float stays in [0, bound)" ~count:500
    QCheck.(pair int64 (float_range 0.001 1000.0))
    (fun (seed, bound) ->
      let rng = Dsim.Rng.create seed in
      let v = Dsim.Rng.float rng bound in
      v >= 0.0 && v < bound)

let suites =
  [
    ( "rng",
      [
        Alcotest.test_case "same seed, same stream" `Quick same_seed_same_stream;
        Alcotest.test_case "different seed, different stream" `Quick
          different_seed_different_stream;
        Alcotest.test_case "copy is independent" `Quick copy_is_independent;
        Alcotest.test_case "split diverges" `Quick split_diverges;
        Alcotest.test_case "int bound 0 rejected" `Quick int_bound_zero_rejected;
        Alcotest.test_case "pick on empty rejected" `Quick pick_empty_rejected;
        Alcotest.test_case "chance extremes" `Quick chance_extremes;
        Alcotest.test_case "shuffle is a permutation" `Quick shuffle_is_permutation;
        Alcotest.test_case "exponential mean" `Slow exponential_mean;
        Qcheck_util.to_alcotest qcheck_int_in_bounds;
        Qcheck_util.to_alcotest qcheck_float_in_bounds;
      ] );
  ]
