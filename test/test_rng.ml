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

(* Stream pin: for each seed, one line per draw kind,
   "<seed> <kind> <values...>", every draw from one generator in the
   order listed, then 8 draws from a child split off after them. The
   fixture was recorded before the state went unboxed; regenerate by
   printing [pin_lines ()], one per line — only after an intended change
   of the generator. *)
let pin_lines () =
  let draws n f = String.concat " " (List.init n (fun _ -> f ())) in
  List.concat_map
    (fun seed ->
      let g = Dsim.Rng.create seed in
      let line kind values = Printf.sprintf "%Ld %s %s" seed kind values in
      let int64 g () = Int64.to_string (Dsim.Rng.int64 g) in
      let eight f = draws 8 (fun () -> f g) in
      let first = line "int64" (draws 32 (int64 g)) in
      let bounded =
        List.map
          (fun (name, bound) ->
            line ("int " ^ name) (eight (fun g -> string_of_int (Dsim.Rng.int g bound))))
          [ ("1", 1); ("7", 7); ("1500", 1500); ("max_int", max_int) ]
      in
      let floats = line "float 1.0" (eight (fun g -> Printf.sprintf "%h" (Dsim.Rng.float g 1.0))) in
      let bools = line "bool" (eight (fun g -> string_of_bool (Dsim.Rng.bool g))) in
      let chances = line "chance 0.3" (eight (fun g -> string_of_bool (Dsim.Rng.chance g 0.3))) in
      let child = Dsim.Rng.split g in
      let split = line "split int64" (draws 8 (int64 child)) in
      (first :: bounded) @ [ floats; bools; chances; split ])
    [ 0L; 1L; 7L; 42L; -1L ]

let streams_match_pins () =
  let expected = Fixture.read_lines (Filename.concat "fixtures" "rng.pins") in
  let actual = pin_lines () in
  Alcotest.(check int) "5 seeds x 9 draw kinds" 45 (List.length expected);
  List.iter2 (fun e a -> Alcotest.(check string) "pinned stream" e a) expected actual

(* Minor words per draw over 10k draws, after one warm-up: a heap block
   is at least two words, so below one word means no boxing. *)
let words_per_draw draw =
  let rng = Dsim.Rng.create 5L in
  let n = 10_000 in
  draw rng;
  let before = Gc.minor_words () in
  for _ = 1 to n do
    draw rng
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let draws_allocate_nothing () =
  List.iter
    (fun (name, draw) ->
      let words = words_per_draw draw in
      Alcotest.(check bool) (Printf.sprintf "%.2f words per %s draw" words name) true (words < 1.0))
    [
      ("int", fun rng -> ignore (Dsim.Rng.int rng 1500));
      ("bool", fun rng -> ignore (Dsim.Rng.bool rng));
    ]

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
        Alcotest.test_case "streams match pins" `Quick streams_match_pins;
        Alcotest.test_case "int and bool allocate nothing" `Quick draws_allocate_nothing;
      ] );
  ]
