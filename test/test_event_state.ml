(* Events and materialized state, including the Figure 3c cancellation
   property of State.diff. *)

open History

let ev rev key op value = Event.make ~rev ~key ~op value

let apply_events events = List.fold_left State.apply State.empty events

let create_then_find () =
  let s = apply_events [ ev 1 "k" Event.Create (Some "v1") ] in
  Alcotest.(check (option (pair string int))) "value and rev" (Some ("v1", 1)) (State.find s "k");
  Alcotest.(check int) "state rev" 1 (State.rev s)

let update_replaces () =
  let s = apply_events [ ev 1 "k" Event.Create (Some "a"); ev 2 "k" Event.Update (Some "b") ] in
  Alcotest.(check (option string)) "updated" (Some "b") (State.get s "k");
  Alcotest.(check int) "rev advanced" 2 (State.rev s)

let delete_removes () =
  let s = apply_events [ ev 1 "k" Event.Create (Some "a"); ev 2 "k" Event.Delete None ] in
  Alcotest.(check bool) "gone" false (State.mem s "k");
  Alcotest.(check int) "rev still advances" 2 (State.rev s)

let delete_absent_tolerated () =
  let s = apply_events [ ev 1 "k" Event.Delete None ] in
  Alcotest.(check int) "cardinal" 0 (State.cardinal s)

let prefix_query () =
  let s =
    apply_events
      [
        ev 1 "pods/a" Event.Create (Some "1");
        ev 2 "nodes/x" Event.Create (Some "2");
        ev 3 "pods/b" Event.Create (Some "3");
      ]
  in
  Alcotest.(check (list string)) "pods only" [ "pods/a"; "pods/b" ]
    (List.map fst (State.bindings_with_prefix s ~prefix:"pods/"))

let bindings_with_prefix_single_scan () =
  let s =
    apply_events
      [
        ev 1 "pods/a" Event.Create (Some "1");
        ev 2 "nodes/x" Event.Create (Some "2");
        ev 3 "pods/b" Event.Create (Some "3");
        ev 4 "pods/b" Event.Update (Some "3b");
        ev 5 "pods0" Event.Create (Some "past the prefix run");
      ]
  in
  Alcotest.(check (list (pair string (pair string int))))
    "keys, values and mod-revs in one scan"
    [ ("pods/a", ("1", 1)); ("pods/b", ("3b", 4)) ]
    (State.bindings_with_prefix s ~prefix:"pods/");
  Alcotest.(check (list (pair string (pair string int))))
    "empty prefix is all bindings" (State.bindings s)
    (State.bindings_with_prefix s ~prefix:"")

let qcheck_bindings_with_prefix_agrees =
  (* The range scan cut at the first non-prefix key must agree with the
     naive full-keyspace filter for arbitrary key populations. *)
  let key_gen = QCheck.Gen.(map (fun (a, b) -> a ^ b) (pair (oneofl [ "pods/"; "pods"; "nodes/"; "p"; "" ]) (string_size ~gen:(char_range 'a' 'e') (0 -- 3)))) in
  QCheck.Test.make ~name:"bindings_with_prefix = naive filter" ~count:300
    QCheck.(pair (list_of_size Gen.(0 -- 40) (make ~print:Fun.id key_gen)) (oneofl [ ""; "p"; "pods/"; "pods/a"; "nodes/"; "zz" ]))
    (fun (keys, prefix) ->
      let s =
        List.fold_left
          (fun (s, rev) key -> (State.apply s (ev rev key Event.Create (Some key)), rev + 1))
          (State.empty, 1) keys
        |> fst
      in
      let naive =
        List.filter (fun (key, _) -> String.starts_with ~prefix key) (State.bindings s)
      in
      State.bindings_with_prefix s ~prefix = naive)

(* The walk visits exactly the bindings [bindings_with_prefix] lists —
   key, value and mod-revision, in the same order — for the empty
   prefix, a whole key, a prefix between two keys and one past every
   key. *)
let qcheck_iter_prefix_agrees =
  let key_gen =
    QCheck.Gen.(
      map
        (fun (a, b) -> a ^ b)
        (pair (oneofl [ "pods/"; "pods"; "nodes/"; "p"; "" ]) (string_size ~gen:(char_range 'a' 'e') (0 -- 3))))
  in
  let case_gen =
    QCheck.Gen.(
      list_size (0 -- 40) key_gen >>= fun keys ->
      let sorted = List.sort_uniq String.compare keys in
      let between =
        (* a string above one key and below the next, matching none *)
        match sorted with
        | [] -> return "m"
        | _ ->
            map
              (fun i ->
                let k = List.nth sorted (i mod List.length sorted) in
                k ^ "\000")
              nat
      in
      let whole = match sorted with [] -> return "" | _ -> oneofl sorted in
      map (fun prefix -> (keys, prefix)) (oneof [ return ""; whole; between; return "zz" ]))
  in
  QCheck.Test.make ~name:"iter_prefix visits bindings_with_prefix in order" ~count:300
    (QCheck.make
       ~print:(fun (keys, prefix) -> Printf.sprintf "prefix %S over [%s]" prefix (String.concat "; " keys))
       case_gen)
    (fun (keys, prefix) ->
      let s =
        List.fold_left
          (fun (s, rev) key -> (State.apply s (ev rev key Event.Create (Some key)), rev + 1))
          (State.empty, 1) keys
        |> fst
      in
      let walked = ref [] in
      State.iter_prefix s ~prefix (fun key v mod_rev -> walked := (key, (v, mod_rev)) :: !walked);
      List.rev !walked = State.bindings_with_prefix s ~prefix)

let walked = ref 0

let count_binding _ _ _ = incr walked

(* The walk allocates nothing per binding: over a 1,000-binding store it
   allocates exactly what it does over one binding (the prefix filter it
   hands to the ordered map, one closure per walk). *)
let iter_prefix_allocates_nothing_per_binding () =
  let store n =
    List.fold_left
      (fun s i -> State.apply s (ev (i + 1) (Printf.sprintf "pods/p%04d" i) Event.Create (Some i)))
      State.empty (List.init n Fun.id)
  in
  let words s =
    State.iter_prefix s ~prefix:"pods/" count_binding;
    let before = Gc.minor_words () in
    State.iter_prefix s ~prefix:"pods/" count_binding;
    Gc.minor_words () -. before
  in
  let one = store 1 and thousand = store 1_000 in
  walked := 0;
  let w1 = words one and w1000 = words thousand in
  Alcotest.(check int) "bindings visited" 2_002 !walked;
  Alcotest.(check (float 0.)) "words walking 1,000 bindings = words walking one" w1 w1000;
  Alcotest.(check bool) (Printf.sprintf "%.0f words per walk, at most one closure" w1) true (w1 <= 8.)

let bindings_sorted () =
  let s = apply_events [ ev 1 "b" Event.Create (Some "2"); ev 2 "a" Event.Create (Some "1") ] in
  Alcotest.(check (list string)) "sorted keys" [ "a"; "b" ] (State.keys s)

let diff_classifies () =
  let before =
    apply_events [ ev 1 "same" Event.Create (Some "x"); ev 2 "gone" Event.Create (Some "y") ]
  in
  let after =
    apply_events
      [
        ev 1 "same" Event.Create (Some "x");
        ev 3 "new" Event.Create (Some "z");
        ev 4 "same2" Event.Create (Some "w");
      ]
  in
  let after = State.apply after (ev 5 "same2" Event.Update (Some "w2")) in
  let d = State.diff before after in
  Alcotest.(check bool) "gone removed" true (List.mem ("gone", `Removed) d);
  Alcotest.(check bool) "new added" true (List.mem ("new", `Added) d);
  Alcotest.(check bool) "same absent" false (List.mem_assoc "same" d)

let diff_hides_cancelled_event () =
  (* e1 (create) is cancelled by e2 (delete) between two observations:
     the sparse reader's diff is empty — Figure 3c. *)
  let before = State.empty in
  let after =
    apply_events [ ev 1 "ghost" Event.Create (Some "v"); ev 2 "ghost" Event.Delete None ]
  in
  Alcotest.(check int) "no observable change" 0 (List.length (State.diff before after))

let pp_op_strings () =
  Alcotest.(check string) "create" "create" (Event.op_to_string Event.Create);
  Alcotest.(check string) "update" "update" (Event.op_to_string Event.Update);
  Alcotest.(check string) "delete" "delete" (Event.op_to_string Event.Delete);
  Alcotest.(check string) "describe" "@3 delete k" (Event.describe (ev 3 "k" Event.Delete None))

let qcheck_apply_monotone_rev =
  QCheck.Test.make ~name:"state rev is max applied rev" ~count:200
    QCheck.(list_of_size Gen.(0 -- 50) (pair (int_range 1 100) (int_range 0 2)))
    (fun specs ->
      let events =
        List.map
          (fun (rev, op) ->
            let op =
              match op with 0 -> Event.Create | 1 -> Event.Update | _ -> Event.Delete
            in
            ev rev (Printf.sprintf "k%d" (rev mod 5)) op
              (if op = Event.Delete then None else Some "v"))
          specs
      in
      let s = apply_events events in
      State.rev s = List.fold_left (fun acc (e : string Event.t) -> max acc e.Event.rev) 0 events)

let suites =
  [
    ( "event/state",
      [
        Alcotest.test_case "create then find" `Quick create_then_find;
        Alcotest.test_case "update replaces" `Quick update_replaces;
        Alcotest.test_case "delete removes" `Quick delete_removes;
        Alcotest.test_case "delete absent tolerated" `Quick delete_absent_tolerated;
        Alcotest.test_case "prefix query" `Quick prefix_query;
        Alcotest.test_case "bindings_with_prefix single scan" `Quick
          bindings_with_prefix_single_scan;
        Alcotest.test_case "bindings sorted" `Quick bindings_sorted;
        Alcotest.test_case "diff classifies" `Quick diff_classifies;
        Alcotest.test_case "diff hides cancelled event (Fig 3c)" `Quick diff_hides_cancelled_event;
        Alcotest.test_case "op rendering" `Quick pp_op_strings;
        Qcheck_util.to_alcotest qcheck_apply_monotone_rev;
        Qcheck_util.to_alcotest qcheck_bindings_with_prefix_agrees;
        Qcheck_util.to_alcotest qcheck_iter_prefix_agrees;
        Alcotest.test_case "iter_prefix allocates nothing per binding" `Quick
          iter_prefix_allocates_nothing_per_binding;
      ] );
  ]
