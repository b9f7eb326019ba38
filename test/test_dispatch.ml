(* The shared watcher index behind every delivery tier: trie-routed
   fan-out equals the naive matches_prefix filter, iteration survives
   reentrant mutation, and order keys pin delivery order. *)

module Dispatch = History.Dispatch

let event key = History.Event.make ~rev:1 ~key ~op:History.Event.Create (Some "v")

let naive_matching watchers key =
  List.filter_map
    (fun (id, prefix) -> if History.Event.matches_prefix prefix (event key) then Some id else None)
    watchers

(* Prefixes chosen to overlap aggressively: nested ("p" < "po" <
   "pods/"), empty-string, and match-all. *)
let prefix_gen =
  QCheck.Gen.oneofl
    [ None; Some ""; Some "p"; Some "po"; Some "pods/"; Some "pods/a"; Some "n"; Some "nodes/" ]

let key_gen =
  QCheck.Gen.oneofl
    [ ""; "p"; "po"; "pods/a"; "pods/abc"; "pods/b"; "n"; "nodes/x"; "x"; "pod" ]

let scenario_gen =
  QCheck.Gen.(
    pair (list_size (int_range 0 24) (pair prefix_gen bool)) (list_size (int_range 1 8) key_gen))

let scenario_print (adds, keys) =
  let p = function None -> "*" | Some s -> "\"" ^ s ^ "\"" in
  Printf.sprintf "adds=[%s] keys=[%s]"
    (String.concat "; " (List.map (fun (pre, rm) -> p pre ^ (if rm then "-" else "")) adds))
    (String.concat "; " keys)

(* Register every watcher, remove the flagged ones, and check that for
   every key the indexed answer equals the naive filter — same ids, same
   (registration) order. *)
let equivalence_property (adds, keys) =
  let t = Dispatch.create () in
  let watchers = ref [] in
  let removed = ref [] in
  List.iter
    (fun (prefix, rm) ->
      let id = Dispatch.add t ?prefix prefix in
      watchers := !watchers @ [ (id, prefix) ];
      if rm then removed := id :: !removed)
    adds;
  List.iter (fun id -> ignore (Dispatch.remove t id)) !removed;
  let live = List.filter (fun (id, _) -> not (List.mem id !removed)) !watchers in
  List.for_all
    (fun key ->
      let indexed = ref [] in
      Dispatch.iter_matching t ~key (fun id _ -> indexed := id :: !indexed);
      let indexed = List.rev !indexed in
      let expected = naive_matching live key in
      indexed = expected && Dispatch.matching t ~key = List.map (fun id -> List.assoc id live) expected)
    keys

let equivalence =
  Qcheck_util.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"indexed fan-out = naive matches_prefix filter"
       (QCheck.make ~print:scenario_print scenario_gen)
       equivalence_property)

let cancel_peer_mid_iteration () =
  let t = Dispatch.create () in
  let hits = ref [] in
  let second = ref 0 in
  let first =
    Dispatch.add t
      ~prefix:"pods/"
      (fun () ->
        hits := `First :: !hits;
        ignore (Dispatch.remove t !second))
  in
  second := Dispatch.add t ~prefix:"pods/" (fun () -> hits := `Second :: !hits);
  ignore first;
  Dispatch.iter_matching t ~key:"pods/a" (fun _ f -> f ());
  Alcotest.(check int) "peer cancelled mid-event" 1 (List.length !hits);
  Dispatch.iter_matching t ~key:"pods/a" (fun _ f -> f ());
  Alcotest.(check int) "peer stays cancelled" 2 (List.length !hits);
  Alcotest.(check int) "one live watcher" 1 (Dispatch.size t)

let cancel_self_mid_iteration () =
  let t = Dispatch.create () in
  let count = ref 0 in
  let self = ref 0 in
  self :=
    Dispatch.add t ~prefix:"a"
      (fun () ->
        incr count;
        ignore (Dispatch.remove t !self));
  let other = Dispatch.add t ~prefix:"a" (fun () -> incr count) in
  ignore other;
  Dispatch.iter_matching t ~key:"ab" (fun _ f -> f ());
  Dispatch.iter_matching t ~key:"ab" (fun _ f -> f ());
  Alcotest.(check int) "self delivered once, peer twice" 3 !count;
  Alcotest.(check int) "one live watcher left" 1 (Dispatch.size t)

let add_mid_iteration_not_visited () =
  let t = Dispatch.create () in
  let late_hits = ref 0 in
  let adder_fired = ref 0 in
  ignore
    (Dispatch.add t ~prefix:"k"
       (fun () ->
         incr adder_fired;
         if !adder_fired = 1 then
           ignore (Dispatch.add t ~prefix:"k" (fun () -> incr late_hits))));
  Dispatch.iter_matching t ~key:"k1" (fun _ f -> f ());
  Alcotest.(check int) "addition invisible to in-flight event" 0 !late_hits;
  Dispatch.iter_matching t ~key:"k1" (fun _ f -> f ());
  Alcotest.(check int) "addition visible to the next event" 1 !late_hits

let set_order_reorders_delivery () =
  let t = Dispatch.create () in
  let seen = ref [] in
  let a = Dispatch.add t "a" in
  let b = Dispatch.add t "b" in
  let c = Dispatch.add t "c" in
  Dispatch.iter_matching t ~key:"anything" (fun _ v -> seen := v :: !seen);
  Alcotest.(check (list string)) "registration order" [ "a"; "b"; "c" ] (List.rev !seen);
  Dispatch.set_order t a ~order:10;
  Dispatch.set_order t b ~order:2;
  Dispatch.set_order t c ~order:1;
  seen := [];
  Dispatch.iter_matching t ~key:"anything" (fun _ v -> seen := v :: !seen);
  Alcotest.(check (list string)) "pinned order" [ "c"; "b"; "a" ] (List.rev !seen)

(* Broadcast walks a cached ordered snapshot: each mutation between two
   broadcasts must show in the next one, and mutations made inside a
   broadcast follow the same snapshot rules as a keyed fan-out. *)
let iter_all_tracks_every_mutation () =
  let t = Dispatch.create () in
  let all () =
    let seen = ref [] in
    Dispatch.iter_all t (fun _ v -> seen := v :: !seen);
    List.rev !seen
  in
  let a = Dispatch.add t ~prefix:"x" "a" in
  let b = Dispatch.add t "b" in
  let c = Dispatch.add t ~prefix:"y" "c" in
  Alcotest.(check (list string)) "registration order" [ "a"; "b"; "c" ] (all ());
  Alcotest.(check (list string)) "cached, unchanged" [ "a"; "b"; "c" ] (all ());
  Dispatch.set_order t c ~order:0;
  Alcotest.(check (list string)) "after set_order" [ "c"; "a"; "b" ] (all ());
  ignore (Dispatch.remove t a);
  Alcotest.(check (list string)) "after remove" [ "c"; "b" ] (all ());
  let d = Dispatch.add t "d" in
  Alcotest.(check (list string)) "after add" [ "c"; "b"; "d" ] (all ());
  let seen = ref [] in
  Dispatch.iter_all t (fun id v ->
      seen := v :: !seen;
      if id = c then begin
        ignore (Dispatch.remove t d);
        ignore (Dispatch.add t "late")
      end);
  Alcotest.(check (list string)) "removal honoured, addition skipped" [ "c"; "b" ]
    (List.rev !seen);
  Alcotest.(check (list string)) "addition visible next time" [ "c"; "b"; "late" ] (all ());
  Dispatch.clear t;
  Alcotest.(check (list string)) "after clear" [] (all ());
  ignore b

let suites =
  [
    ( "dispatch",
      [
        equivalence;
        Alcotest.test_case "cancel peer mid-iteration" `Quick cancel_peer_mid_iteration;
        Alcotest.test_case "cancel self mid-iteration" `Quick cancel_self_mid_iteration;
        Alcotest.test_case "add mid-iteration not visited" `Quick add_mid_iteration_not_visited;
        Alcotest.test_case "set_order reorders delivery" `Quick set_order_reorders_delivery;
        Alcotest.test_case "iter_all tracks every mutation" `Quick iter_all_tracks_every_mutation;
      ] );
  ]
