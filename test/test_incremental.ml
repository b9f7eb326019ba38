(* The incremental judges against their definitions: the monitor's
   incremental state check replays the full check it replaced, the
   monitor's stream verdicts equal [History.Partial]'s subsequence
   definitions, and the prefix filter allocates nothing. *)

module M = Conformance.Monitor

(* --- reference: the full state check ------------------------------- *)

(* The state check as a full recompute: authenticity over every binding,
   then strict list equality. Keeps its own mirror of the committed
   history and its own violation ledger, deduplicated as the monitor's. *)
module Reference = struct
  type t = {
    mutable events : string History.Event.t array;  (* events.(r-1) committed at r *)
    mutable states : string History.State.t array;  (* states.(r-1): S after r *)
    mutable n_revs : int;
    mutable strict : bool;
    seen : (M.code * string, unit) Hashtbl.t;
    mutable violations : M.violation list;  (* newest first *)
    mutable total : int;
  }

  let create () =
    {
      events = [||];
      states = [||];
      n_revs = 0;
      strict = true;
      seen = Hashtbl.create 16;
      violations = [];
      total = 0;
    }

  let note_commit t (e : string History.Event.t) =
    let state =
      History.State.apply (if t.n_revs = 0 then History.State.empty else t.states.(t.n_revs - 1)) e
    in
    t.events <- Array.append t.events [| e |];
    t.states <- Array.append t.states [| state |];
    t.n_revs <- t.n_revs + 1

  let relax t = t.strict <- false

  let violations t = List.rev t.violations

  let report t ~code ~subject ~rev detail =
    t.total <- t.total + 1;
    if not (Hashtbl.mem t.seen (code, subject)) then begin
      Hashtbl.add t.seen (code, subject) ();
      t.violations <- { M.code; subject; rev; detail } :: t.violations
    end

  let event_at t rev = t.events.(rev - 1)

  let state_at t rev = if rev <= 0 then History.State.empty else t.states.(rev - 1)

  let bindings_under prefix state =
    match prefix with
    | None -> History.State.bindings state
    | Some prefix -> History.State.bindings_with_prefix state ~prefix

  let check_bindings t ~subject ?prefix ~rev state =
    List.iter
      (fun (key, (value, mod_rev)) ->
        if mod_rev > rev then
          report t ~code:M.Future_rev ~subject ~rev
            (Printf.sprintf "binding %s carries mod-revision %d beyond the claimed revision %d"
               key mod_rev rev)
        else if mod_rev > t.n_revs then
          report t ~code:M.Future_rev ~subject ~rev
            (Printf.sprintf "binding %s carries mod-revision %d beyond the committed %d" key
               mod_rev t.n_revs)
        else if mod_rev < 1 then
          report t ~code:M.State_divergence ~subject ~rev
            (Printf.sprintf "binding %s carries impossible mod-revision %d" key mod_rev)
        else
          let e = event_at t mod_rev in
          if
            (not (String.equal e.History.Event.key key))
            || e.History.Event.op = History.Event.Delete
            || e.History.Event.value <> Some value
          then
            report t ~code:M.State_divergence ~subject ~rev
              (Printf.sprintf "binding %s@%d does not match committed %s" key mod_rev
                 (History.Event.describe e)))
      (bindings_under prefix state)

  let check_state t ~subject ?prefix ~rev state =
    if rev > t.n_revs then
      report t ~code:M.Future_rev ~subject ~rev
        (Printf.sprintf "cache claims revision %d; store has only committed %d" rev t.n_revs)
    else begin
      check_bindings t ~subject ?prefix ~rev state;
      if t.strict then begin
        let expected = bindings_under prefix (state_at t rev) in
        let actual = bindings_under prefix state in
        if expected <> actual then begin
          let missing =
            List.filter (fun (k, _) -> not (List.mem_assoc k actual)) expected |> List.length
          and extra =
            List.filter (fun (k, _) -> not (List.mem_assoc k expected)) actual |> List.length
          in
          report t ~code:M.State_divergence ~subject ~rev
            (Printf.sprintf
               "cache at claimed revision %d differs from the committed state (%d bindings vs \
                %d expected; %d missing, %d extra)"
               rev (List.length actual) (List.length expected) missing extra)
        end
      end
    end
end

(* --- the incremental check replays the full one -------------------- *)

let keys = [| "a/0"; "a/1"; "a/2"; "b/0"; "b/1"; "b/2" |]

(* Two caches over one committed history: one under a prefix, one over
   the whole keyspace. *)
let subjects = [| ("a-cache", Some "a/"); ("all-cache", None) |]

type step =
  | Commit of int * int  (* key, value *)
  | Apply of int  (* subject: apply the next committed event, claim its revision *)
  | Skip of int  (* subject: claim the next revision without applying it *)
  | Forge of int * int * int  (* subject, key, mod-revision offset *)
  | Unbind of int * int  (* subject, key: drop a binding *)
  | Rollback of int * int  (* subject, revisions back: adopt an older committed state *)
  | Reset of int * (int * int) list * int  (* subject, (key, mod-revision) list, claim *)
  | Relax
  | Check of int  (* subject *)

let describe_step = function
  | Commit (k, v) -> Printf.sprintf "commit %s=%d" keys.(k) v
  | Apply s -> Printf.sprintf "apply %d" s
  | Skip s -> Printf.sprintf "skip %d" s
  | Forge (s, k, d) -> Printf.sprintf "forge %d %s %+d" s keys.(k) d
  | Unbind (s, k) -> Printf.sprintf "unbind %d %s" s keys.(k)
  | Rollback (s, n) -> Printf.sprintf "rollback %d by %d" s n
  | Reset (s, bs, claim) ->
      Printf.sprintf "reset %d to [%s] @%d" s
        (String.concat "; " (List.map (fun (k, r) -> Printf.sprintf "%s@%d" keys.(k) r) bs))
        claim
  | Relax -> "relax"
  | Check s -> Printf.sprintf "check %d" s

let gen_step =
  let open QCheck.Gen in
  let subject = int_bound 1 and key = int_bound (Array.length keys - 1) in
  frequency
    [
      (6, map2 (fun k v -> Commit (k, v)) key (int_bound 3));
      (5, map (fun s -> Apply s) subject);
      (2, map (fun s -> Skip s) subject);
      (2, map3 (fun s k d -> Forge (s, k, d)) subject key (int_range (-3) 3));
      (1, map2 (fun s k -> Unbind (s, k)) subject key);
      (1, map2 (fun s n -> Rollback (s, n)) subject (int_bound 4));
      ( 1,
        map3
          (fun s bs claim -> Reset (s, bs, claim))
          subject
          (list_size (int_bound 4) (pair key (int_range 0 12)))
          (int_range 0 12) );
      (1, return Relax);
      (6, map (fun s -> Check s) subject);
    ]

let arb_program =
  QCheck.make
    ~print:(fun steps -> String.concat "\n" (List.map describe_step steps))
    QCheck.Gen.(list_size (int_range 1 60) gen_step)

type cache = { mutable state : string History.State.t; mutable claim : int }

let run_program steps =
  let monitor = M.create () and reference = Reference.create () in
  let committed = ref [||] (* events, oldest first *) and truth = ref History.State.empty in
  let n () = Array.length !committed in
  let caches = Array.map (fun _ -> { state = History.State.empty; claim = 0 }) subjects in
  let commit e =
    committed := Array.append !committed [| e |];
    truth := History.State.apply !truth e;
    M.note_commit monitor e;
    Reference.note_commit reference e
  in
  let state_at r =
    Array.fold_left
      (fun s (e : string History.Event.t) ->
        if e.History.Event.rev <= r then History.State.apply s e else s)
      History.State.empty !committed
  in
  let set_binding c ~subject key binding =
    let rev = match binding with Some (_, r) -> r | None -> 0 in
    let e =
      match binding with
      | Some (v, _) -> History.Event.make ~rev ~key ~op:History.Event.Update (Some v)
      | None -> History.Event.make ~rev ~key ~op:History.Event.Delete None
    in
    c.state <- History.State.apply c.state e;
    M.touch monitor ~subject key
  in
  List.iteri
    (fun i step ->
      (match step with
      | Commit (k, v) ->
          let key = keys.(k) in
          let rev = n () + 1 in
          commit
            (if v = 0 && History.State.mem !truth key then
               History.Event.make ~rev ~key ~op:History.Event.Delete None
             else
               History.Event.make ~rev ~key
                 ~op:
                   (if History.State.mem !truth key then History.Event.Update
                    else History.Event.Create)
                 (Some (string_of_int v)))
      | Apply s ->
          let c = caches.(s) and subject = fst subjects.(s) in
          if c.claim < n () then begin
            let e = !committed.(c.claim) in
            c.state <- History.State.apply c.state e;
            c.claim <- e.History.Event.rev;
            M.touch monitor ~subject e.History.Event.key
          end
      | Skip s ->
          let c = caches.(s) in
          c.claim <- c.claim + 1
      | Forge (s, k, d) ->
          let c = caches.(s) and subject = fst subjects.(s) in
          set_binding c ~subject keys.(k) (Some ("forged", max 0 (c.claim + d)))
      | Unbind (s, k) ->
          let c = caches.(s) and subject = fst subjects.(s) in
          set_binding c ~subject keys.(k) None
      | Rollback (s, back) ->
          let c = caches.(s) and subject = fst subjects.(s) in
          c.claim <- max 0 (min c.claim (n ()) - back);
          c.state <- state_at c.claim;
          M.touch_all monitor ~subject
      | Reset (s, bindings, claim) ->
          let c = caches.(s) and subject = fst subjects.(s) in
          c.state <-
            List.fold_left
              (fun state (k, r) ->
                let value =
                  if r >= 1 && r <= n () then
                    Option.value !committed.(r - 1).History.Event.value ~default:"gone"
                  else "stray"
                in
                History.State.apply state
                  (History.Event.make ~rev:r ~key:keys.(k) ~op:History.Event.Update (Some value)))
              History.State.empty bindings;
          c.claim <- claim;
          M.touch_all monitor ~subject
      | Relax ->
          M.relax monitor;
          Reference.relax reference
      | Check s ->
          let c = caches.(s) and subject, prefix = subjects.(s) in
          M.check_state monitor ~subject ?prefix ~rev:c.claim c.state;
          Reference.check_state reference ~subject ?prefix ~rev:c.claim c.state);
      match step with
      | Check _ ->
          if M.violations monitor <> Reference.violations reference then
            QCheck.Test.fail_reportf "step %d: violations differ:\n  incremental: %s\n  full: %s" i
              (String.concat "; " (List.map M.describe (M.violations monitor)))
              (String.concat "; " (List.map M.describe (Reference.violations reference)));
          if M.total monitor <> reference.Reference.total then
            QCheck.Test.fail_reportf "step %d: total %d, full check counts %d" i (M.total monitor)
              reference.Reference.total;
          if M.strict monitor <> reference.Reference.strict then
            QCheck.Test.fail_reportf "step %d: strict mode differs" i
      | _ -> ())
    steps;
  true

let qcheck_incremental_replays_full =
  QCheck.Test.make ~count:400 ~name:"incremental state check replays the full check" arb_program
    run_program

(* Programs that exercise each dirty-key source, so the property cannot
   pass by never reaching one. *)
let sources_are_exercised () =
  let program =
    [
      Commit (0, 1); Commit (3, 1); Apply 0; Apply 0; Apply 1; Apply 1; Check 0; Check 1;
      (* (a) a tapped key: a forged binding, judged bad at two checks *)
      Forge (0, 0, -1); Check 0; Check 0;
      (* (b) a committed event between the claimed revisions, skipped *)
      Commit (1, 2); Skip 0; Check 0; Commit (4, 2); Skip 1; Check 1;
      Rollback (1, 1); Check 1; Relax; Unbind (1, 3); Check 1;
    ]
  in
  Alcotest.(check bool) "program replays" true (run_program program)

(* --- one definition of H' ⊑ H -------------------------------------- *)

type history_case = {
  events : string History.Event.t list;  (* the committed history, dense *)
  prefix : string option;
  stream : string History.Event.t list;  (* what the stream delivers, in order *)
}

let print_case c =
  Printf.sprintf "history [%s]\nprefix %s\nstream [%s]"
    (String.concat "; " (List.map History.Event.describe c.events))
    (Option.value c.prefix ~default:"-")
    (String.concat "; " (List.map History.Event.describe c.stream))

(* A committed history over two prefixes, then a stream drawn from the
   events matching one prefix: each kept, dropped or duplicated, with
   some neighbours swapped and some events from past the committed
   frontier mixed in. *)
let gen_case =
  let open QCheck.Gen in
  let* n = int_range 1 24 in
  let* picks = list_repeat n (pair (int_bound 1) (int_bound 2)) in
  let events =
    List.mapi
      (fun i (p, k) ->
        History.Event.make ~rev:(i + 1)
          ~key:(Printf.sprintf "%s/%d" (if p = 0 then "a" else "b") k)
          ~op:History.Event.Update (Some (string_of_int i)))
      picks
  in
  let* prefix = oneofl [ Some "a/"; Some "b/"; None ] in
  let matching = List.filter (History.Event.matches_prefix prefix) events in
  let* fates = list_repeat (List.length matching) (int_bound 9) in
  let kept =
    List.concat
      (List.map2
         (fun e fate -> if fate = 0 then [] else if fate = 1 then [ e; e ] else [ e ])
         matching fates)
  in
  let* swaps = list_repeat (List.length kept) (int_bound 7) in
  let rec swap es sw =
    match es, sw with
    | a :: b :: rest, 0 :: _ :: sw' -> b :: a :: swap rest sw'
    | a :: rest, _ :: sw' -> a :: swap rest sw'
    | es, _ -> es
  in
  let* future = list_size (int_bound 2) (int_range 1 3) in
  let* at = int_bound (List.length kept) in
  let future =
    List.map
      (fun d ->
        History.Event.make ~rev:(n + d)
          ~key:(Option.value prefix ~default:"a/" ^ "9")
          ~op:History.Event.Create (Some "future"))
      future
  in
  let stream = swap kept swaps in
  let stream =
    List.filteri (fun i _ -> i < at) stream @ future @ List.filteri (fun i _ -> i >= at) stream
  in
  return { events; prefix; stream }

let arb_case = QCheck.make ~print:print_case gen_case

let observe ~strict c =
  let m = M.create () in
  List.iter (M.note_commit m) c.events;
  if not strict then M.relax m;
  List.iter (M.observe_event m ~stream:"s@1" ?prefix:c.prefix) c.stream;
  let codes = List.map (fun (v : M.violation) -> v.M.code) (M.violations m) in
  (m, codes)

(* The deliveries the monitor accepts: each one above every revision
   delivered before it. *)
let accepted stream =
  let _, kept =
    List.fold_left
      (fun (frontier, kept) (e : string History.Event.t) ->
        if e.History.Event.rev > frontier then (e.History.Event.rev, e :: kept)
        else (frontier, kept))
      (0, []) stream
  in
  List.rev kept

let qcheck_subsequence_definition =
  QCheck.Test.make ~count:600 ~name:"monitor verdicts = History.Partial on random streams" arb_case
    (fun c ->
      let matching = List.filter (History.Event.matches_prefix c.prefix) c.events in
      let relaxed, relaxed_codes = observe ~strict:false c in
      let partial = History.Partial.is_partial_of c.stream ~of_:matching in
      let flagged = List.mem M.Non_monotone relaxed_codes || List.mem M.Future_rev relaxed_codes in
      if partial = flagged then
        QCheck.Test.fail_reportf "is_partial_of %b, but the relaxed monitor reports [%s]" partial
          (String.concat "; " (List.map M.code_to_string relaxed_codes));
      let _, strict_codes = observe ~strict:true c in
      let gaps = History.Partial.interior_gaps (accepted c.stream) ~of_:matching in
      if List.mem M.Gap strict_codes <> (gaps <> []) then
        QCheck.Test.fail_reportf "interior gaps [%s], strict monitor reports [%s]"
          (String.concat "; " (List.map string_of_int gaps))
          (String.concat "; " (List.map M.code_to_string strict_codes));
      if partial && accepted c.stream <> c.stream then
        QCheck.Test.fail_reportf "a partial history must be accepted whole";
      let rec owed after n =
        match M.first_undelivered relaxed ?prefix:c.prefix ~after () with
        | Some e -> owed e.History.Event.rev (n + 1)
        | None -> n
      in
      let lag = owed (M.frontier relaxed ~stream:"s@1") 0 in
      if lag <> History.Partial.lag c.stream ~of_:matching then
        QCheck.Test.fail_reportf "monitor owes %d events, Partial.lag says %d" lag
          (History.Partial.lag c.stream ~of_:matching);
      true)

(* --- the prefix filter allocates nothing ---------------------------- *)

let matches_prefix_allocates_nothing () =
  let e = History.Event.make ~rev:1 ~key:"pods/default/web-0" ~op:History.Event.Create (Some 1) in
  let prefixes = [| Some "pods/"; Some "pods/default/web-1"; Some "nodes/"; None |] in
  let hits = ref 0 in
  let run n =
    for i = 1 to n do
      if History.Event.matches_prefix prefixes.(i land 3) e then incr hits
    done
  in
  run 1_000;
  let before = Gc.minor_words () in
  run 10_000;
  let words = (Gc.minor_words () -. before) /. 10_000.0 in
  Alcotest.(check bool) (Printf.sprintf "%.2f words per call" words) true (words < 0.5);
  Alcotest.(check int) "pods/ and None match" 5_500 !hits

let suites =
  [
    ( "incremental judges",
      [
        Qcheck_util.to_alcotest qcheck_incremental_replays_full;
        Alcotest.test_case "dirty-key sources are exercised" `Quick sources_are_exercised;
        Qcheck_util.to_alcotest qcheck_subsequence_definition;
        Alcotest.test_case "matches_prefix allocates nothing" `Quick
          matches_prefix_allocates_nothing;
      ] );
  ]
