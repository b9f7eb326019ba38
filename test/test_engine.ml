(* Virtual clock and event-loop semantics. *)

let runs_in_time_order () =
  let e = Dsim.Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Dsim.Engine.schedule e ~delay:300 (note "c"));
  ignore (Dsim.Engine.schedule e ~delay:100 (note "a"));
  ignore (Dsim.Engine.schedule e ~delay:200 (note "b"));
  Dsim.Engine.run e;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log)

let clock_advances_to_event_time () =
  let e = Dsim.Engine.create () in
  let seen = ref (-1) in
  ignore (Dsim.Engine.schedule e ~delay:5_000 (fun () -> seen := Dsim.Engine.now e));
  Dsim.Engine.run e;
  Alcotest.(check int) "now at fire time" 5_000 !seen

let same_time_fifo () =
  let e = Dsim.Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Dsim.Engine.schedule e ~delay:100 (fun () -> log := i :: !log))
  done;
  Dsim.Engine.run e;
  Alcotest.(check (list int)) "fifo for equal timestamps" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let cancel_prevents_fire () =
  let e = Dsim.Engine.create () in
  let fired = ref false in
  let timer = Dsim.Engine.schedule e ~delay:10 (fun () -> fired := true) in
  Dsim.Engine.cancel e timer;
  Dsim.Engine.run e;
  Alcotest.(check bool) "not fired" false !fired

let run_until_stops () =
  let e = Dsim.Engine.create () in
  let count = ref 0 in
  ignore (Dsim.Engine.schedule e ~delay:100 (fun () -> incr count));
  ignore (Dsim.Engine.schedule e ~delay:200 (fun () -> incr count));
  ignore (Dsim.Engine.schedule e ~delay:900 (fun () -> incr count));
  Dsim.Engine.run ~until:500 e;
  Alcotest.(check int) "two of three fired" 2 !count;
  Alcotest.(check int) "clock at horizon" 500 (Dsim.Engine.now e);
  Dsim.Engine.run ~until:1_000 e;
  Alcotest.(check int) "third fired on resume" 3 !count

let events_at_horizon_fire () =
  let e = Dsim.Engine.create () in
  let fired = ref false in
  ignore (Dsim.Engine.schedule e ~delay:500 (fun () -> fired := true));
  Dsim.Engine.run ~until:500 e;
  Alcotest.(check bool) "boundary event fires" true !fired

let nested_scheduling () =
  let e = Dsim.Engine.create () in
  let times = ref [] in
  ignore
    (Dsim.Engine.schedule e ~delay:10 (fun () ->
         ignore
           (Dsim.Engine.schedule e ~delay:10 (fun () -> times := Dsim.Engine.now e :: !times))));
  Dsim.Engine.run e;
  Alcotest.(check (list int)) "fires at 20" [ 20 ] !times

let schedule_in_past_clamps () =
  let e = Dsim.Engine.create () in
  ignore (Dsim.Engine.schedule e ~delay:100 (fun () -> ()));
  Dsim.Engine.run e;
  let fired_at = ref (-1) in
  ignore (Dsim.Engine.schedule_at e ~time:5 (fun () -> fired_at := Dsim.Engine.now e));
  Dsim.Engine.run e;
  Alcotest.(check int) "clamped to now" 100 !fired_at

let every_repeats_until_false () =
  let e = Dsim.Engine.create () in
  let count = ref 0 in
  Dsim.Engine.every e ~period:100 (fun () ->
      incr count;
      !count < 5);
  Dsim.Engine.run e;
  Alcotest.(check int) "five ticks" 5 !count

let trace_records_at_now () =
  let e = Dsim.Engine.create () in
  ignore
    (Dsim.Engine.schedule e ~delay:42 (fun () ->
         Dsim.Engine.record e ~actor:"me" ~kind:"k" "detail"));
  Dsim.Engine.run e;
  match Dsim.Trace.entries (Dsim.Engine.trace e) with
  | [ entry ] ->
      Alcotest.(check int) "time" 42 entry.Dsim.Trace.time;
      Alcotest.(check string) "actor" "me" entry.Dsim.Trace.actor
  | other -> Alcotest.fail (Printf.sprintf "expected 1 entry, got %d" (List.length other))

let deterministic_replay () =
  let run () =
    let e = Dsim.Engine.create ~seed:99L () in
    let log = ref [] in
    Dsim.Engine.every e ~period:10 (fun () ->
        log := Dsim.Rng.int (Dsim.Engine.rng e) 1000 :: !log;
        List.length !log < 20);
    Dsim.Engine.run e;
    !log
  in
  Alcotest.(check (list int)) "replay identical" (run ()) (run ())

(* --- the event queue ----------------------------------------------------
   The engine's queue orders timers by (time, seq); these drive it
   through [schedule]/[step] only. *)

let recorder () =
  let log = ref [] in
  (log, fun tag () -> log := tag :: !log)

let empty_queue () =
  let e = Dsim.Engine.create () in
  Alcotest.(check int) "pending" 0 (Dsim.Engine.pending e);
  Alcotest.(check bool) "step on empty" false (Dsim.Engine.step e)

let pops_in_time_order () =
  let e = Dsim.Engine.create () in
  let log, note = recorder () in
  List.iter (fun time -> ignore (Dsim.Engine.schedule_at e ~time (note time))) [ 30; 10; 20; 5; 25 ];
  Dsim.Engine.run e;
  Alcotest.(check (list int)) "times ascend" [ 5; 10; 20; 25; 30 ] (List.rev !log)

let ties_break_by_seq () =
  (* Equal-time timers scheduled around earlier and later ones, so the
     queue reshuffles between them: they still fire in scheduling order. *)
  let e = Dsim.Engine.create () in
  let log, note = recorder () in
  List.iter
    (fun (time, tag) -> ignore (Dsim.Engine.schedule_at e ~time (note tag)))
    [ (5, "5.1"); (9, "a"); (5, "5.2"); (1, "b"); (5, "5.3"); (7, "c") ];
  ignore
    (Dsim.Engine.schedule_at e ~time:1 (fun () ->
         ignore (Dsim.Engine.schedule_at e ~time:5 (note "5.4"))));
  Dsim.Engine.run e;
  Alcotest.(check (list string)) "fifo within a timestamp"
    [ "b"; "5.1"; "5.2"; "5.3"; "5.4"; "c"; "a" ]
    (List.rev !log)

let interleaved_push_pop () =
  let e = Dsim.Engine.create () in
  let log, note = recorder () in
  ignore (Dsim.Engine.schedule e ~delay:10 (note "b"));
  ignore (Dsim.Engine.schedule e ~delay:5 (note "a"));
  ignore (Dsim.Engine.step e);
  Alcotest.(check (list string)) "earliest first" [ "a" ] !log;
  Alcotest.(check int) "clock at 5" 5 (Dsim.Engine.now e);
  ignore (Dsim.Engine.schedule e ~delay:1 (note "c"));
  ignore (Dsim.Engine.step e);
  Alcotest.(check (list string)) "later push overtakes" [ "c"; "a" ] !log;
  ignore (Dsim.Engine.step e);
  Alcotest.(check (list string)) "then the rest" [ "b"; "c"; "a" ] !log

(* Allocated in a helper so no stack slot of the test keeps it alive. *)
let[@inline never] schedule_payload e weak i ~time =
  let payload = Bytes.make 64 'x' in
  Weak.set weak i (Some payload);
  ignore (Dsim.Engine.schedule_at e ~time (fun () -> ignore (Bytes.length payload)))

let popped_value_is_collectable () =
  (* A fired timer must not stay referenced from the queue's arrays, or
     arbitrarily large closures stay pinned for a whole trial. *)
  let e = Dsim.Engine.create () in
  let weak = Weak.create 3 in
  List.iteri (fun i time -> schedule_payload e weak i ~time) [ 1; 2; 3 ];
  ignore (Dsim.Engine.step e);
  Gc.full_major ();
  Alcotest.(check int) "the rest still pending" 2 (Dsim.Engine.pending e);
  Alcotest.(check bool) "fired closure was collected" false (Weak.check weak 0);
  Alcotest.(check bool) "pending closure is kept" true (Weak.check weak 2);
  Dsim.Engine.run e;
  Gc.full_major ();
  Alcotest.(check (list bool)) "drained queue pins nothing" [ false; false; false ]
    (List.init 3 (Weak.check weak));
  (* Keeps the engine, and with it the queue's arrays, alive past the check. *)
  Alcotest.(check int) "drained" 0 (Dsim.Engine.pending e)

let qcheck_sorted_drain =
  QCheck.Test.make ~name:"drain yields sorted (time, seq)" ~count:200
    QCheck.(list_of_size Gen.(0 -- 200) (int_range 0 1000))
    (fun times ->
      let e = Dsim.Engine.create () in
      let log, note = recorder () in
      List.iteri (fun seq time -> ignore (Dsim.Engine.schedule_at e ~time (note (time, seq)))) times;
      Dsim.Engine.run e;
      let fired = List.rev !log in
      List.length fired = List.length times && fired = List.sort compare fired)

let qcheck_length_tracks =
  QCheck.Test.make ~name:"length counts pushes minus pops" ~count:200
    QCheck.(pair (int_range 0 100) (int_range 0 100))
    (fun (pushes, pops) ->
      let e = Dsim.Engine.create () in
      for i = 1 to pushes do
        ignore (Dsim.Engine.schedule e ~delay:i ignore)
      done;
      for _ = 1 to pops do
        ignore (Dsim.Engine.step e)
      done;
      Dsim.Engine.pending e = max 0 (pushes - pops))

(* --- allocation budget --------------------------------------------------
   Minor words per operation, averaged over 10k operations after one
   warm-up. A heap block is at least two words, so an average below one
   word means no per-operation allocation. *)

let words_per_op f =
  let n = 10_000 in
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let event_allocates_nothing () =
  let e = Dsim.Engine.create () in
  let words =
    words_per_op (fun () ->
        ignore (Dsim.Engine.schedule e ~delay:1 ignore);
        ignore (Dsim.Engine.step e))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per scheduled-and-fired event < 1" words)
    true (words < 1.0);
  let words =
    words_per_op (fun () -> Dsim.Engine.cancel e (Dsim.Engine.schedule e ~delay:1 ignore))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per scheduled-and-cancelled event < 1" words)
    true (words < 1.0)

let[@inline never] cancellable_payload e weak i ~time =
  let payload = Bytes.make 64 'x' in
  Weak.set weak i (Some payload);
  Dsim.Engine.schedule_at e ~time (fun () -> ignore (Bytes.length payload))

let cancel_frees_the_timer_at_once () =
  let e = Dsim.Engine.create () in
  let weak = Weak.create 2 in
  let doomed = cancellable_payload e weak 0 ~time:10 in
  ignore (cancellable_payload e weak 1 ~time:20);
  Alcotest.(check int) "both pending" 2 (Dsim.Engine.pending e);
  Dsim.Engine.cancel e doomed;
  Alcotest.(check int) "pending drops at once" 1 (Dsim.Engine.pending e);
  Gc.full_major ();
  Alcotest.(check bool) "cancelled closure was collected" false (Weak.check weak 0);
  Alcotest.(check bool) "live closure is kept" true (Weak.check weak 1);
  Dsim.Engine.cancel e doomed;
  Alcotest.(check int) "second cancel is a no-op" 1 (Dsim.Engine.pending e)

let stale_handle_cancels_nothing () =
  (* The fired timer's slot is reused by the next schedule: its handle
     must not reach the newcomer. *)
  let e = Dsim.Engine.create () in
  let log, note = recorder () in
  let first = Dsim.Engine.schedule e ~delay:1 (note "first") in
  ignore (Dsim.Engine.step e);
  ignore (Dsim.Engine.schedule e ~delay:1 (note "second"));
  Dsim.Engine.cancel e first;
  Alcotest.(check int) "newcomer still pending" 1 (Dsim.Engine.pending e);
  Dsim.Engine.run e;
  Alcotest.(check (list string)) "both fired" [ "first"; "second" ] (List.rev !log)

(* --- model --------------------------------------------------------------
   The engine against a naive model with lazy cancellation: a sorted list
   of every scheduled entry, where cancel only marks an entry and popping
   skips it unfired. The model's clock passes through every popped entry,
   cancelled or not; the engine must reach the same clock from its last
   cancelled deadline alone. A model step pops cancelled entries only on
   its way to a live one. *)

type entry = { time : int; seq : int; id : int; mutable cancelled : bool }

type model = {
  mutable now : int;
  mutable seq : int;
  mutable first_seq : int;
  mutable queue : entry list;
}

(* A [first] event's seq comes from a band below every other event's. *)
let model_schedule ?(first = false) m ~time id =
  let seq =
    if first then begin
      m.first_seq <- m.first_seq + 1;
      m.first_seq
    end
    else begin
      m.seq <- m.seq + 1;
      (1 lsl 40) + m.seq
    end
  in
  let entry = { time = max time m.now; seq; id; cancelled = false } in
  let before e = e.time < entry.time || (e.time = entry.time && e.seq < entry.seq) in
  let rec insert = function e :: rest when before e -> e :: insert rest | rest -> entry :: rest in
  m.queue <- insert m.queue

let model_cancel m id = List.iter (fun e -> if e.id = id then e.cancelled <- true) m.queue

let model_pending m = List.length (List.filter (fun e -> not e.cancelled) m.queue)

let model_pop m fire =
  match m.queue with
  | [] -> ()
  | e :: rest ->
      m.queue <- rest;
      m.now <- max m.now e.time;
      if not e.cancelled then fire e.id

let model_step m fire =
  if model_pending m = 0 then false
  else begin
    let rec go () =
      match m.queue with
      | e :: _ when e.cancelled ->
          model_pop m fire;
          go ()
      | _ -> model_pop m fire
    in
    go ();
    true
  end

let model_run ?until m fire =
  let horizon = Option.value until ~default:max_int in
  let rec go () =
    match m.queue with
    | e :: _ when e.time <= horizon ->
        model_pop m fire;
        go ()
    | _ -> ()
  in
  go ();
  match until with Some h when m.now < h && m.queue <> [] -> m.now <- h | _ -> ()

type op =
  | Schedule of int  (** relative delay *)
  | Schedule_at of int  (** absolute time; past times clamp to now *)
  | Schedule_first of int  (** at now + this, first at its instant *)
  | Cancel of int  (** index into every handle made so far *)
  | Step
  | Run_until of int  (** horizon = now + this *)
  | Run

let show_op = function
  | Schedule d -> Printf.sprintf "schedule %d" d
  | Schedule_at t -> Printf.sprintf "schedule_at %d" t
  | Schedule_first d -> Printf.sprintf "schedule_first (now+%d)" d
  | Cancel i -> Printf.sprintf "cancel #%d" i
  | Step -> "step"
  | Run_until d -> Printf.sprintf "run ~until:(now+%d)" d
  | Run -> "run"

(* The engine's wheel has buckets 4,096 us wide and a lap of 256
   buckets; an event waits in the bucket of its tick modulo the lap,
   however far ahead it is due, so one chain may hold several laps.
   Delays, times and horizons come at the scales the workloads use, and
   at those edges, so a case crosses buckets, wraps the wheel and puts
   events one to eight laps ahead, and at [max_int / 2], into buckets
   that nearer events share. Draws around multiples of 1,024 us land
   inside a bucket, among its other times, so they exercise the sorted
   insert into a chain. *)
let bucket = 4096

let lap = 256 * bucket

let span =
  let open QCheck.Gen in
  frequency
    [
      (4, 0 -- 6) (* same-time bursts *);
      (3, 500 -- 2_000) (* network deliveries *);
      (2, map2 (fun k d -> (k * bucket) + d) (1 -- 8) (-1 -- 1)) (* bucket edges *);
      (1, map2 (fun k d -> (k * 1024) + d) (1 -- 8) (-1 -- 1)) (* within a bucket *);
      (2, map2 (fun k d -> (k * lap) + d) (1 -- 8) (-1 -- 1)) (* lap edges *);
      (1, 2_000_000 -- 8_000_000) (* fault-plan and workload actions *);
    ]

let arb_ops =
  let open QCheck.Gen in
  let heal = map (fun d -> (max_int / 2) + d) (-1 -- 1) in
  let op =
    frequency
      [
        (4, map (fun d -> Schedule d) span);
        (3, map (fun t -> Schedule_at t) (frequency [ (3, 0 -- 60); (3, span); (1, heal) ]));
        (2, map (fun d -> Schedule_first d) span);
        (4, map (fun i -> Cancel i) (0 -- 1000));
        (3, return Step);
        (2, map (fun d -> Run_until d) (frequency [ (1, 0 -- 10); (2, span) ]));
        (1, return Run);
      ]
  in
  QCheck.make ~print:(QCheck.Print.list show_op) (list_size (0 -- 80) op)

(* Events one to three laps ahead are scheduled first, so each sits in
   bucket 2 behind the nearer ones inserted later: those walk the chain
   from its head, and a scan that reaches bucket 2 before the lap is
   done must pass over a head due a lap or more later. The middle one
   is cancelled out of the chain. *)
let far_events_share_buckets () =
  let e = Dsim.Engine.create () in
  let fired = ref [] in
  let at time tag =
    Dsim.Engine.schedule_at e ~time (fun () -> fired := (tag, Dsim.Engine.now e) :: !fired)
  in
  let lapped = List.map (fun k -> at ((k * lap) + (2 * bucket) + k) k) [ 1; 2; 3 ] in
  List.iter
    (fun (time, tag) -> ignore (at time tag))
    [ ((2 * bucket) + 7, 10); (0, 11); (5 * bucket, 12); ((2 * bucket) + 7, 13) ];
  Dsim.Engine.cancel e (List.nth lapped 1);
  Alcotest.(check int) "pending" 6 (Dsim.Engine.pending e);
  Dsim.Engine.run e;
  Alcotest.(check (list (pair int int)))
    "nearer first, each at its time"
    [
      (11, 0);
      (10, (2 * bucket) + 7);
      (13, (2 * bucket) + 7);
      (12, 5 * bucket);
      (1, lap + (2 * bucket) + 1);
      (3, (3 * lap) + (2 * bucket) + 3);
    ]
    (List.rev !fired)

(* All start at least two laps ahead. From the fourth pop on, each next
   event is more than a lap past the last one, so it is the earliest
   bucket head; at the fourth and fifth pops that head is neither in
   the lowest non-empty bucket nor in the first one after the last
   event's. *)
let lapped_queue_fires_in_order () =
  let e = Dsim.Engine.create () in
  let fired = ref [] in
  let times =
    [
      (3 * lap) + (100 * bucket);
      max_int / 2;
      (7 * lap) + (10 * bucket);
      (2 * lap) + (200 * bucket);
      (5 * lap) + (50 * bucket) + 7;
      (2 * lap) + (200 * bucket);
      9 * lap;
    ]
  in
  List.iteri
    (fun seq time ->
      ignore
        (Dsim.Engine.schedule_at e ~time (fun () ->
             fired := ((time, seq), Dsim.Engine.now e) :: !fired)))
    times;
  Dsim.Engine.run e;
  let expected = List.sort compare (List.mapi (fun seq time -> (time, seq)) times) in
  Alcotest.(check (list (pair (pair int int) int)))
    "(time, seq) order, the clock at each"
    (List.map (fun (time, seq) -> ((time, seq), time)) expected)
    (List.rev !fired);
  Alcotest.(check int) "drained" 0 (Dsim.Engine.pending e)

(* Every action closes over its own payload, registered weakly, so the
   end of a case can check that exactly the live entries are retained. *)
let[@inline never] schedule_logged weak fired id schedule =
  let payload = Bytes.make 16 'x' in
  Weak.set weak id (Some payload);
  schedule (fun () ->
      ignore (Bytes.length payload);
      fired := id :: !fired)

let qcheck_engine_model =
  QCheck.Test.make ~name:"engine agrees with a lazy-cancel model" ~count:300 arb_ops (fun ops ->
      let e = Dsim.Engine.create () in
      let m = { now = 0; seq = 0; first_seq = 0; queue = [] } in
      let weak = Weak.create (List.length ops) in
      let fired = ref [] and model_fired = ref [] in
      let fire id = model_fired := id :: !model_fired in
      let handles = ref [||] in
      let add id handle = handles := Array.append !handles [| (id, handle) |] in
      let apply id op =
        match op with
        | Schedule delay ->
            let time = Dsim.Engine.now e + delay in
            add id (schedule_logged weak fired id (Dsim.Engine.schedule e ~delay));
            model_schedule m ~time id
        | Schedule_at time ->
            add id (schedule_logged weak fired id (Dsim.Engine.schedule_at e ~time));
            model_schedule m ~time id
        | Schedule_first delay ->
            let time = Dsim.Engine.now e + delay in
            add id (schedule_logged weak fired id (Dsim.Engine.schedule_first e ~time));
            model_schedule ~first:true m ~time id
        | Cancel i when Array.length !handles > 0 ->
            let id, handle = !handles.(i mod Array.length !handles) in
            Dsim.Engine.cancel e handle;
            model_cancel m id
        | Cancel _ -> ()
        | Step ->
            let stepped = Dsim.Engine.step e in
            if stepped <> model_step m fire then QCheck.Test.fail_report "step results differ"
        | Run_until d ->
            let until = Dsim.Engine.now e + d in
            Dsim.Engine.run ~until e;
            model_run ~until m fire
        | Run ->
            Dsim.Engine.run e;
            model_run m fire
      in
      List.iteri
        (fun id op ->
          apply id op;
          if !fired <> !model_fired then
            QCheck.Test.fail_reportf "after %s: fire order differs" (show_op op);
          if Dsim.Engine.now e <> m.now then
            QCheck.Test.fail_reportf "after %s: now %d, model %d" (show_op op) (Dsim.Engine.now e)
              m.now;
          if Dsim.Engine.pending e <> model_pending m then
            QCheck.Test.fail_reportf "after %s: pending %d, model %d" (show_op op)
              (Dsim.Engine.pending e) (model_pending m))
        ops;
      Gc.full_major ();
      let live id = List.exists (fun entry -> entry.id = id && not entry.cancelled) m.queue in
      List.iteri
        (fun id op ->
          match op with
          | (Schedule _ | Schedule_at _ | Schedule_first _) when Weak.check weak id <> live id ->
              QCheck.Test.fail_reportf "closure #%d %s" id
                (if live id then "of a live entry was collected" else "of a dead entry is retained")
          | _ -> ())
        ops;
      Dsim.Engine.pending e = model_pending m)

(* --- first events ------------------------------------------------------- *)

(* A fault action scheduled after other events due at its instant, even
   one scheduled from inside a run and one a lap ahead, fires before
   them; fault actions keep their own order, and a cancelled one never
   fires. *)
let faults_fire_first () =
  let e = Dsim.Engine.create () in
  let log = ref [] in
  let note tag () = log := (Dsim.Engine.now e, tag) :: !log in
  let at = 5_000 and far = 5_000 + lap in
  ignore (Dsim.Engine.schedule_at e ~time:at (note "event"));
  ignore (Dsim.Engine.schedule_at e ~time:far (note "far event"));
  ignore (Dsim.Engine.schedule_first e ~time:at (note "fault 1"));
  ignore (Dsim.Engine.schedule_at e ~time:at (note "later event"));
  ignore (Dsim.Engine.schedule_first e ~time:at (note "fault 2"));
  let dropped = Dsim.Engine.schedule_first e ~time:at (note "cancelled fault") in
  Dsim.Engine.cancel e dropped;
  ignore (Dsim.Engine.schedule_at e ~time:1_000 (fun () ->
      ignore (Dsim.Engine.schedule_first e ~time:far (note "far fault"));
      ignore (Dsim.Engine.schedule_first e ~time:at (note "fault 3"))));
  Dsim.Engine.run e;
  Alcotest.(check (list (pair int string)))
    "faults first, in their order; other events in theirs"
    [
      (at, "fault 1");
      (at, "fault 2");
      (at, "fault 3");
      (at, "event");
      (at, "later event");
      (far, "far fault");
      (far, "far event");
    ]
    (List.rev !log)

(* A plan applied to a network that has already run orders its actions
   against the pending events exactly as the same plan applied before
   the run: the property forking a run relies on. *)
let fault_plan_installed_late () =
  let trace ~late =
    let e = Dsim.Engine.create () in
    let net = Dsim.Network.create e in
    List.iter (Dsim.Network.join net) [ "a"; "b" ];
    let log = ref [] in
    let probe tag () =
      let up = Dsim.Network.is_up net "a" and cut = Dsim.Network.partitioned net "a" "b" in
      log := (Dsim.Engine.now e, tag, up, cut) :: !log
    in
    let plan = [ (2_000, Dsim.Fault.Crash "a"); (3_000, Dsim.Fault.Partition ("a", "b")) ] in
    if not late then Dsim.Fault.apply net plan;
    List.iter
      (fun time -> ignore (Dsim.Engine.schedule_at e ~time (probe (string_of_int time))))
      [ 1_000; 2_000; 3_000 ];
    Dsim.Engine.run ~until:1_500 e;
    if late then Dsim.Fault.apply net plan;
    Dsim.Engine.run e;
    List.rev !log
  in
  Alcotest.(check (list (pair int (pair string (pair bool bool)))))
    "same observations"
    (List.map (fun (t, s, u, p) -> (t, (s, (u, p)))) (trace ~late:false))
    (List.map (fun (t, s, u, p) -> (t, (s, (u, p)))) (trace ~late:true))

(* --- non-positive periods ---------------------------------------------- *)

let every_rejects_non_positive_period () =
  List.iter
    (fun period ->
      let e = Dsim.Engine.create () in
      Alcotest.check_raises
        (Printf.sprintf "period %d" period)
        (Invalid_argument
           (Printf.sprintf "Engine.every: period must be positive, got %d" period))
        (fun () -> Dsim.Engine.every e ~period (fun () -> true)))
    [ 0; -5 ]

let suites =
  [
    ( "pqueue",
      [
        Alcotest.test_case "empty queue" `Quick empty_queue;
        Alcotest.test_case "pops in time order" `Quick pops_in_time_order;
        Alcotest.test_case "ties break by seq" `Quick ties_break_by_seq;
        Alcotest.test_case "interleaved push/pop" `Quick interleaved_push_pop;
        Alcotest.test_case "popped value is collectable" `Quick popped_value_is_collectable;
        Qcheck_util.to_alcotest qcheck_sorted_drain;
        Qcheck_util.to_alcotest qcheck_length_tracks;
      ] );
    ( "engine",
      [
        Alcotest.test_case "runs in time order" `Quick runs_in_time_order;
        Alcotest.test_case "clock advances to event time" `Quick clock_advances_to_event_time;
        Alcotest.test_case "same time fifo" `Quick same_time_fifo;
        Alcotest.test_case "cancel prevents fire" `Quick cancel_prevents_fire;
        Alcotest.test_case "run ~until stops and resumes" `Quick run_until_stops;
        Alcotest.test_case "events at horizon fire" `Quick events_at_horizon_fire;
        Alcotest.test_case "nested scheduling" `Quick nested_scheduling;
        Alcotest.test_case "schedule in past clamps to now" `Quick schedule_in_past_clamps;
        Alcotest.test_case "every repeats until false" `Quick every_repeats_until_false;
        Alcotest.test_case "trace records at now" `Quick trace_records_at_now;
        Alcotest.test_case "deterministic replay" `Quick deterministic_replay;
        Alcotest.test_case "event allocates nothing" `Quick event_allocates_nothing;
        Alcotest.test_case "cancel frees the timer at once" `Quick cancel_frees_the_timer_at_once;
        Alcotest.test_case "stale handle cancels nothing" `Quick stale_handle_cancels_nothing;
        Alcotest.test_case "every rejects a non-positive period" `Quick
          every_rejects_non_positive_period;
        Alcotest.test_case "far events share buckets with nearer ones" `Quick
          far_events_share_buckets;
        Alcotest.test_case "lapped queue fires in (time, seq) order" `Quick
          lapped_queue_fires_in_order;
        Alcotest.test_case "a fault scheduled after an event at its instant fires first" `Quick
          faults_fire_first;
        Alcotest.test_case "a fault plan installed mid-run orders as one installed first" `Quick
          fault_plan_installed_late;
        Qcheck_util.to_alcotest qcheck_engine_model;
      ] );
  ]
