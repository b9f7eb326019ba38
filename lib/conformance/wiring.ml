(* Tap callbacks per component: every cache mutation fires a tap, so a
   cache whose claimed revision and component activity are unchanged
   since its last completed check provably holds the same bindings — its
   re-check is skipped. *)
type activity = { mutable taps : int }

type subject = {
  name : string;
  activity : activity;
  mutable checked_rev : int;  (* at the last completed check; -1 before it *)
  mutable checked_taps : int;
}

type 'v t = {
  engine : Dsim.Engine.t;
  commits : Etcdlike.Commits.view;  (* commit times, to age undelivered events *)
  monitor : 'v Monitor.t;
  activities : (string, activity) Hashtbl.t;  (* component -> its tap count *)
  check : 'v t -> unit;
  lag : 'v t -> unit;
}

let sweep_period = 500_000

let lag_grace = 250_000

let monitor t = t.monitor

let activity t component =
  match Hashtbl.find t.activities component with
  | a -> a
  | exception Not_found ->
      let a = { taps = 0 } in
      Hashtbl.add t.activities component a;
      a

let note_activity a = a.taps <- a.taps + 1

let subject t ~component name =
  { name; activity = activity t component; checked_rev = -1; checked_taps = 0 }

let check_state t s ?prefix ~rev state =
  let taps = s.activity.taps in
  if s.checked_rev <> rev || s.checked_taps <> taps then begin
    Monitor.check_state t.monitor ~subject:s.name ?prefix ~rev (state ());
    (* A claim beyond the mirror is re-examined once the mirror catches
       up. *)
    if rev <= Monitor.mirror_rev t.monitor then begin
      s.checked_rev <- rev;
      s.checked_taps <- taps
    end
  end

let flag_lag t ~stream ?prefix ~frontier () =
  match Monitor.first_undelivered t.monitor ?prefix ~after:frontier () with
  | Some e -> (
      let rev = e.History.Event.rev in
      let now = Dsim.Engine.now t.engine in
      match Etcdlike.Commits.time t.commits ~rev with
      | Some at when now - at > lag_grace ->
          Monitor.note_lag t.monitor ~stream ~rev ~key:e.History.Event.key ~frontier
            (Printf.sprintf "committed %s still undelivered after %d us"
               (History.Event.describe e) (now - at))
      | Some _ | None -> ())
  | None -> ()

(* The lag half builds stream names, so it is skipped outright when
   nothing tracks divergence. *)
let finish t =
  t.check t;
  if Monitor.tracking t.monitor then t.lag t

let attach ~engine ~commits ~intercept ~track_divergence ~taps ~check ~lag =
  let metrics = Dsim.Engine.metrics engine in
  let on_violation v =
    Dsim.Metrics.incr metrics "conformance.violations";
    Dsim.Engine.record engine ~actor:"conformance" ~kind:"conformance.violation"
      (Monitor.describe v)
  in
  let t =
    {
      engine;
      commits = Etcdlike.Commits.view commits;
      monitor = Monitor.create ~track_divergence ~on_violation ();
      activities = Hashtbl.create 16;
      check;
      lag;
    }
  in
  (* Before the consumers: commit listeners run in registration order,
     and the mirror must already hold an event when its delivery taps
     fire. *)
  Etcdlike.Commits.on_commit commits (Monitor.note_commit t.monitor);
  taps t;
  (* The first deliberate drop ends strict mode: from then on the run is
     *supposed* to contain gaps and stale caches. Delays and partitions
     keep it — FIFO pipes and re-list recovery preserve completeness. *)
  History.Intercept.set_observer intercept (fun _edge _event decision ->
      match decision with History.Intercept.Drop -> Monitor.relax t.monitor | _ -> ());
  Dsim.Engine.every engine ~period:sweep_period (fun () ->
      finish t;
      true);
  t
