type outcome = {
  mutation : string;
  tripped : bool;
  codes : Monitor.code list;
  expected : Monitor.code option;
}

let ok o =
  match o.expected with
  | None -> not o.tripped
  | Some code -> o.tripped && List.mem code o.codes

let distinct_codes violations =
  List.fold_left
    (fun acc (v : Monitor.violation) -> if List.mem v.Monitor.code acc then acc else acc @ [ v.Monitor.code ])
    [] violations

(* A committed history with enough texture to perturb: 40 puts and
   deletes over a small key pool, through the real store so ops/mod-revs
   are the production ones. [k] indexes the delivery a mutation
   perturbs; it is never the last, so a later delivery always exposes
   the hole. *)
type history = { committed : string History.Event.t list; k : int; last_rev : int }

let events = 40

let generate rng keys =
  let kv : string Etcdlike.Kv.t = Etcdlike.Kv.create () in
  let counter = ref 0 in
  while Etcdlike.Kv.rev kv < events do
    let key = Dsim.Rng.pick rng keys in
    if Dsim.Rng.chance rng 0.3 then ignore (Etcdlike.Kv.delete kv key)
    else begin
      incr counter;
      ignore (Etcdlike.Kv.put kv key (Printf.sprintf "v%d" !counter))
    end
  done;
  let committed = History.Log.events (Etcdlike.Kv.history kv) in
  let n = List.length committed in
  assert (n >= 10);
  let last_rev = (List.nth committed (n - 1)).History.Event.rev in
  { committed; k = Dsim.Rng.int rng (n - 1); last_rev }

(* Replays [delivered] to a consumer stream, building its cache the way
   an informer does but never applying the revisions in
   [skip_in_state], then spot-checks the final cache at the head. *)
let replay ?(skip_in_state = []) monitor h delivered =
  List.iter (Monitor.note_commit monitor) h.committed;
  let state =
    List.fold_left
      (fun state (e : string History.Event.t) ->
        Monitor.observe_event monitor ~stream:"selftest" e;
        if List.mem e.History.Event.rev skip_in_state then state else History.State.apply state e)
      History.State.empty delivered
  in
  Monitor.check_state monitor ~subject:"selftest" ~rev:h.last_rev state

(* Delivery [k] is lost (on the HBase boundary, between a one-shot
   watch's fire and its re-arm); everything after it still flows. *)
let drop monitor h =
  replay monitor h
    ~skip_in_state:[ (List.nth h.committed h.k).History.Event.rev ]
    (List.filteri (fun i _ -> i <> h.k) h.committed)

(* Delivery [k] carries [payload] instead of the committed value. *)
let corrupt payload monitor h =
  replay monitor h
    (List.mapi
       (fun i (e : string History.Event.t) ->
         if i = h.k then { e with History.Event.value = Some payload } else e)
       h.committed)

(* Each mutation with the code it must surface as: a monitor that
   fires the wrong alarm would misdirect every diagnosis built on it. *)
let kube =
  [
    ("drop-event", Monitor.Gap, drop);
    ( "reorder-deliveries",
      Monitor.Non_monotone,
      fun monitor h ->
        let after = List.nth h.committed (h.k + 1) in
        replay monitor h
          (List.concat
             (List.mapi
                (fun i e -> if i = h.k then [ after; e ] else if i = h.k + 1 then [] else [ e ])
                h.committed)) );
    ( "stale-cache",
      Monitor.State_divergence,
      (* Every event delivered, but the cache missed applying the final
         one while still claiming the full revision — skipping the last
         event (rather than a random one) guarantees the divergence is
         never papered over by a later write to the same key. *)
      fun monitor h -> replay monitor h ~skip_in_state:[ h.last_rev ] h.committed );
    ("corrupt-value", Monitor.Content, corrupt "corrupted-by-selftest");
    ( "future-claim",
      Monitor.Future_rev,
      fun monitor h ->
        List.iter (Monitor.note_commit monitor) h.committed;
        List.iter (Monitor.observe_event monitor ~stream:"selftest") h.committed;
        Monitor.observe_advance monitor ~stream:"selftest" ~rev:(h.last_rev + 5) () );
  ]

let hbase =
  [
    ("drop-zk-notify", Monitor.Gap, drop);
    ( "stale-region-map",
      Monitor.State_divergence,
      (* A catch-up pull stopped one event short, but the master's
         region map claims the leader's head revision anyway. The final
         commit is a real commit, so the truncated map can never
         coincide with the committed head state. *)
      fun monitor h ->
        let n = List.length h.committed in
        replay monitor h (List.filteri (fun i _ -> i < n - 1) h.committed) );
    ("forge-znode", Monitor.Content, corrupt "forged-by-selftest");
  ]

type boundary = Kube | Hbase

let run ?(seed = 20260704L) boundary =
  let keys, mutations =
    match boundary with
    | Kube -> (Array.init 6 (fun i -> Printf.sprintf "pods/p%d" i), kube)
    | Hbase -> ([| "region/r0"; "region/r1"; "region/r2"; "region/r3"; "rs/registry" |], hbase)
  in
  let h = generate (Dsim.Rng.create seed) keys in
  let one (mutation, expected, perturb) =
    let monitor = Monitor.create () in
    perturb monitor h;
    let violations = Monitor.violations monitor in
    { mutation; tripped = violations <> []; codes = distinct_codes violations; expected }
  in
  one ("control", None, fun monitor h -> replay monitor h h.committed)
  :: List.map (fun (name, code, perturb) -> one (name, Some code, perturb)) mutations
