type outcome = { mutation : string; tripped : bool; codes : Monitor.code list }

let mutations =
  [ "drop-event"; "reorder-deliveries"; "stale-cache"; "corrupt-value"; "future-claim" ]

let ok o = if String.equal o.mutation "control" then not o.tripped else o.tripped

let distinct_codes violations =
  List.fold_left
    (fun acc (v : Monitor.violation) -> if List.mem v.Monitor.code acc then acc else acc @ [ v.Monitor.code ])
    [] violations

(* A committed history with enough texture to perturb: 40 puts and
   deletes over a small key pool, through the real store so ops/mod-revs
   are the production ones. *)
let events = 40
let pod_keys = Array.init 6 (fun i -> Printf.sprintf "pods/p%d" i)

let generate_history rng ?(keys = pod_keys) () =
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
  History.Log.events (Etcdlike.Kv.history kv)

(* Replays [delivered] to a consumer stream, building its cache the way
   an informer does, then spot-checks the final cache at [claim]. *)
let replay monitor ~committed ~delivered ~claim ~skip_in_state =
  List.iter (Monitor.note_commit monitor) committed;
  let state =
    List.fold_left
      (fun state (e : string History.Event.t) ->
        Monitor.observe_event monitor ~stream:"selftest" e;
        if List.mem e.History.Event.rev skip_in_state then state else History.State.apply state e)
      History.State.empty delivered
  in
  Monitor.check_state monitor ~subject:"selftest" ~rev:claim state

let run ?(seed = 20260704L) () =
  let rng = Dsim.Rng.create seed in
  let committed = generate_history rng () in
  let n = List.length committed in
  assert (n >= 10);
  let last_rev = (List.nth committed (n - 1)).History.Event.rev in
  (* Never the last event, so a later delivery always exposes the hole. *)
  let k = Dsim.Rng.int rng (n - 1) in
  let arr = Array.of_list committed in
  let one mutation =
    let monitor = Monitor.create () in
    (match mutation with
    | "control" ->
        replay monitor ~committed ~delivered:committed ~claim:last_rev ~skip_in_state:[]
    | "drop-event" ->
        let delivered = List.filteri (fun i _ -> i <> k) committed in
        replay monitor ~committed ~delivered ~claim:last_rev
          ~skip_in_state:[ arr.(k).History.Event.rev ]
    | "reorder-deliveries" ->
        let delivered =
          List.concat
            (List.mapi
               (fun i e -> if i = k then [ arr.(k + 1); e ] else if i = k + 1 then [] else [ e ])
               committed)
        in
        replay monitor ~committed ~delivered ~claim:last_rev ~skip_in_state:[]
    | "stale-cache" ->
        (* Every event delivered, but the cache missed applying the final
           one while still claiming the full revision — skipping the last
           event (rather than a random one) guarantees the divergence is
           never papered over by a later write to the same key. *)
        replay monitor ~committed ~delivered:committed ~claim:last_rev
          ~skip_in_state:[ last_rev ]
    | "corrupt-value" ->
        let delivered =
          List.mapi
            (fun i (e : string History.Event.t) ->
              if i = k then { e with History.Event.value = Some "corrupted-by-selftest" } else e)
            committed
        in
        replay monitor ~committed ~delivered ~claim:last_rev ~skip_in_state:[]
    | "future-claim" ->
        List.iter (Monitor.note_commit monitor) committed;
        List.iter (Monitor.observe_event monitor ~stream:"selftest") committed;
        Monitor.observe_advance monitor ~stream:"selftest" ~rev:(last_rev + 5) ()
    | _ -> invalid_arg ("Selftest.run: unknown mutation " ^ mutation));
    let violations = Monitor.violations monitor in
    { mutation; tripped = violations <> []; codes = distinct_codes violations }
  in
  List.map one ("control" :: mutations)

(* --- HBase-boundary mutations -------------------------------------- *)

let hbase_mutations = [ "drop-zk-notify"; "stale-region-map"; "forge-znode" ]

(* Unlike the kube set — which only requires each mutation to trip — the
   HBase set pins the *code* each boundary defect must surface as: a
   lost one-shot notification is a [Gap], a truncated master view
   claiming the head revision is a [State_divergence], and a forged
   znode payload is a [Content] violation. A monitor that fires the
   wrong alarm would pass the weaker check and still misdirect every
   diagnosis built on it. *)
let hbase_expected_code = function
  | "drop-zk-notify" -> Some Monitor.Gap
  | "stale-region-map" -> Some Monitor.State_divergence
  | "forge-znode" -> Some Monitor.Content
  | _ -> None

let hbase_ok o =
  if String.equal o.mutation "control" then not o.tripped
  else
    o.tripped
    &&
    match hbase_expected_code o.mutation with
    | Some code -> List.mem code o.codes
    | None -> true

let znode_keys =
  [| "region/r0"; "region/r1"; "region/r2"; "region/r3"; "rs/registry" |]

let run_hbase ?(seed = 20260704L) () =
  let rng = Dsim.Rng.create seed in
  let committed = generate_history rng ~keys:znode_keys () in
  let n = List.length committed in
  assert (n >= 10);
  let last_rev = (List.nth committed (n - 1)).History.Event.rev in
  (* Never the last event, so a later delivery always exposes the hole. *)
  let k = Dsim.Rng.int rng (n - 1) in
  let arr = Array.of_list committed in
  let one mutation =
    let monitor = Monitor.create () in
    (match mutation with
    | "control" ->
        replay monitor ~committed ~delivered:committed ~claim:last_rev ~skip_in_state:[]
    | "drop-zk-notify" ->
        (* The znode's one-shot watch was consumed at event [k]'s commit
           and the notification never arrived: everything after still
           flows (the re-arm succeeded), but [k] is lost between fire
           and re-arm. *)
        let delivered = List.filteri (fun i _ -> i <> k) committed in
        replay monitor ~committed ~delivered ~claim:last_rev
          ~skip_in_state:[ arr.(k).History.Event.rev ]
    | "stale-region-map" ->
        (* A catch-up pull stopped one event short, but the master's
           region map claims the leader's head revision anyway. The
           final commit is a real commit, so the truncated map can never
           coincide with the committed head state. *)
        let delivered = List.filteri (fun i _ -> i < n - 1) committed in
        replay monitor ~committed ~delivered ~claim:last_rev ~skip_in_state:[]
    | "forge-znode" ->
        (* The delivered znode payload differs from the committed one. *)
        let delivered =
          List.mapi
            (fun i (e : string History.Event.t) ->
              if i = k then { e with History.Event.value = Some "forged-by-selftest" } else e)
            committed
        in
        replay monitor ~committed ~delivered ~claim:last_rev ~skip_in_state:[]
    | _ -> invalid_arg ("Selftest.run_hbase: unknown mutation " ^ mutation));
    let violations = Monitor.violations monitor in
    { mutation; tripped = violations <> []; codes = distinct_codes violations }
  in
  List.map one ("control" :: hbase_mutations)
