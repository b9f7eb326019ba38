type t = Kube.Resource.value Wiring.t

(* One cache the sweep checks and ages, with its names built once. The
   sweep visits replicas, then apiservers, then informers — the order
   the checks and lag records have always had. *)
type cache = {
  subject : Wiring.subject;
  lag_stream : string;
  prefix : string option;
  checked : unit -> bool;
  lagged : unit -> bool;
  rev : unit -> int;
  state : unit -> Kube.Resource.value History.State.t;
}

(* The stream name of a tap's view, interned per generation: a new
   generation is a new stream, so frontiers are never compared across a
   crash or a gap-triggered re-list. *)
let stream_namer () =
  let generation = ref (-1) and name = ref "" in
  fun (view : Kube.Tap.view) ->
    if view.Kube.Tap.generation <> !generation then begin
      generation := view.Kube.Tap.generation;
      name := view.Kube.Tap.stream ^ "@" ^ string_of_int view.Kube.Tap.generation
    end;
    !name

(* Every tap also tells the monitor which of [subject]'s bindings
   changed, and remembers the cache it saw: a cache that differs from
   the last one a tap reported changed on a path that fires no tap (an
   apiserver crash discards its cache), so the sweep treats it as
   replaced wholesale. *)
let tap_of w ~component ~subject seen =
  let monitor = Wiring.monitor w in
  let activity = Wiring.activity w component in
  let stream = stream_namer () in
  {
    Kube.Tap.on_event =
      (fun view e ->
        Wiring.note_activity activity;
        Monitor.touch monitor ~subject e.History.Event.key;
        seen := view.Kube.Tap.state;
        Monitor.observe_event monitor ~stream:(stream view) ?prefix:view.Kube.Tap.prefix e);
    on_advance =
      (fun view _rev ->
        Wiring.note_activity activity;
        Monitor.observe_advance monitor ~stream:(stream view) ?prefix:view.Kube.Tap.prefix
          ~rev:view.Kube.Tap.rev ());
    on_reset =
      (fun view ->
        Wiring.note_activity activity;
        Monitor.touch_all monitor ~subject;
        seen := view.Kube.Tap.state;
        Monitor.observe_reset monitor ~stream:(stream view) ?prefix:view.Kube.Tap.prefix
          ~rev:view.Kube.Tap.rev view.Kube.Tap.state);
  }

let witnessed w ~subject seen current () =
  let state = current () in
  if state != !seen then begin
    Monitor.touch_all (Wiring.monitor w) ~subject;
    seen := state
  end;
  state

let always () = true

(* Replica state machines must be stale-but-never-wrong: each one's
   applied store is checked against the committed history at exactly
   its claimed revision, so a non-deterministic apply trips
   State_divergence while honest lag stays silent. A replica's store
   changes only by commits, whose listener names the changed key.
   Replication lag registers as a Lag divergence on ["<replica><-raft"],
   exactly like a consumer cache falling behind. *)
let replica_caches cluster w =
  match Kube.Etcd.replicated_kv (Kube.Cluster.etcd cluster) with
  | None -> []
  | Some rkv ->
      List.filter_map
        (fun id ->
          Option.map
            (fun store ->
              let subject = id ^ "<-raft" in
              let seen = ref (Etcdlike.Kv.state store) in
              Replicated.Kv.on_replica_commit rkv id (fun e ->
                  Monitor.touch (Wiring.monitor w) ~subject e.History.Event.key;
                  seen := Etcdlike.Kv.state store);
              {
                subject = Wiring.subject w ~component:id subject;
                lag_stream = subject;
                prefix = None;
                checked = always;
                lagged = always;
                rev = (fun () -> Etcdlike.Kv.rev store);
                state = witnessed w ~subject seen (fun () -> Etcdlike.Kv.state store);
              })
            (Replicated.Kv.replica_store rkv id))
        (Replicated.Kv.replica_ids rkv)

let apiserver_cache cluster w a =
  let subject = Kube.Apiserver.name a in
  let seen = ref (Kube.Apiserver.cache a) in
  Kube.Apiserver.set_tap a (Some (tap_of w ~component:subject ~subject seen));
  {
    subject = Wiring.subject w ~component:subject subject;
    lag_stream = subject ^ "<-" ^ Kube.Etcd.name (Kube.Cluster.etcd cluster);
    prefix = None;
    checked = always;
    lagged = (fun () -> Kube.Apiserver.ready a);
    rev = (fun () -> Kube.Apiserver.rev a);
    state = witnessed w ~subject seen (fun () -> Kube.Apiserver.cache a);
  }

(* Informers are created by [Cluster.start], which runs after attach:
   their taps go in at the first engine dispatch. [set_tap] replays any
   list the informer adopted in between as a reset, so the monitor's
   frontiers start at the adopted revision. *)
let informer_cache w i =
  let component = Kube.Informer.owner i in
  let subject = component ^ "#" ^ Kube.Informer.prefix i in
  let seen = ref (Kube.Informer.store i) in
  Kube.Informer.set_tap i (Some (tap_of w ~component ~subject seen));
  let running () = Kube.Informer.running i in
  {
    subject = Wiring.subject w ~component subject;
    lag_stream = subject;
    prefix = Some (Kube.Informer.prefix i);
    checked = running;
    lagged = running;
    rev = (fun () -> Kube.Informer.rev i);
    state = witnessed w ~subject seen (fun () -> Kube.Informer.store i);
  }

let check caches w =
  List.iter
    (fun c ->
      if c.checked () then
        Wiring.check_state w c.subject ?prefix:c.prefix ~rev:(c.rev ()) c.state)
    (Lazy.force !caches)

let lag caches w =
  List.iter
    (fun c ->
      if c.lagged () then
        Wiring.flag_lag w ~stream:c.lag_stream ?prefix:c.prefix ~frontier:(c.rev ()) ())
    (Lazy.force !caches)

(* [Cluster.create] registered etcd's stream-table publisher first; pipe
   deliveries are asynchronous, so the mirror still sits between the
   store and every watch stream. *)
let attach ?(track_divergence = false) cluster =
  let caches = ref (lazy []) in
  let taps w =
    let replicas = replica_caches cluster w in
    let apiservers = List.map (apiserver_cache cluster w) (Kube.Cluster.apiservers cluster) in
    caches :=
      lazy (replicas @ apiservers @ List.map (informer_cache w) (Kube.Cluster.informers cluster));
    ignore
      (Dsim.Engine.schedule (Kube.Cluster.engine cluster) ~delay:0 (fun () ->
           ignore (Lazy.force !caches)))
  in
  Wiring.attach ~engine:(Kube.Cluster.engine cluster)
    ~on_commit:(Kube.Etcd.on_commit (Kube.Cluster.etcd cluster))
    ~intercept:(Kube.Cluster.intercept cluster) ~track_divergence ~taps ~check:(check caches)
    ~lag:(lag caches)
