type t = Kube.Resource.value Wiring.t

(* A new generation is a new stream: frontiers must not be compared
   across a crash or a gap-triggered re-list. *)
let stream_key (view : Kube.Tap.view) =
  view.Kube.Tap.stream ^ "@" ^ string_of_int view.Kube.Tap.generation

let tap_of w =
  let monitor = Wiring.monitor w in
  {
    Kube.Tap.on_event =
      (fun view e ->
        Wiring.note_activity w view.Kube.Tap.component;
        Monitor.observe_event monitor ~stream:(stream_key view) ?prefix:view.Kube.Tap.prefix e);
    on_advance =
      (fun view _rev ->
        Wiring.note_activity w view.Kube.Tap.component;
        Monitor.observe_advance monitor ~stream:(stream_key view) ?prefix:view.Kube.Tap.prefix
          ~rev:view.Kube.Tap.rev ());
    on_reset =
      (fun view ->
        Wiring.note_activity w view.Kube.Tap.component;
        Monitor.observe_reset monitor ~stream:(stream_key view) ?prefix:view.Kube.Tap.prefix
          ~rev:view.Kube.Tap.rev view.Kube.Tap.state);
  }

let taps cluster w =
  let tap = Some (tap_of w) in
  List.iter (fun a -> Kube.Apiserver.set_tap a tap) (Kube.Cluster.apiservers cluster);
  (* Informers are created by [Cluster.start], which runs after attach:
     install their taps at the first engine dispatch. [set_tap] replays
     any list the informer adopted in between as a reset, so the
     monitor's frontiers start at the adopted revision. *)
  ignore
    (Dsim.Engine.schedule (Kube.Cluster.engine cluster) ~delay:0 (fun () ->
         List.iter (fun i -> Kube.Informer.set_tap i tap) (Kube.Cluster.informers cluster)))

let check cluster w =
  (* Replica state machines must be stale-but-never-wrong: each one's
     applied store is checked against the committed history at exactly
     its claimed revision, so a non-deterministic apply trips
     State_divergence while honest lag stays silent. *)
  Option.iter
    (fun rkv ->
      List.iter
        (fun id ->
          match Replicated.Kv.replica_store rkv id with
          | Some store ->
              Wiring.check_state w ~component:id ~subject:(id ^ "<-raft")
                ~rev:(Etcdlike.Kv.rev store) (Etcdlike.Kv.state store)
          | None -> ())
        (Replicated.Kv.replica_ids rkv))
    (Kube.Etcd.replicated_kv (Kube.Cluster.etcd cluster));
  List.iter
    (fun a ->
      Wiring.check_state w ~component:(Kube.Apiserver.name a) ~subject:(Kube.Apiserver.name a)
        ~rev:(Kube.Apiserver.rev a) (Kube.Apiserver.cache a))
    (Kube.Cluster.apiservers cluster);
  List.iter
    (fun i ->
      if Kube.Informer.running i then
        Wiring.check_state w ~component:(Kube.Informer.owner i)
          ~subject:(Kube.Informer.owner i ^ "#" ^ Kube.Informer.prefix i)
          ~prefix:(Kube.Informer.prefix i) ~rev:(Kube.Informer.rev i) (Kube.Informer.store i))
    (Kube.Cluster.informers cluster)

let lag cluster w =
  let etcd_name = Kube.Etcd.name (Kube.Cluster.etcd cluster) in
  (* Replicated backend: each replica's applied frontier is a stream off
     the canonical (leader-committed) history — replication lag registers
     as a Lag divergence on ["<replica><-raft"], exactly like a consumer
     cache falling behind. Empty for the single backend. *)
  List.iter
    (fun (id, rev) -> Wiring.flag_lag w ~stream:(id ^ "<-raft") ~frontier:rev ())
    (Kube.Etcd.replica_revs (Kube.Cluster.etcd cluster));
  List.iter
    (fun a ->
      if Kube.Apiserver.ready a then
        Wiring.flag_lag w ~stream:(Kube.Apiserver.name a ^ "<-" ^ etcd_name)
          ~frontier:(Kube.Apiserver.rev a) ())
    (Kube.Cluster.apiservers cluster);
  List.iter
    (fun i ->
      if Kube.Informer.running i then
        Wiring.flag_lag w
          ~stream:(Kube.Informer.owner i ^ "#" ^ Kube.Informer.prefix i)
          ~prefix:(Kube.Informer.prefix i) ~frontier:(Kube.Informer.rev i) ())
    (Kube.Cluster.informers cluster)

(* [Cluster.create] registered etcd's own hub first, so the mirror sits
   between the store and every watch stream. *)
let attach ?(track_divergence = false) cluster =
  Wiring.attach ~engine:(Kube.Cluster.engine cluster)
    ~on_commit:(Kube.Etcd.on_commit (Kube.Cluster.etcd cluster))
    ~intercept:(Kube.Cluster.intercept cluster) ~track_divergence ~taps:(taps cluster)
    ~check:(check cluster) ~lag:(lag cluster)
