type replication = {
  read : Replicated.Kv.read_mode;
  read_fallback : Replicated.Kv.fallback;
}

type backend =
  | Single of Resource.value Etcdlike.Kv.t
  | Replicated of Resource.value Replicated.Kv.t

type t = {
  name : string;
  net : Dsim.Network.t;
  backend : backend;
  streams : Streams.t;
  commits : Resource.value Etcdlike.Commits.t;
  mutable requests_served : int;
  leases : Etcdlike.Lease.t;
  rpc : Dsim.Metrics.Counter.t;  (* ["rpc.<name>"] *)
}

let name t = t.name

(* The authoritative store view: the single store, or (replicated) the
   store of the replica at the canonical frontier. Read-only for
   replicated backends — mutations must go through the consensus path. *)
let kv t =
  match t.backend with Single kv -> kv | Replicated repl -> Replicated.Kv.canonical_store repl

let commits t = t.commits

let rev t = Etcdlike.Commits.(rev (view t.commits))

let replicated_kv t =
  match t.backend with Single _ -> None | Replicated repl -> Some repl

let replica_revs t =
  match t.backend with Single _ -> [] | Replicated repl -> Replicated.Kv.replica_revs repl

let subscribers t = Streams.ids t.streams

let requests_served t = t.requests_served

(* Seed a binding below the fault surface: a direct store write in single
   mode, a per-replica boot-snapshot write in replicated mode. Use before
   [Dsim.Engine.run] only. *)
let seed t key value =
  match t.backend with
  | Single kv -> ignore (Etcdlike.Kv.put kv key value)
  | Replicated repl -> ignore (Replicated.Kv.seed repl key value)

(* A stream is served by one store: the single store, or (replicated)
   the replica serving [src] right now. Its backlog comes from that
   store's retained log and later pushes from that store's commits — a
   partitioned replica's watchers silently stop seeing new commits, a
   crashed replica's watchers stop seeing bookmarks too (and the
   consumer's watchdog eventually notices the silence). *)
let serving_store t ~src =
  match t.backend with
  | Single kv -> Some (None, kv)
  | Replicated repl ->
      Option.map
        (fun rid -> (Some rid, Option.get (Replicated.Kv.replica_store repl rid)))
        (Replicated.Kv.serving_replica repl ~src)

let handle_watch t ~src (w : Messages.watch_request) reply =
  match serving_store t ~src with
  | None -> reply (Error `Unavailable)
  | Some (replica, store) -> begin
      match Etcdlike.Kv.since store ~rev:w.Messages.start_rev with
      | Error (`Compacted compacted_rev) -> reply (Ok (Messages.Compacted compacted_rev))
      | Ok backlog ->
          Streams.subscribe t.streams w ~replica ~backlog:(fun push -> List.iter push backlog);
          reply (Ok Messages.Watching)
    end

let note_txn_outcome t ~origin ~lease (outcome : Resource.value Etcdlike.Txn.outcome) =
  List.iter
    (fun (e : Resource.value History.Event.t) ->
      Etcdlike.Commits.label t.commits ~rev:e.History.Event.rev origin;
      match lease, e.History.Event.op with
      | Some lease, (History.Event.Create | History.Event.Update) ->
          Etcdlike.Lease.attach t.leases ~lease ~key:e.History.Event.key
      | _ -> ())
    outcome.Etcdlike.Txn.events

(* A lease-driven delete: a direct store delete in single mode, an
   ordinary proposal when replicated. Only a delete that commits labels
   its revision with [origin]; a key already gone commits nothing. *)
let delete_with_origin t ~origin key =
  let label (e : Resource.value History.Event.t) =
    Etcdlike.Commits.label t.commits ~rev:e.History.Event.rev origin
  in
  match t.backend with
  | Single kv -> Option.iter label (Etcdlike.Kv.delete kv key)
  | Replicated repl ->
      Replicated.Kv.delete repl key (function
        | Ok (Some e) -> label e
        | Ok None | Error `Unavailable -> ())

let reply_outcome reply (outcome : Resource.value Etcdlike.Txn.outcome) =
  reply (Ok { Messages.succeeded = outcome.Etcdlike.Txn.succeeded; rev = outcome.Etcdlike.Txn.rev })

(* Every read is served from the store; [quorum] only matters to an
   apiserver. *)
let serve : type a. t -> src:string -> a Messages.request -> (a Messages.reply -> unit) -> unit =
 fun t ~src request reply ->
  t.requests_served <- t.requests_served + 1;
  Dsim.Metrics.Counter.incr t.rpc;
  match request, t.backend with
  | Messages.List { prefix; quorum = _ }, Single kv ->
      reply (Ok { Messages.items = Etcdlike.Kv.range kv ~prefix; rev = Etcdlike.Kv.rev kv })
  | Messages.List { prefix; quorum = _ }, Replicated repl -> begin
      match Replicated.Kv.range repl ~src ~prefix with
      | Some (items, rev) -> reply (Ok { Messages.items; rev })
      | None -> reply (Error `Unavailable)
    end
  | Messages.Get { key; quorum = _ }, Single kv -> reply (Ok (Etcdlike.Kv.get kv key))
  | Messages.Get { key; quorum = _ }, Replicated repl -> begin
      match Replicated.Kv.get repl ~src key with
      | Some (value, _) -> reply (Ok value)
      | None -> reply (Error `Unavailable)
    end
  | Messages.Txn { txn; origin; lease }, Single kv ->
      let outcome = Etcdlike.Txn.eval kv txn in
      note_txn_outcome t ~origin ~lease outcome;
      reply_outcome reply outcome
  | Messages.Txn { txn; origin; lease }, Replicated repl ->
      (* Propose through the leader; the reply is deferred until the
         first replica applies the committed entry (the network layer
         holds the continuation), or fails over as an outage when
         nothing commits the proposal within its deadline. *)
      Replicated.Kv.txn repl txn (function
        | Ok outcome ->
            note_txn_outcome t ~origin ~lease outcome;
            reply_outcome reply outcome
        | Error `Unavailable -> reply (Error `Unavailable))
  | Messages.Lease_grant { ttl }, _ ->
      let now = Dsim.Engine.now (Dsim.Network.engine t.net) in
      reply (Ok (Etcdlike.Lease.grant t.leases ~ttl ~now))
  | Messages.Lease_keepalive { lease }, _ ->
      let now = Dsim.Engine.now (Dsim.Network.engine t.net) in
      reply (Ok (Etcdlike.Lease.keepalive t.leases ~lease ~now))
  | Messages.Lease_revoke { lease }, _ ->
      List.iter
        (delete_with_origin t ~origin:"lease-revoke")
        (Etcdlike.Lease.revoke t.leases ~lease);
      reply (Ok ())
  | Messages.Watch w, _ -> handle_watch t ~src w reply

(* Bookmarks every 200 ms of virtual time. *)
let bookmark_period = 200_000

(* The replicated backend's members: Replicated.Kv names its replicas
   etcd-1 .. etcd-n. *)
let replica_addresses = [ "etcd-1"; "etcd-2"; "etcd-3" ]

let create ~net ~intercept ?replication () =
  let name = "etcd" in
  let backend =
    match replication with
    | None -> Single (Etcdlike.Kv.create ())
    | Some { read; read_fallback } ->
        Replicated
          (Replicated.Kv.create ~net ~n:(List.length replica_addresses) ~read
             ~fallback:read_fallback ())
  in
  let engine = Dsim.Network.engine net in
  let t =
    {
      name;
      net;
      backend;
      streams = Streams.create ~net ~intercept ~src:name;
      commits = Etcdlike.Commits.create engine ~actor:name ~kind:"etcd.commit";
      requests_served = 0;
      leases = Etcdlike.Lease.create ();
      rpc = Dsim.Metrics.Counter.resolve (Dsim.Engine.metrics engine) ("rpc." ^ name);
    }
  in
  (* [commits] follows the single store, or the replicated store's
     canonical (leader-committed) stream, as their first listener. *)
  (match t.backend with
  | Single kv ->
      Etcdlike.Kv.on_commit kv (Etcdlike.Commits.commit t.commits);
      Etcdlike.Commits.on_commit t.commits (Streams.publish t.streams ~replica:None)
  | Replicated repl ->
      Replicated.Kv.on_commit repl (Etcdlike.Commits.commit t.commits);
      (* Watch pushes ride each replica's *applies*, not the canonical
         stream: a stream pinned to a lagging follower only sees what
         that follower has applied. Each push is caused by its
         revision's anchor, and the apply keeps its own causes. *)
      let feed = Etcdlike.Commits.view t.commits in
      List.iter
        (fun rid ->
          Replicated.Kv.on_replica_commit repl rid (fun e ->
              let cause = Dsim.Engine.current_cause engine in
              Dsim.Engine.set_cause engine (Etcdlike.Commits.anchor feed ~rev:e.History.Event.rev);
              Streams.publish t.streams ~replica:(Some rid) e;
              Dsim.Engine.set_cause engine cause))
        (Replicated.Kv.replica_ids repl);
      Replicated.Kv.start repl);
  Messages.Store.register net name
    { serve = (fun ~src request reply -> serve t ~src:(Dsim.Network.address src) request reply) };
  (* Bookmarks carry the frontier of the store serving each stream: a
     partitioned follower keeps heartbeating its stale revision (its
     watchers never notice), a crashed one goes silent (its watchers'
     watchdogs eventually fire). *)
  let frontier replica =
    match t.backend, replica with
    | Replicated repl, Some rid -> Replicated.Kv.replica_rev repl rid
    | (Single _ | Replicated _), _ -> rev t
  in
  Dsim.Engine.every engine ~period:bookmark_period (fun () ->
      Streams.heartbeat t.streams ~frontier ~seal:false;
      true);
  (* Expire leases against the virtual clock and delete their keys; the
     deletions are ordinary committed events (proposed through the
     leader when replicated), so watchers see the lock vanish. With no
     lease granted there is nothing to expire; the timer keeps ticking
     so a later expiry lands on the same phase. *)
  Dsim.Engine.every engine ~period:100_000 (fun () ->
      if Etcdlike.Lease.active t.leases > 0 then
        List.iter
          (fun (_, keys) -> List.iter (delete_with_origin t ~origin:"lease-expiry") keys)
          (Etcdlike.Lease.expire t.leases ~now:(Dsim.Engine.now engine));
      true);
  t
