type replication = {
  replicas : int;
  read : Replicated.Kv.read_mode;
  read_fallback : Replicated.Kv.fallback;
}

type subscription = {
  pipe : Pipe.t;
  prefix : string option;
  mutable last_sent : int;
  replica : string option;  (* serving replica the stream is pinned to *)
}

type backend =
  | Single of Resource.value Etcdlike.Kv.t
  | Replicated of Resource.value Replicated.Kv.t

type t = {
  name : string;
  net : Dsim.Network.t;
  intercept : Resource.value History.Intercept.t;
  backend : backend;
  subs : subscription History.Dispatch.t;
  streams : (string, int) Hashtbl.t;  (* stream_id -> dispatch handle *)
  mutable order_dirty : bool;
  watch_window : int option;
  mutable requests_served : int;
  origins : (int, string) Hashtbl.t;  (* revision -> originating component *)
  commit_ids : (int, int) Hashtbl.t;  (* revision -> trace entry id of the commit *)
  leases : Etcdlike.Lease.t;
  rpc : Dsim.Metrics.Counter.t;  (* ["rpc.<name>"] *)
}

let name t = t.name

(* The authoritative store view: the single store, or (replicated) the
   store of the replica at the canonical frontier. Read-only for
   replicated backends — mutations must go through the consensus path. *)
let kv t =
  match t.backend with Single kv -> kv | Replicated repl -> Replicated.Kv.canonical_store repl

let rev t =
  match t.backend with Single kv -> Etcdlike.Kv.rev kv | Replicated repl -> Replicated.Kv.rev repl

let replication t =
  match t.backend with
  | Single _ -> None
  | Replicated repl ->
      Some
        {
          replicas = Replicated.Kv.n repl;
          read = Replicated.Kv.read_mode repl;
          read_fallback = Replicated.Kv.fallback repl;
        }

let replicated_kv t =
  match t.backend with Single _ -> None | Replicated repl -> Some repl

let replica_revs t =
  match t.backend with Single _ -> [] | Replicated repl -> Replicated.Kv.replica_revs repl

let leader t =
  match t.backend with Single _ -> None | Replicated repl -> Replicated.Kv.leader repl

let subscribers t =
  Hashtbl.fold (fun addr _ acc -> addr :: acc) t.streams [] |> List.sort String.compare

(* Same order pin as the apiserver's subscriber table (see
   {!Apiserver}): [streams] replays the exact mutation sequence the
   old subscription hashtable saw, so assigning dispatch order keys
   from its iteration order keeps every [Pipe.send] — and with it the
   shared-RNG latency draws behind the fixed-seed journals — in the
   pre-index order. *)
let repin t =
  if t.order_dirty then begin
    t.order_dirty <- false;
    let i = ref 0 in
    Hashtbl.iter
      (fun _ handle ->
        History.Dispatch.set_order t.subs handle ~order:!i;
        incr i)
      t.streams
  end

(* The committed-history stream: per-store commits for a single backend,
   the canonical (leader-committed) first-apply stream for a replicated
   one — a lagging follower's applies never re-enter it. *)
let on_commit t f =
  match t.backend with
  | Single kv -> Etcdlike.Kv.on_commit kv f
  | Replicated repl -> Replicated.Kv.on_commit repl f

let requests_served t = t.requests_served

let origin_of_rev t rev =
  Option.value (Hashtbl.find_opt t.origins rev) ~default:"boot"

let commit_trace_id t ~rev = Hashtbl.find_opt t.commit_ids rev

(* Seed a binding below the fault surface: a direct store write in single
   mode, a per-replica boot-snapshot write in replicated mode. Use before
   [Dsim.Engine.run] only. *)
let seed t key value =
  match t.backend with
  | Single kv -> ignore (Etcdlike.Kv.put kv key value)
  | Replicated repl -> ignore (Replicated.Kv.seed repl key value)

let push_to_sub sub (e : Resource.value History.Event.t) =
  if e.History.Event.rev > sub.last_sent && History.Event.matches_prefix sub.prefix e then begin
    sub.last_sent <- e.History.Event.rev;
    Pipe.send sub.pipe (Pipe.Event e)
  end

let attach_sub t (w : Messages.watch_request) ~replica ~backlog reply =
  (match Hashtbl.find_opt t.streams w.Messages.stream_id with
  | Some old_handle ->
      (match History.Dispatch.find t.subs old_handle with
      | Some old -> Pipe.close old.pipe
      | None -> ());
      ignore (History.Dispatch.remove t.subs old_handle)
  | None -> ());
  let edge = History.Intercept.{ src = t.name; dst = w.Messages.subscriber } in
  let pipe =
    Pipe.create ~net:t.net ~intercept:t.intercept ~edge ~deliver:w.Messages.deliver ()
  in
  let sub = { pipe; prefix = w.Messages.prefix; last_sent = w.Messages.start_rev; replica } in
  let handle = History.Dispatch.add t.subs ?prefix:w.Messages.prefix sub in
  Hashtbl.replace t.streams w.Messages.stream_id handle;
  t.order_dirty <- true;
  List.iter (push_to_sub sub) backlog;
  reply (Ok Messages.Watching)

let handle_watch t ~src (w : Messages.watch_request) reply =
  match t.backend with
  | Single kv -> begin
      match Etcdlike.Kv.since kv ~rev:w.Messages.start_rev with
      | Error (`Compacted compacted_rev) -> reply (Ok (Messages.Compacted compacted_rev))
      | Ok backlog -> attach_sub t w ~replica:None ~backlog reply
    end
  | Replicated repl -> begin
      (* The stream is pinned to the replica serving [src] right now:
         its backlog comes from that replica's applied log, and later
         pushes from that replica's applies — a partitioned replica's
         watchers silently stop seeing new commits, a crashed replica's
         watchers stop seeing bookmarks too (and the consumer's watchdog
         eventually notices the silence). *)
      match Replicated.Kv.serving_replica repl ~src with
      | None -> reply (Error `Unavailable)
      | Some rid -> begin
          let store = Option.get (Replicated.Kv.replica_store repl rid) in
          match Etcdlike.Kv.since store ~rev:w.Messages.start_rev with
          | Error (`Compacted compacted_rev) -> reply (Ok (Messages.Compacted compacted_rev))
          | Ok backlog -> attach_sub t w ~replica:(Some rid) ~backlog reply
        end
    end

let note_txn_outcome t ~origin ~lease (outcome : Resource.value Etcdlike.Txn.outcome) =
  List.iter
    (fun (e : Resource.value History.Event.t) ->
      Hashtbl.replace t.origins e.History.Event.rev origin;
      match lease, e.History.Event.op with
      | Some lease, (History.Event.Create | History.Event.Update) ->
          Etcdlike.Lease.attach t.leases ~lease ~key:e.History.Event.key
      | _ -> ())
    outcome.Etcdlike.Txn.events

(* A lease-driven delete in replicated mode is an ordinary proposal; tag
   its committed revision with the given origin when it lands. *)
let propose_delete repl t ~origin key =
  Replicated.Kv.delete repl key (function
    | Ok (Some e) -> Hashtbl.replace t.origins e.History.Event.rev origin
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
  | Messages.Lease_revoke { lease }, Single kv ->
      List.iter (fun key -> ignore (Etcdlike.Kv.delete kv key))
        (Etcdlike.Lease.revoke t.leases ~lease);
      reply (Ok ())
  | Messages.Lease_revoke { lease }, Replicated repl ->
      List.iter
        (fun key -> propose_delete repl t ~origin:"lease-revoke" key)
        (Etcdlike.Lease.revoke t.leases ~lease);
      reply (Ok ())
  | Messages.Watch w, _ -> handle_watch t ~src w reply

(* Shared commit-side bookkeeping: every committed-history event becomes
   a caused trace entry and the new causal frontier, so watch deliveries
   pushed downstream link back to the commit. *)
let install_commit_listener t =
  let engine = Dsim.Network.engine t.net in
  let commits = Dsim.Metrics.Counter.resolve (Dsim.Engine.metrics engine) "etcd.commits" in
  on_commit t (fun event ->
      let rev = event.History.Event.rev in
      let id =
        Dsim.Engine.emit engine ~actor:t.name ~kind:"etcd.commit"
          (Printf.sprintf "rev %d %s" rev (History.Event.describe event))
      in
      Hashtbl.replace t.commit_ids rev id;
      Dsim.Metrics.Counter.incr commits)

(* Bookmarks every 200 ms of virtual time. *)
let bookmark_period = 200_000

let create ~net ~intercept ?(name = "etcd") ?watch_window ?replication () =
  let backend =
    match replication with
    | None -> Single (Etcdlike.Kv.create ())
    | Some { replicas; read; read_fallback } ->
        Replicated
          (Replicated.Kv.create ~net ~n:replicas ~prefix:name ~read ~fallback:read_fallback
             ?watch_window ())
  in
  let t =
    {
      name;
      net;
      intercept;
      backend;
      subs = History.Dispatch.create ();
      streams = Hashtbl.create 8;
      order_dirty = false;
      watch_window;
      requests_served = 0;
      origins = Hashtbl.create 256;
      commit_ids = Hashtbl.create 256;
      leases = Etcdlike.Lease.create ();
      rpc = Dsim.Metrics.Counter.resolve (Dsim.Engine.metrics (Dsim.Network.engine net)) ("rpc." ^ name);
    }
  in
  let engine = Dsim.Network.engine net in
  install_commit_listener t;
  (match t.backend with
  | Single kv ->
      Etcdlike.Kv.on_commit kv (fun event ->
          repin t;
          History.Dispatch.iter_matching t.subs ~key:event.History.Event.key (fun _ sub ->
              push_to_sub sub event);
          match t.watch_window with
          | Some window -> Etcdlike.Kv.compact_keep_last kv window
          | None -> ())
  | Replicated repl ->
      (* Watch pushes ride each replica's *applies*, not the canonical
         stream: a stream pinned to a lagging follower only sees what
         that follower has applied. (Store compaction happens inside the
         replicated layer, per replica.) The trie routes by key prefix;
         the replica pin is a residual filter on the matches. *)
      List.iter
        (fun rid ->
          Replicated.Kv.on_replica_commit repl rid (fun event ->
              repin t;
              History.Dispatch.iter_matching t.subs ~key:event.History.Event.key (fun _ sub ->
                  if sub.replica = Some rid then push_to_sub sub event)))
        (Replicated.Kv.replica_ids repl);
      Replicated.Kv.start repl);
  Messages.Store.register net name
    { serve = (fun ~src request reply -> serve t ~src request reply) };
  Dsim.Engine.every engine ~period:bookmark_period (fun () ->
      (match t.backend with
      | Single kv ->
          let rev = Etcdlike.Kv.rev kv in
          repin t;
          History.Dispatch.iter_all t.subs (fun _ sub -> Pipe.send sub.pipe (Pipe.Bookmark rev))
      | Replicated repl ->
          (* Bookmarks carry the *serving replica's* frontier, and only
             while it is up: a partitioned follower keeps heartbeating
             its stale revision (its watchers never notice), a crashed
             one goes silent (its watchers' watchdogs eventually fire). *)
          repin t;
          History.Dispatch.iter_all t.subs (fun _ sub ->
              match sub.replica with
              | Some rid when Dsim.Network.is_up t.net rid ->
                  Pipe.send sub.pipe (Pipe.Bookmark (Replicated.Kv.replica_rev repl rid))
              | Some _ -> ()
              | None -> ()));
      true);
  (* Expire leases against the virtual clock and delete their keys; the
     deletions are ordinary committed events (proposed through the
     leader when replicated), so watchers see the lock vanish. With no
     lease granted there is nothing to expire; the timer keeps ticking
     so a later expiry lands on the same phase. *)
  Dsim.Engine.every engine ~period:100_000 (fun () ->
      if Etcdlike.Lease.active t.leases > 0 then
        List.iter
          (fun (_, keys) ->
            List.iter
              (fun key ->
                match t.backend with
                | Single kv ->
                    Hashtbl.replace t.origins (Etcdlike.Kv.rev kv + 1) "lease-expiry";
                    ignore (Etcdlike.Kv.delete kv key)
                | Replicated repl -> propose_delete repl t ~origin:"lease-expiry" key)
              keys)
          (Etcdlike.Lease.expire t.leases ~now:(Dsim.Engine.now engine));
      true);
  t
