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
  leases : Etcdlike.Lease.t;
  expiring : (Etcdlike.Lease.id, unit) Hashtbl.t;  (* expired, deletes in flight *)
  rpc : Dsim.Metrics.Counter.t;  (* ["rpc.<name>"] *)
}

let name t = t.name

let commits t = t.commits

let rev t = Etcdlike.Commits.(rev (view t.commits))

let subscribers t = Streams.ids t.streams

(* --- the backend primitives: everything else goes through these --- *)

(* The authoritative store view: the single store, or (replicated) the
   store of the replica at the canonical frontier. Read-only for
   replicated backends — mutations must go through the consensus path. *)
let kv t =
  match t.backend with Single kv -> kv | Replicated repl -> Replicated.Kv.canonical_store repl

let replicas t = match t.backend with Single _ -> [] | Replicated repl -> Replicated.Kv.replicas repl

(* Seed a binding below the fault surface: a direct store write in single
   mode, a per-replica boot-snapshot write in replicated mode; either way
   an uncaused commit. Use before [Dsim.Engine.run] only. *)
let seed t key value =
  Etcdlike.Commits.boot t.commits (fun () ->
      match t.backend with
      | Single kv -> ignore (Etcdlike.Kv.put kv key value)
      | Replicated repl -> ignore (Replicated.Kv.seed repl key value))

(* The store serving a request from [src], and the replica it belongs
   to: the single store, or (replicated) the replica [src] is routed to
   right now, [None] when that replica is down under [`Reject]. A read
   answers with the serving store's revision, and a watch stream is
   pinned to it: its backlog comes from that store's retained log and
   later pushes from that store's commits — a partitioned replica's
   watchers silently stop seeing new commits, a crashed replica's
   watchers stop seeing bookmarks too (and the consumer's watchdog
   eventually notices the silence). *)
let route t ~src =
  match t.backend with
  | Single kv -> Some (None, kv)
  | Replicated repl -> (
      match Replicated.Kv.route repl ~src with
      | Some (rid, store) -> Some (Some rid, store)
      | None -> None)

(* Labels each committed revision with [origin], attaches the keys the
   transaction created or updated to [lease], and replies. *)
let settle t ~origin ~lease reply (outcome : Resource.value Etcdlike.Txn.outcome) =
  List.iter
    (fun (e : Resource.value History.Event.t) ->
      Etcdlike.Commits.label t.commits ~rev:e.History.Event.rev origin;
      match lease, e.History.Event.op with
      | Some lease, (History.Event.Create | History.Event.Update) ->
          Etcdlike.Lease.attach t.leases ~lease ~key:e.History.Event.key
      | _ -> ())
    outcome.Etcdlike.Txn.events;
  reply (Ok { Messages.succeeded = outcome.Etcdlike.Txn.succeeded; rev = outcome.Etcdlike.Txn.rev })

(* The one commit path. The single store evaluates the transaction in
   place. A replicated store proposes it through the leader and defers
   the reply until the first replica applies the committed entry (the
   network layer holds the continuation), or fails over as an outage
   when nothing commits the proposal within its deadline. *)
let submit t ~origin ~lease txn reply =
  match t.backend with
  | Single kv -> settle t ~origin ~lease reply (Etcdlike.Txn.eval kv txn)
  | Replicated repl ->
      Replicated.Kv.txn repl txn (function
        | Ok outcome -> settle t ~origin ~lease reply outcome
        | Error `Unavailable -> reply (Error `Unavailable))

(* --- served through the primitives ------------------------------- *)

(* Deletes a lease's keys and calls [k] once every delete has settled.
   Only when all of them committed is the lease forgotten and [k] given
   [Ok ()]; otherwise [k] gets [Error `Unavailable] and the lease keeps
   its keys, so a store that cannot commit (a replicated one without
   quorum) deletes them later instead of never. Only a delete that
   commits labels its revision with [origin]; a key already gone
   commits nothing. The single store commits inline, so there [k] runs
   before this returns. *)
let revoke_lease t ~origin ~lease k =
  let keys = Etcdlike.Lease.keys t.leases ~lease in
  let outstanding = ref (List.length keys) and failed = ref false in
  let settled () =
    if !failed then k (Error `Unavailable)
    else begin
      ignore (Etcdlike.Lease.revoke t.leases ~lease);
      k (Ok ())
    end
  in
  let deleted reply =
    (match reply with Ok _ -> () | Error `Unavailable -> failed := true);
    decr outstanding;
    if !outstanding = 0 then settled ()
  in
  if keys = [] then settled ()
  else List.iter (fun key -> submit t ~origin ~lease:None (Messages.delete key) deleted) keys

let handle_watch t ~src (w : Messages.watch_request) reply =
  match route t ~src with
  | None -> reply (Error `Unavailable)
  | Some (replica, store) -> begin
      match Etcdlike.Kv.since store ~rev:w.Messages.start_rev with
      | Error (`Compacted compacted_rev) -> reply (Ok (Messages.Compacted compacted_rev))
      | Ok backlog ->
          Streams.subscribe t.streams w ~replica ~backlog:(fun push -> List.iter push backlog);
          reply (Ok Messages.Watching)
    end

(* Every read is served from the routed store; [quorum] only matters to
   an apiserver. *)
let serve : type a. t -> src:string -> a Messages.request -> (a Messages.reply -> unit) -> unit =
 fun t ~src request reply ->
  Dsim.Metrics.Counter.incr t.rpc;
  match request with
  | Messages.List { prefix; quorum = _ } -> begin
      match route t ~src with
      | Some (_, store) ->
          reply (Ok { Messages.items = Etcdlike.Kv.range store ~prefix; rev = Etcdlike.Kv.rev store })
      | None -> reply (Error `Unavailable)
    end
  | Messages.Get { key; quorum = _ } -> begin
      match route t ~src with
      | Some (_, store) -> reply (Ok (Etcdlike.Kv.get store key))
      | None -> reply (Error `Unavailable)
    end
  | Messages.Txn { txn; origin; lease } -> submit t ~origin ~lease txn reply
  | Messages.Lease_grant { ttl } ->
      let now = Dsim.Engine.now (Dsim.Network.engine t.net) in
      reply (Ok (Etcdlike.Lease.grant t.leases ~ttl ~now))
  | Messages.Lease_keepalive { lease } ->
      let now = Dsim.Engine.now (Dsim.Network.engine t.net) in
      reply
        (Ok
           ((not (Hashtbl.mem t.expiring lease))
           && Etcdlike.Lease.keepalive t.leases ~lease ~now))
  | Messages.Lease_revoke { lease } ->
      (* Answered once the deletes settle: [`Unavailable] keeps the
         lease, and its expiry deletes the keys later. *)
      revoke_lease t ~origin:"lease-revoke" ~lease reply
  | Messages.Watch w -> handle_watch t ~src w reply

(* Bookmarks every 200 ms of virtual time. *)
let bookmark_period = 200_000

(* The replicated backend's members: Replicated.Kv names its replicas
   etcd-1 .. etcd-n. *)
let replica_addresses = [ "etcd-1"; "etcd-2"; "etcd-3" ]

(* A serving store's commit pushes the streams pinned to it, caused by
   the revision's anchor; the commit keeps its own causes. Every store
   runs it after the feed has anchored the revision. *)
let push engine commits streams ~replica =
  let feed = Etcdlike.Commits.view commits in
  fun (e : Resource.value History.Event.t) ->
    let cause = Dsim.Engine.current_cause engine in
    Dsim.Engine.set_cause engine (Etcdlike.Commits.anchor feed ~rev:e.History.Event.rev);
    Streams.publish streams ~replica e;
    Dsim.Engine.set_cause engine cause

let create ~net ~intercept ?replication () =
  let name = "etcd" in
  let engine = Dsim.Network.engine net in
  let streams = Streams.create ~net ~intercept ~src:name in
  let commits = Etcdlike.Commits.create engine ~actor:name ~kind:"etcd.commit" in
  let serve_watches store ~replica =
    Etcdlike.Kv.on_commit store (push engine commits streams ~replica)
  in
  (* The feed follows the single store, or the replicated store's
     canonical (leader-committed) stream, as their first listener.
     Watch pushes ride each replica's *applies*, not the canonical
     stream: a stream pinned to a lagging follower only sees what that
     follower has applied. *)
  let backend =
    match replication with
    | None ->
        let kv = Etcdlike.Kv.create () in
        Etcdlike.Kv.on_commit kv (Etcdlike.Commits.commit commits);
        serve_watches kv ~replica:None;
        Single kv
    | Some { read; read_fallback } ->
        let repl =
          Replicated.Kv.create ~net ~n:(List.length replica_addresses) ~read
            ~fallback:read_fallback ~canonical:(Etcdlike.Commits.commit commits) ()
        in
        List.iter
          (fun (rid, store) -> serve_watches store ~replica:(Some rid))
          (Replicated.Kv.replicas repl);
        Replicated.Kv.start repl;
        Replicated repl
  in
  let t =
    {
      name;
      net;
      backend;
      streams;
      commits;
      leases = Etcdlike.Lease.create ();
      expiring = Hashtbl.create 8;
      rpc = Dsim.Metrics.Counter.resolve (Dsim.Engine.metrics engine) ("rpc." ^ name);
    }
  in
  Messages.Store.register net name
    { serve = (fun ~src request reply -> serve t ~src:(Dsim.Network.address src) request reply) };
  (* Bookmarks carry the frontier of the store serving each stream: a
     partitioned follower keeps heartbeating its stale revision (its
     watchers never notice), a crashed one goes silent (its watchers'
     watchdogs eventually fire). *)
  let frontier = function
    | None -> Etcdlike.Kv.rev (kv t)
    | Some rid -> Etcdlike.Kv.rev (List.assoc rid (replicas t))
  in
  Dsim.Engine.every engine ~period:bookmark_period (fun () ->
      Streams.heartbeat t.streams ~frontier ~seal:false;
      true);
  (* Expire leases against the virtual clock and delete their keys; the
     deletions are ordinary committed events (proposed through the
     leader when replicated), so watchers see the lock vanish. An
     expired lease whose deletes are in flight answers keepalives with
     [false]; if they fail, a later tick retries them. With no lease
     granted there is nothing to expire; the timer keeps ticking so a
     later expiry lands on the same phase. *)
  Dsim.Engine.every engine ~period:100_000 (fun () ->
      if Etcdlike.Lease.active t.leases > 0 then
        List.iter
          (fun (lease, _) ->
            if not (Hashtbl.mem t.expiring lease) then begin
              Hashtbl.replace t.expiring lease ();
              revoke_lease t ~origin:"lease-expiry" ~lease (fun _ ->
                  Hashtbl.remove t.expiring lease)
            end)
          (Etcdlike.Lease.expired t.leases ~now:(Dsim.Engine.now engine));
      true);
  t
