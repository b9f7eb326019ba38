(* The leader serves linearizable writes, one-shot watches and the
   follower's catch-up pulls; the follower serves reads. *)
type pulled =
  | Events of string History.Event.t list
  | Snapshot of { snapshot : (string * string * int) list; rev : int }
      (** The puller is below the compaction frontier: the intervening
          events are gone, so catch-up must be a full state transfer of
          (key, value, leader mod-revision) at leader revision [rev]. *)

type _ leader_request =
  | Cas : { key : string; expected_mod_rev : int; value : string option } -> bool leader_request
  | Write : { key : string; value : string } -> unit leader_request
  | Watch : { key : string } -> (string * int) option leader_request
      (** arm a one-shot watch, reply with the current value *)
  | Pull : { since : int } -> pulled leader_request

type _ follower_request =
  | Read : { key : string; sync : bool } -> (string * int) option follower_request

module Leader = Dsim.Network.Service (struct
  type 'a request = 'a leader_request
  type 'a reply = 'a
  let name = "zk-leader"
end)

module Follower = Dsim.Network.Service (struct
  type 'a request = 'a follower_request
  type 'a reply = 'a
  let name = "zk-follower"
end)

(* One-shot watch firing, cast to the watcher: consumed at commit,
   delivered after one network latency. The client must re-arm to hear
   anything more. *)
type _ notify = Fired : { key : string; event : string History.Event.t } -> unit notify

module Notify = Dsim.Network.Service (struct
  type 'a request = 'a notify
  type 'a reply = 'a
  let name = "zk-notify"
end)

let listen net addr f =
  Notify.register net addr
    {
      serve =
        (fun (type a) ~src:_ (Fired { key; event } : a notify) (_ : a -> unit) -> f ~key event);
    }

type hub_order = Replication_first | Watches_first

type t = {
  net : Dsim.Network.t;
  leader : Dsim.Network.peer;
  follower : Dsim.Network.peer;
  replication_lag : int;
  compaction_window : int option;
  follower_leader_revs : bool;
  intercept : string History.Intercept.t;
  leader_kv : string Etcdlike.Kv.t;
  follower_kv : string Etcdlike.Kv.t;  (* replica applied with lag *)
  fl_revs : (string, int) Hashtbl.t;  (* key -> leader mod-rev, as replicated *)
  watches : (string, Dsim.Network.peer list) Hashtbl.t;  (* key -> armed one-shot watchers *)
  commits : string Etcdlike.Commits.t;  (* the leader's committed history *)
  mutable caught_up_to : int;  (* leader revision the replica has applied *)
  mutable repl_ready_at : int;  (* FIFO frontier of the replication stream *)
  mutable leader_ops : int;
  mutable follower_resyncs : int;
  mutable tap_apply : string History.Event.t -> unit;
  mutable tap_resync : int -> unit;
}

let leader_name = "zk-leader"

let follower_name = "zk-follower"

let leader_kv t = t.leader_kv

let commits t = t.commits

let follower_kv t = t.follower_kv

let follower_rev t = History.State.rev (Etcdlike.Kv.state t.follower_kv)

let follower_caught_up_to t = t.caught_up_to

let serves_leader_revs t = t.follower_leader_revs

(* The follower's state as readers observe it: values from the replica,
   mod-revisions from whichever numbering domain [follower_read] serves.
   This is the (H', S') a conformance check must judge — the replica's
   raw local revisions are an implementation detail that stops matching
   the committed numbering after a post-compaction resync. In the bug
   era readers see the raw replica, so its state is returned as is. *)
let observed_state t =
  if not t.follower_leader_revs then Etcdlike.Kv.state t.follower_kv
  else
    let serving =
      List.map
        (fun (key, (v, local_rev)) ->
          (key, v, Option.value (Hashtbl.find_opt t.fl_revs key) ~default:local_rev))
        (History.State.bindings (Etcdlike.Kv.state t.follower_kv))
    in
    List.fold_left
      (fun s (key, v, rev) ->
        History.State.apply s (History.Event.make ~rev ~key ~op:History.Event.Create (Some v)))
      History.State.empty
      (List.sort (fun (_, _, a) (_, _, b) -> compare a b) serving)

let leader_ops t = t.leader_ops

let follower_resyncs t = t.follower_resyncs

let engine t = Dsim.Network.engine t.net

let on_follower_apply t f = t.tap_apply <- f

let on_follower_resync t f = t.tap_resync <- f

(* Events the follower has not yet applied, by revision. The side table
   remembers each key's *leader* mod-revision: the replica assigns its own
   local revisions, and after a post-compaction resync the two numbering
   domains drift apart for good — serving leader revisions to readers is
   the HBASE-3136-family fix gated by [follower_leader_revs]. *)
let follower_apply t (e : string History.Event.t) =
  (match e.History.Event.op, e.History.Event.value with
  | History.Event.Delete, _ ->
      Hashtbl.remove t.fl_revs e.History.Event.key;
      ignore (Etcdlike.Kv.delete t.follower_kv e.History.Event.key)
  | (History.Event.Create | History.Event.Update), Some v ->
      Hashtbl.replace t.fl_revs e.History.Event.key e.History.Event.rev;
      ignore (Etcdlike.Kv.put t.follower_kv e.History.Event.key v)
  | (History.Event.Create | History.Event.Update), None -> ());
  t.tap_apply e

let leader_snapshot t =
  History.State.bindings_with_prefix (Etcdlike.Kv.state t.leader_kv) ~prefix:""
  |> List.map (fun (key, (v, mod_rev)) -> (key, v, mod_rev))

let note_origin t ~src (e : string History.Event.t) =
  Etcdlike.Commits.label t.commits ~rev:e.History.Event.rev (Dsim.Network.address src)

(* One-shot watch dispatch: every registration on the key is consumed at
   commit time; whether the notification reaches the watcher is the
   interceptor's call (and the network's — a crashed watcher just misses
   it). Anything committed between this firing and the client's re-arm is
   invisible to the client: the protocol's built-in observability gap. *)
let fire_watches t (e : string History.Event.t) =
  let key = e.History.Event.key in
  match Hashtbl.find_opt t.watches key with
  | None | Some [] -> ()
  | Some dsts ->
      Hashtbl.remove t.watches key;
      List.iter
        (fun watcher ->
          let dst = Dsim.Network.address watcher in
          let edge = { History.Intercept.src = leader_name; dst } in
          let notify () = Notify.cast ~src:t.leader ~dst:watcher (Fired { key; event = e }) in
          match History.Intercept.decide t.intercept edge e with
          | History.Intercept.Drop ->
              Dsim.Engine.record (engine t) ~actor:dst ~kind:"pipe.drop"
                (Printf.sprintf "%s->%s %s" leader_name dst (History.Event.describe e))
          | History.Intercept.Pass -> notify ()
          | History.Intercept.Delay d -> ignore (Dsim.Engine.schedule (engine t) ~delay:d notify))
        dsts

let serve_leader : type a. t -> src:Dsim.Network.peer -> a leader_request -> (a -> unit) -> unit =
 fun t ~src request reply ->
  t.leader_ops <- t.leader_ops + 1;
  match request with
  | Cas { key; expected_mod_rev; value } ->
      let outcome =
        match value with
        | Some v ->
            Etcdlike.Txn.eval t.leader_kv
              (Etcdlike.Txn.put_if_unchanged ~key ~expected_mod_rev v)
        | None ->
            Etcdlike.Txn.eval t.leader_kv
              (Etcdlike.Txn.delete_if_unchanged ~key ~expected_mod_rev)
      in
      List.iter (note_origin t ~src) outcome.Etcdlike.Txn.events;
      reply outcome.Etcdlike.Txn.succeeded
  | Write { key; value } ->
      let e = Etcdlike.Kv.put t.leader_kv key value in
      note_origin t ~src e;
      reply ()
  | Watch { key } ->
      (* getData(watch=true): arm (replacing any prior registration by the
         same client) and return the current value in the same breath. *)
      let armed = Option.value (Hashtbl.find_opt t.watches key) ~default:[] in
      let by_src d = String.equal (Dsim.Network.address d) (Dsim.Network.address src) in
      Hashtbl.replace t.watches key (List.filter (fun d -> not (by_src d)) armed @ [ src ]);
      reply (Etcdlike.Kv.get t.leader_kv key)
  | Pull { since } -> (
      (* The follower replica's revisions differ from the leader's (it
         assigns its own), so it pulls by the leader revision it has
         caught up to. *)
      match Etcdlike.Kv.since t.leader_kv ~rev:since with
      | Ok events -> reply (Events events)
      | Error (`Compacted _) ->
          (* Not an empty event list: an empty list means "caught up",
             and a puller below the compaction frontier is anything but.
             Ship the full leader state so the follower can resync. *)
          reply (Snapshot { snapshot = leader_snapshot t; rev = Etcdlike.Kv.rev t.leader_kv }))

let follower_read t key =
  let value =
    match Etcdlike.Kv.get t.follower_kv key with
    | None -> None
    | Some (v, local_rev) ->
        if t.follower_leader_revs then
          Some (v, Option.value (Hashtbl.find_opt t.fl_revs key) ~default:local_rev)
        else Some (v, local_rev)
  in
  value

(* Full state transfer: make the replica's bindings equal the snapshot
   (its own revision counter keeps advancing — revisions are local), and
   advance the catch-up frontier past everything the snapshot covers. *)
let follower_resync t ~snapshot ~rev =
  let current =
    History.State.bindings_with_prefix (Etcdlike.Kv.state t.follower_kv) ~prefix:""
  in
  List.iter
    (fun (key, _) ->
      if not (List.exists (fun (k, _, _) -> String.equal k key) snapshot) then begin
        Hashtbl.remove t.fl_revs key;
        ignore (Etcdlike.Kv.delete t.follower_kv key)
      end)
    current;
  List.iter
    (fun (key, v, mod_rev) ->
      Hashtbl.replace t.fl_revs key mod_rev;
      match Etcdlike.Kv.get t.follower_kv key with
      | Some (v', _) when String.equal v' v -> ()
      | _ -> ignore (Etcdlike.Kv.put t.follower_kv key v))
    snapshot;
  t.caught_up_to <- rev;
  t.follower_resyncs <- t.follower_resyncs + 1;
  Dsim.Engine.record (engine t) ~actor:follower_name ~kind:"zk.resync"
    (Printf.sprintf "catch-up past compaction: full resync at leader rev %d" rev);
  t.tap_resync rev

let serve_follower : type a. t -> a follower_request -> (a -> unit) -> unit =
 fun t request reply ->
  match request with
  | Read { key; sync } ->
      if not sync then reply (follower_read t key)
      else
        (* HBASE-3137's cost: catch up with the leader before serving. A
           failed pull still serves the local read. *)
        Leader.call ~src:t.follower ~dst:t.leader (Pull { since = t.caught_up_to })
          (function
          | Ok (Events events) ->
              List.iter
                (fun (e : string History.Event.t) ->
                  if e.History.Event.rev > t.caught_up_to then begin
                    follower_apply t e;
                    t.caught_up_to <- e.History.Event.rev
                  end)
                events;
              reply (follower_read t key)
          | Ok (Snapshot { snapshot; rev }) ->
              follower_resync t ~snapshot ~rev;
              reply (follower_read t key)
          | Error _ -> reply (follower_read t key))

(* Stream replication: each leader commit reaches the replica one lag
   later, in order (the follower's (H', S')). The stream consults the
   interceptor like any other delivery edge; FIFO order survives a Delay
   because each event's apply time is clamped to the stream frontier. *)
let deliver_replication t (event : string History.Event.t) =
  let edge = { History.Intercept.src = leader_name; dst = follower_name } in
  let extra =
    match History.Intercept.decide t.intercept edge event with
    | History.Intercept.Pass -> Some 0
    | History.Intercept.Delay d -> Some d
    | History.Intercept.Drop ->
        Dsim.Engine.record (engine t) ~actor:follower_name ~kind:"pipe.drop"
          (Printf.sprintf "%s->%s %s" leader_name follower_name (History.Event.describe event));
        None
  in
  match extra with
  | None -> ()
  | Some extra ->
      let now = Dsim.Engine.now (engine t) in
      let at = max (now + t.replication_lag + extra) t.repl_ready_at in
      t.repl_ready_at <- at;
      ignore
        (Dsim.Engine.schedule (engine t) ~delay:(at - now) (fun () ->
             if event.History.Event.rev > t.caught_up_to then begin
               follower_apply t event;
               t.caught_up_to <- event.History.Event.rev
             end))

let create ~net ?(replication_lag = 10_000) ?compaction_window ?(follower_leader_revs = false)
    ?(hub_order = Replication_first) ?intercept () =
  let leader_kv = Etcdlike.Kv.create () in
  let t =
    {
      net;
      leader = Dsim.Network.peer net leader_name;
      follower = Dsim.Network.peer net follower_name;
      replication_lag;
      compaction_window;
      follower_leader_revs;
      intercept = (match intercept with Some i -> i | None -> History.Intercept.create ());
      leader_kv;
      follower_kv = Etcdlike.Kv.create ();
      fl_revs = Hashtbl.create 64;
      watches = Hashtbl.create 16;
      commits =
        Etcdlike.Commits.create (Dsim.Network.engine net) ~actor:leader_name ~kind:"zk.commit";
      caught_up_to = 0;
      repl_ready_at = 0;
      leader_ops = 0;
      follower_resyncs = 0;
      tap_apply = (fun _ -> ());
      tap_resync = (fun _ -> ());
    }
  in
  (* The replication stream and the one-shot watch notifier are the
     first leader commit listeners. Their registration order decides
     same-commit fan-out order; semantics must not depend on it (the
     compaction-resync suite runs under both). *)
  (match hub_order with
  | Replication_first ->
      Etcdlike.Kv.on_commit leader_kv (deliver_replication t);
      Etcdlike.Kv.on_commit leader_kv (fire_watches t)
  | Watches_first ->
      Etcdlike.Kv.on_commit leader_kv (fire_watches t);
      Etcdlike.Kv.on_commit leader_kv (deliver_replication t));
  Etcdlike.Kv.on_commit t.leader_kv (Etcdlike.Commits.commit t.commits);
  (* Retention: keep only the last [w] events pullable. Registered after
     the replication and watch listeners and the feed, so fan-out and
     every consumer always precede the trim. *)
  (match t.compaction_window with
  | Some w ->
      Etcdlike.Kv.on_commit t.leader_kv (fun _ -> Etcdlike.Kv.compact_keep_last t.leader_kv w)
  | None -> ());
  Leader.register net leader_name
    { serve = (fun ~src request reply -> serve_leader t ~src request reply) };
  Follower.register net follower_name
    { serve = (fun ~src:_ request reply -> serve_follower t request reply) };
  t

(* A read's value and mod-revision, 0 for an absent key. *)
let found k = function
  | Ok (Some (v, mod_rev)) -> k (Ok (Some v, mod_rev))
  | Ok None -> k (Ok (None, 0))
  | Error (_ : Dsim.Network.error) -> k (Error `Unavailable)

let unavailable k = function
  | Ok v -> k (Ok v)
  | Error (_ : Dsim.Network.error) -> k (Error `Unavailable)

let read t ~src ?(sync = false) key k =
  Follower.call ~src ~dst:t.follower (Read { key; sync }) (found k)

let cas t ~src ~key ~expected_mod_rev value k =
  Leader.call ~src ~dst:t.leader (Cas { key; expected_mod_rev; value }) (unavailable k)

let write t ~src ~key value k =
  Leader.call ~src ~dst:t.leader (Write { key; value }) (unavailable k)

let arm_watch t ~src key k = Leader.call ~src ~dst:t.leader (Watch { key }) (found k)
