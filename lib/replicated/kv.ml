type read_mode = Leader | Follower of string | Spread

type fallback = [ `Stale | `Reject ]

type 'v replica = {
  r_id : string;
  store : 'v Etcdlike.Kv.t;
  (* Proposal ids this replica's state machine already executed. A
     proposal re-submitted after a leader change can be committed twice;
     the second occupies a log slot but must not re-run — all replicas
     skip it at the same log position, so determinism is preserved. *)
  applied_pids : (int, unit) Hashtbl.t;
}

type 'v pending = {
  payload : string;
  callback : ('v Etcdlike.Txn.outcome, [ `Unavailable ]) result -> unit;
  submitted_at : int;
  mutable last_attempt : int;
}

type 'v t = {
  net : Dsim.Network.t;
  group : Raftlite.Group.t;
  replicas : 'v replica array;
  read_mode : read_mode;
  fallback : fallback;
  watch_window : int option;
  (* The canonical committed history (H, S): the frontier of first
     applies. Every replica applies the same dense revision sequence;
     whichever replica reaches a revision first carries it into the
     canonical stream, so the stream is exactly the leader-committed
     history (the leader applies at quorum ack, before any follower
     learns the new commit index). *)
  mutable canonical_rev : int;
  mutable canonical_ix : int;
  mutable canonical_listeners : ('v History.Event.t -> unit) array;
  mutable canonical_listener_count : int;
  mutable next_pid : int;
  pending : (int, 'v pending) Hashtbl.t;
}

let engine t = Dsim.Network.engine t.net

let group t = t.group

let n t = Array.length t.replicas

let read_mode t = t.read_mode

let fallback t = t.fallback

let replica_ids t = Array.to_list (Array.map (fun r -> r.r_id) t.replicas)

let find_replica t id = Array.to_list t.replicas |> List.find_opt (fun r -> String.equal r.r_id id)

let replica_store t id = Option.map (fun r -> r.store) (find_replica t id)

let replica_rev t id =
  match find_replica t id with Some r -> Etcdlike.Kv.rev r.store | None -> 0

let replica_revs t =
  Array.to_list (Array.map (fun r -> (r.r_id, Etcdlike.Kv.rev r.store)) t.replicas)

let on_replica_commit t id f =
  match find_replica t id with Some r -> Etcdlike.Kv.on_commit r.store f | None -> ()

let rev t = t.canonical_rev

let state t = Etcdlike.Kv.state t.replicas.(t.canonical_ix).store

let canonical_store t = t.replicas.(t.canonical_ix).store

let leader t = Option.map Raftlite.Node.id (Raftlite.Group.leader t.group)

let on_commit t f =
  let cap = Array.length t.canonical_listeners in
  if t.canonical_listener_count = cap then begin
    let grown = Array.make (max 4 (2 * cap)) f in
    Array.blit t.canonical_listeners 0 grown 0 cap;
    t.canonical_listeners <- grown
  end;
  t.canonical_listeners.(t.canonical_listener_count) <- f;
  t.canonical_listener_count <- t.canonical_listener_count + 1

let fire_canonical t e =
  for i = 0 to t.canonical_listener_count - 1 do
    t.canonical_listeners.(i) e
  done

(* Advance the canonical frontier through this replica's freshly applied
   events. Lagging replicas re-apply revisions the frontier already
   passed; those are content-identical (deterministic apply over an
   identical log prefix) and skipped. *)
let note_applied t ~ix (events : 'v History.Event.t list) =
  List.iter
    (fun (e : 'v History.Event.t) ->
      if e.History.Event.rev = t.canonical_rev + 1 then begin
        t.canonical_rev <- e.History.Event.rev;
        t.canonical_ix <- ix;
        fire_canonical t e
      end)
    events

let apply t ~ix ~command =
  let replica = t.replicas.(ix) in
  let pid, (txn : 'v Etcdlike.Txn.t) = Marshal.from_string command 0 in
  if not (Hashtbl.mem replica.applied_pids pid) then begin
    Hashtbl.replace replica.applied_pids pid ();
    let outcome = Etcdlike.Txn.eval replica.store txn in
    (match t.watch_window with
    | Some window -> Etcdlike.Kv.compact_keep_last replica.store window
    | None -> ());
    note_applied t ~ix outcome.Etcdlike.Txn.events;
    match Hashtbl.find_opt t.pending pid with
    | Some p ->
        (* First apply anywhere resolves the proposal: the outcome is
           deterministic, so it does not matter which replica ran it. *)
        Hashtbl.remove t.pending pid;
        let metrics = Dsim.Engine.metrics (engine t) in
        Dsim.Metrics.incr metrics "repl.commits";
        Dsim.Metrics.observe metrics "repl.commit_latency"
          (float_of_int (Dsim.Engine.now (engine t) - p.submitted_at));
        p.callback (Ok outcome)
    | None -> ()
  end

let propose t payload = ignore (Raftlite.Group.propose_via_leader t.group payload)

let txn t (txn : 'v Etcdlike.Txn.t) callback =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let payload = Marshal.to_string (pid, txn) [] in
  let now = Dsim.Engine.now (engine t) in
  Hashtbl.replace t.pending pid { payload; callback; submitted_at = now; last_attempt = now };
  Dsim.Metrics.incr (Dsim.Engine.metrics (engine t)) "repl.proposals";
  propose t payload

let put t key value callback =
  txn t
    { Etcdlike.Txn.guards = []; success = [ Etcdlike.Txn.Put (key, value) ]; failure = [] }
    (fun result ->
      match result with
      | Ok outcome -> begin
          match outcome.Etcdlike.Txn.events with
          | e :: _ -> callback (Ok e)
          | [] -> callback (Error `Unavailable)
        end
      | Error `Unavailable -> callback (Error `Unavailable))

let delete t key callback =
  txn t
    { Etcdlike.Txn.guards = []; success = [ Etcdlike.Txn.Delete key ]; failure = [] }
    (fun result ->
      match result with
      | Ok outcome -> begin
          match outcome.Etcdlike.Txn.events with
          | e :: _ -> callback (Ok (Some e))
          | [] -> callback (Ok None)
        end
      | Error `Unavailable -> callback (Error `Unavailable))

(* Boot snapshot: install a binding on every replica directly, below the
   consensus layer — the world every replica agrees on before the engine
   runs, like restoring from a common backup. Must not be called once
   proposals are in flight. *)
let seed t key value =
  let canonical = ref None in
  Array.iteri
    (fun ix r ->
      let e = Etcdlike.Kv.put r.store key value in
      if ix = 0 then canonical := Some e)
    t.replicas;
  let e = Option.get !canonical in
  t.canonical_rev <- e.History.Event.rev;
  t.canonical_ix <- 0;
  fire_canonical t e;
  e

(* Deterministic source pinning for [Spread]: a stable hash of the
   requesting component's name picks its replica, so one apiserver
   always lands on the same follower — the real-world shape of a
   load-balanced but sticky client connection. *)
let spread_ix t src =
  let sum = ref 0 in
  String.iter (fun c -> sum := !sum + Char.code c) src;
  !sum mod Array.length t.replicas

let preferred_replica t ~src =
  match t.read_mode with
  | Leader -> Option.bind (leader t) (fun id -> find_replica t id)
  | Follower id -> find_replica t id
  | Spread -> Some t.replicas.(spread_ix t src)

let first_up t =
  let rec go i =
    if i >= Array.length t.replicas then None
    else if Dsim.Network.is_up t.net t.replicas.(i).r_id then Some t.replicas.(i)
    else go (i + 1)
  in
  go 0

(* The replica a read from [src] is served by right now, or [None] when
   the pinned replica is down and the fallback policy is [`Reject] (the
   client sees the outage instead of silently reading elsewhere). A
   *partitioned* replica still serves: its link to the client is intact,
   only its link to the leader is cut — that is precisely the stale-read
   shape this layer exists to inject. *)
let serving_replica_for t ~src =
  match preferred_replica t ~src with
  | Some r when Dsim.Network.is_up t.net r.r_id -> Some r
  | Some _ | None -> ( match t.fallback with `Stale -> first_up t | `Reject -> None)

let serving_replica t ~src = Option.map (fun r -> r.r_id) (serving_replica_for t ~src)

let range t ~src ~prefix =
  Option.map
    (fun r -> (Etcdlike.Kv.range r.store ~prefix, Etcdlike.Kv.rev r.store))
    (serving_replica_for t ~src)

let get t ~src key =
  Option.map
    (fun r -> (Etcdlike.Kv.get r.store key, Etcdlike.Kv.rev r.store))
    (serving_replica_for t ~src)

(* The retry timer ticks every 100 ms; a proposal unanswered for 300 ms
   is re-proposed, and one pending for 2 s fails as an outage. *)
let retry_period = 100_000
let retry_grace = 300_000
let deadline = 2_000_000

let create ~net ~n ?(prefix = "etcd") ?(read = Leader) ?(fallback = `Stale) ?watch_window
    ?heartbeat_period ?election_timeout_min ?election_timeout_max () =
  let names = List.init n (fun i -> Printf.sprintf "%s-%d" prefix (i + 1)) in
  let replicas =
    Array.of_list
      (List.map
         (fun r_id ->
           { r_id; store = Etcdlike.Kv.create (); applied_pids = Hashtbl.create 64 })
         names)
  in
  let by_id = Hashtbl.create 8 in
  List.iteri (fun ix id -> Hashtbl.replace by_id id ix) names;
  let t_ref = ref None in
  let favored = if n > 1 then Some (List.hd names) else None in
  let group =
    Raftlite.Group.create ~net ~n ~prefix ?heartbeat_period ?election_timeout_min
      ?election_timeout_max ?favored
      ~on_apply:(fun ~id ~index:_ ~command ->
        match !t_ref with
        | Some t -> apply t ~ix:(Hashtbl.find by_id id) ~command
        | None -> ())
      ()
  in
  let t =
    {
      net;
      group;
      replicas;
      read_mode = read;
      fallback;
      watch_window;
      canonical_rev = 0;
      canonical_ix = 0;
      canonical_listeners = [||];
      canonical_listener_count = 0;
      next_pid = 1;
      pending = Hashtbl.create 16;
    }
  in
  t_ref := Some t;
  t

let start t =
  Raftlite.Group.start t.group;
  (* Client-side retry loop: a proposal lost to a deposed or partitioned
     leader is re-submitted to the current one; the per-replica pid
     dedup makes the retry idempotent. Proposals nothing commits within
     the deadline fail over to the caller as an outage. *)
  Dsim.Engine.every (engine t) ~period:retry_period (fun () ->
      let now = Dsim.Engine.now (engine t) in
      let expired = ref [] and to_retry = ref [] in
      Hashtbl.iter
        (fun pid (p : _ pending) ->
          if now - p.submitted_at > deadline then expired := pid :: !expired
          else if now - p.last_attempt >= retry_grace then to_retry := (pid, p) :: !to_retry)
        t.pending;
      (* Proposing can apply synchronously (single-node groups commit
         immediately) and mutate [pending]; do it outside the iteration,
         in pid order for determinism. *)
      List.iter
        (fun (pid, (p : _ pending)) ->
          if Hashtbl.mem t.pending pid then begin
            p.last_attempt <- now;
            Dsim.Metrics.incr (Dsim.Engine.metrics (engine t)) "repl.reproposals";
            propose t p.payload
          end)
        (List.sort (fun (a, _) (b, _) -> compare a b) !to_retry);
      List.iter
        (fun pid ->
          match Hashtbl.find_opt t.pending pid with
          | Some p ->
              Hashtbl.remove t.pending pid;
              Dsim.Metrics.incr (Dsim.Engine.metrics (engine t)) "repl.unavailable";
              p.callback (Error `Unavailable)
          | None -> ())
        (List.sort compare !expired);
      true)
