type read_mode = Leader | Follower of string | Spread

type fallback = [ `Stale | `Reject ]

type 'v replica = {
  r_id : string;
  r_node : Dsim.Network.peer;
  store : 'v Etcdlike.Kv.t;
  (* Proposal ids this replica's state machine already executed. A
     proposal re-submitted after a leader change can be committed twice;
     the second occupies a log slot but must not re-run — all replicas
     skip it at the same log position, so determinism is preserved. *)
  applied_pids : (int, unit) Hashtbl.t;
}

type 'v pending = {
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
  (* The canonical committed history (H, S): the frontier of first
     applies. Every replica applies the same dense revision sequence;
     whichever replica reaches a revision first carries it into the
     canonical stream, so the stream is exactly the leader-committed
     history (the leader applies at quorum ack, before any follower
     learns the new commit index). *)
  mutable canonical_rev : int;
  mutable canonical_ix : int;
  canonical : 'v History.Event.t -> unit;
  members : (string * 'v Etcdlike.Kv.t) list;  (* id and store, replica order *)
  mutable next_pid : int;
  pending : (int, 'v pending) Hashtbl.t;
  (* Every proposed transaction, by pid. A Raft command is the pid
     alone; each replica looks the transaction up here when it applies
     the command. A transaction holds no mutable field, so the replicas
     can share one value. *)
  txns : (int, 'v Etcdlike.Txn.t) Hashtbl.t;
  commits : Dsim.Metrics.Counter.t;  (* ["repl.commits"] *)
  commit_latency : Dsim.Metrics.Histogram.t;  (* ["repl.commit_latency"] *)
  proposals : Dsim.Metrics.Counter.t;  (* ["repl.proposals"] *)
  reproposals : Dsim.Metrics.Counter.t;  (* ["repl.reproposals"] *)
  unavailable : Dsim.Metrics.Counter.t;  (* ["repl.unavailable"] *)
}

let engine t = Dsim.Network.engine t.net

let group t = t.group

let replicas t = t.members

let find_replica t id = Array.to_list t.replicas |> List.find_opt (fun r -> String.equal r.r_id id)

let canonical_store t = t.replicas.(t.canonical_ix).store

let leader t = Option.map Raftlite.Node.id (Raftlite.Group.leader t.group)

(* Advance the canonical frontier through a replica's freshly applied
   event: every replica store's first commit listener, so the first
   applier carries each revision into the canonical stream before any
   of its own listeners (watch pushes) see it. Lagging replicas re-apply
   revisions the frontier already passed; those are content-identical
   (deterministic apply over an identical log prefix) and skipped. *)
let advance t ~ix (e : 'v History.Event.t) =
  if e.History.Event.rev = t.canonical_rev + 1 then begin
    t.canonical_rev <- e.History.Event.rev;
    t.canonical_ix <- ix;
    t.canonical e
  end

let apply t ~ix ~command =
  let replica = t.replicas.(ix) in
  let pid = int_of_string command in
  if not (Hashtbl.mem replica.applied_pids pid) then begin
    Hashtbl.replace replica.applied_pids pid ();
    let outcome = Etcdlike.Txn.eval replica.store (Hashtbl.find t.txns pid) in
    match Hashtbl.find_opt t.pending pid with
    | Some p ->
        (* First apply anywhere resolves the proposal: the outcome is
           deterministic, so it does not matter which replica ran it. *)
        Hashtbl.remove t.pending pid;
        Dsim.Metrics.Counter.incr t.commits;
        Dsim.Metrics.Histogram.observe t.commit_latency
          (float_of_int (Dsim.Engine.now (engine t) - p.submitted_at));
        p.callback (Ok outcome)
    | None -> ()
  end

let propose t pid = ignore (Raftlite.Group.propose_via_leader t.group (string_of_int pid))

let txn t (txn : 'v Etcdlike.Txn.t) callback =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  Hashtbl.replace t.txns pid txn;
  let now = Dsim.Engine.now (engine t) in
  Hashtbl.replace t.pending pid { callback; submitted_at = now; last_attempt = now };
  Dsim.Metrics.Counter.incr t.proposals;
  propose t pid

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

(* Boot snapshot: install a binding on every replica directly, below the
   consensus layer — the world every replica agrees on before the engine
   runs, like restoring from a common backup. The first replica's write
   advances the canonical stream. Must not be called once proposals are
   in flight. *)
let seed t key value = (Array.map (fun r -> Etcdlike.Kv.put r.store key value) t.replicas).(0)

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
    else if Dsim.Network.peer_is_up t.replicas.(i).r_node then Some t.replicas.(i)
    else go (i + 1)
  in
  go 0

(* The replica a read or watch from [src] is served by right now, with
   its store, or [None] when the pinned replica is down and the fallback
   policy is [`Reject] (the client sees the outage instead of silently
   reading elsewhere). A *partitioned* replica still serves: its link to
   the client is intact, only its link to the leader is cut — that is
   precisely the stale-read shape this layer exists to inject. *)
let route t ~src =
  let serving =
    match preferred_replica t ~src with
    | Some r when Dsim.Network.peer_is_up r.r_node -> Some r
    | Some _ | None -> ( match t.fallback with `Stale -> first_up t | `Reject -> None)
  in
  Option.map (fun r -> (r.r_id, r.store)) serving

(* The retry timer ticks every 100 ms; a proposal unanswered for 300 ms
   is re-proposed, and one pending for 2 s fails as an outage. *)
let retry_period = 100_000
let retry_grace = 300_000
let deadline = 2_000_000

let create ~net ~n ?(read = Leader) ?(fallback = `Stale) ~canonical () =
  let names = List.init n (fun i -> Printf.sprintf "etcd-%d" (i + 1)) in
  let replicas =
    Array.of_list
      (List.map
         (fun r_id ->
           {
             r_id;
             r_node = Dsim.Network.peer net r_id;
             store = Etcdlike.Kv.create ();
             applied_pids = Hashtbl.create 64;
           })
         names)
  in
  let by_id = Hashtbl.create 8 in
  List.iteri (fun ix id -> Hashtbl.replace by_id id ix) names;
  let t_ref = ref None in
  let group =
    Raftlite.Group.create ~net ~n ~prefix:"etcd"
      ?favored:(if n > 1 then Some (List.hd names) else None)
      ~on_apply:(fun ~id ~index:_ ~command ->
        match !t_ref with
        | Some t -> apply t ~ix:(Hashtbl.find by_id id) ~command
        | None -> ())
      ()
  in
  let metrics = Dsim.Engine.metrics (Dsim.Network.engine net) in
  let t =
    {
      net;
      group;
      replicas;
      read_mode = read;
      fallback;
      canonical_rev = 0;
      canonical_ix = 0;
      canonical;
      members = Array.to_list (Array.map (fun r -> (r.r_id, r.store)) replicas);
      next_pid = 1;
      pending = Hashtbl.create 16;
      txns = Hashtbl.create 64;
      commits = Dsim.Metrics.Counter.resolve metrics "repl.commits";
      commit_latency = Dsim.Metrics.Histogram.resolve metrics "repl.commit_latency";
      proposals = Dsim.Metrics.Counter.resolve metrics "repl.proposals";
      reproposals = Dsim.Metrics.Counter.resolve metrics "repl.reproposals";
      unavailable = Dsim.Metrics.Counter.resolve metrics "repl.unavailable";
    }
  in
  t_ref := Some t;
  Array.iteri (fun ix r -> Etcdlike.Kv.on_commit r.store (advance t ~ix)) replicas;
  t

(* Client-side retry: a proposal lost to a deposed or partitioned leader
   is re-submitted to the current one; the per-replica pid dedup makes
   the retry idempotent. Proposals nothing commits within the deadline
   fail over to the caller as an outage. *)
let retry_pending t =
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
        Dsim.Metrics.Counter.incr t.reproposals;
        propose t pid
      end)
    (List.sort (fun (a, _) (b, _) -> compare a b) !to_retry);
  List.iter
    (fun pid ->
      match Hashtbl.find_opt t.pending pid with
      | Some p ->
          Hashtbl.remove t.pending pid;
          Dsim.Metrics.Counter.incr t.unavailable;
          p.callback (Error `Unavailable)
      | None -> ())
    (List.sort compare !expired)

let start t =
  Raftlite.Group.start t.group;
  (* A tick with nothing pending (nearly every tick: a proposal commits
     in a few milliseconds) does nothing. *)
  Dsim.Engine.every (engine t) ~period:retry_period (fun () ->
      if Hashtbl.length t.pending > 0 then retry_pending t;
      true)
