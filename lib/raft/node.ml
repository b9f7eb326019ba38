type entry = { term : int; command : string option }

type role = Follower | Candidate | Leader

type vote = Vote of { term : int; granted : bool }
type appended = Appended of { term : int; success : bool; match_index : int }

type _ request =
  | Request_vote : {
      term : int;
      candidate : string;
      last_log_index : int;
      last_log_term : int;
    }
      -> vote request
  | Append_entries : {
      term : int;
      prev_log_index : int;
      prev_log_term : int;
      entries : entry list;
      leader_commit : int;
    }
      -> appended request

module Rpc = Dsim.Network.Service (struct
  type nonrec 'a request = 'a request
  type 'a reply = 'a
  let name = "raft"
end)

type t = {
  id : string;
  peers : Dsim.Network.peer list;
  net : Dsim.Network.t;
  self : Dsim.Network.peer;
  rng : Dsim.Rng.t;
  election_timeout_max : int;
  on_apply : index:int -> command:string -> unit;
  (* Persistent state: survives crashes (stable storage). *)
  mutable current_term : int;
  mutable voted_for : string option;
  mutable log : entry array;  (* log.(i) is entry at index i+1, for i < log_length *)
  mutable log_length : int;
  (* Volatile state. *)
  mutable role : role;
  mutable commit_index : int;
  mutable last_applied : int;
  mutable election_deadline : int;
  mutable votes : string list;
  next_index : (string, int) Hashtbl.t;
  match_index : (string, int) Hashtbl.t;
}

let id t = t.id

let term t = t.current_term

let is_leader t = t.role = Leader

let log_length t = t.log_length

let engine t = Dsim.Network.engine t.net

let now t = Dsim.Engine.now (engine t)

let quorum t = ((List.length t.peers + 1) / 2) + 1

let last_log_index t = t.log_length

let last_log_term t = if t.log_length = 0 then 0 else t.log.(t.log_length - 1).term

let term_at t index = if index = 0 then 0 else t.log.(index - 1).term

(* What the log array holds past [log_length]. *)
let vacant = { term = 0; command = None }

(* The log grows by doubling, so an append copies nothing in the common
   case. *)
let append t entry =
  let n = t.log_length in
  if n = Array.length t.log then begin
    let grown = Array.make (max 16 (2 * n)) vacant in
    Array.blit t.log 0 grown 0 n;
    t.log <- grown
  end;
  t.log.(n) <- entry;
  t.log_length <- n + 1

(* Drops the entries from [index] on. *)
let truncate t index =
  Array.fill t.log (index - 1) (t.log_length - index + 1) vacant;
  t.log_length <- index - 1

let record t detail =
  Dsim.Engine.record (engine t) ~actor:t.id ~kind:"raft" detail

(* Leaders beat every 50 ms; election timeouts start at 150 ms. *)
let heartbeat_period = 50_000
let election_timeout_min = 150_000

let reset_election_deadline t =
  let spread = max 1 (t.election_timeout_max - election_timeout_min + 1) in
  t.election_deadline <- now t + election_timeout_min + Dsim.Rng.int t.rng spread

let become_follower t new_term =
  if new_term > t.current_term then begin
    t.current_term <- new_term;
    t.voted_for <- None
  end;
  if t.role <> Follower then record t (Printf.sprintf "-> follower (term %d)" t.current_term);
  t.role <- Follower;
  t.votes <- [];
  reset_election_deadline t

(* Deliver newly committed entries to the state machine, in order.
   Election no-ops are internal and skipped. *)
let apply_committed t =
  while t.last_applied < t.commit_index do
    t.last_applied <- t.last_applied + 1;
    match t.log.(t.last_applied - 1).command with
    | Some command -> t.on_apply ~index:t.last_applied ~command
    | None -> ()
  done

(* [count] plus the number of [peers] known to hold index [n]. *)
let rec holders t n peers count =
  match peers with
  | [] -> count
  | peer :: rest ->
      let matched =
        match Hashtbl.find t.match_index (Dsim.Network.address peer) with
        | m -> m
        | exception Not_found -> 0
      in
      holders t n rest (if matched >= n then count + 1 else count)

(* Leader: advance the commit index to the highest N replicated on a
   quorum with log[N].term = currentTerm (Raft's commitment rule),
   scanning down from the last index. *)
let advance_commit t =
  if t.role = Leader then begin
    let quorum = quorum t and n = ref (last_log_index t) in
    while
      !n > t.commit_index
      && not (term_at t !n = t.current_term && holders t !n t.peers 1 >= quorum)
    do
      decr n
    done;
    if !n > t.commit_index then begin
      t.commit_index <- !n;
      apply_committed t
    end
  end

let entries_from t index =
  let entries = ref [] in
  for i = t.log_length downto index do
    entries := t.log.(i - 1) :: !entries
  done;
  !entries

let send_append t dst =
  let peer = Dsim.Network.address dst in
  let next = Option.value (Hashtbl.find_opt t.next_index peer) ~default:1 in
  let prev_log_index = next - 1 in
  let request =
    Append_entries
      {
        term = t.current_term;
        prev_log_index;
        prev_log_term = term_at t prev_log_index;
        entries = entries_from t next;
        leader_commit = t.commit_index;
      }
  in
  let sent_up_to = last_log_index t in
  let request_term = t.current_term in
  Rpc.call ~src:t.self ~dst ~timeout:(heartbeat_period * 2) request
    (function
    | Ok (Appended reply) when t.role = Leader && t.current_term = request_term ->
        if reply.term > t.current_term then become_follower t reply.term
        else if reply.success then begin
          Hashtbl.replace t.match_index peer (max reply.match_index sent_up_to);
          Hashtbl.replace t.next_index peer (sent_up_to + 1);
          advance_commit t
        end
        else begin
          (* Log inconsistency: back off and retry on the next beat. *)
          let next = Option.value (Hashtbl.find_opt t.next_index peer) ~default:1 in
          Hashtbl.replace t.next_index peer (max 1 (next - 1))
        end
    | Ok (Appended _) | Error _ -> ())

let broadcast_appends t = List.iter (send_append t) t.peers

let become_leader t =
  t.role <- Leader;
  record t (Printf.sprintf "-> LEADER (term %d, log %d)" t.current_term (last_log_index t));
  List.iter
    (fun dst ->
      let peer = Dsim.Network.address dst in
      Hashtbl.replace t.next_index peer (last_log_index t + 1);
      Hashtbl.replace t.match_index peer 0)
    t.peers;
  (* The no-op of Raft §8: a leader can only advance the commit index
     through an entry of its own term, so commit one immediately —
     otherwise predecessors' entries can stay uncommitted at the new
     leader forever on a quiet cluster. *)
  append t { term = t.current_term; command = None };
  broadcast_appends t;
  advance_commit t

let start_election t =
  t.current_term <- t.current_term + 1;
  t.role <- Candidate;
  t.voted_for <- Some t.id;
  t.votes <- [ t.id ];
  reset_election_deadline t;
  record t (Printf.sprintf "election (term %d)" t.current_term);
  if List.length t.votes >= quorum t then become_leader t;
  let election_term = t.current_term in
  let request =
    Request_vote
      {
        term = election_term;
        candidate = t.id;
        last_log_index = last_log_index t;
        last_log_term = last_log_term t;
      }
  in
  List.iter
    (fun dst ->
      let peer = Dsim.Network.address dst in
      Rpc.call ~src:t.self ~dst ~timeout:election_timeout_min request
        (function
        | Ok (Vote vote) when t.role = Candidate && t.current_term = election_term ->
            if vote.term > t.current_term then become_follower t vote.term
            else if vote.granted && not (List.mem peer t.votes) then begin
              t.votes <- peer :: t.votes;
              if List.length t.votes >= quorum t then become_leader t
            end
        | Ok (Vote _) | Error _ -> ()))
    t.peers

(* A candidate's log is at least as up to date as ours when its last
   entry wins the (term, index) lexicographic comparison. *)
let candidate_log_ok t ~last_log_index:their_index ~last_log_term:their_term =
  their_term > last_log_term t
  || (their_term = last_log_term t && their_index >= last_log_index t)

let handle_request_vote t ~term ~candidate ~last_log_index ~last_log_term reply =
  if term > t.current_term then become_follower t term;
  let granted =
    term = t.current_term
    && (t.voted_for = None || t.voted_for = Some candidate)
    && candidate_log_ok t ~last_log_index ~last_log_term
  in
  if granted then begin
    t.voted_for <- Some candidate;
    reset_election_deadline t
  end;
  reply (Vote { term = t.current_term; granted })

(* Stores [entries] from [index] on. *)
let rec truncate_and_append t index = function
  | [] -> ()
  | (entry : entry) :: rest ->
      if index <= t.log_length then begin
        if t.log.(index - 1).term <> entry.term then begin
          (* Conflict: drop the entry and everything after it. *)
          truncate t index;
          append t entry
        end
      end
      else append t entry;
      truncate_and_append t (index + 1) rest

let handle_append_entries t ~term ~prev_log_index ~prev_log_term ~entries ~leader_commit
    reply =
  if term < t.current_term then
    reply (Appended { term = t.current_term; success = false; match_index = 0 })
  else begin
    become_follower t term;
    let log_ok =
      prev_log_index = 0
      || (prev_log_index <= t.log_length && term_at t prev_log_index = prev_log_term)
    in
    if not log_ok then
      reply (Appended { term = t.current_term; success = false; match_index = 0 })
    else begin
      truncate_and_append t (prev_log_index + 1) entries;
      let match_index = prev_log_index + List.length entries in
      if leader_commit > t.commit_index then begin
        t.commit_index <- min leader_commit (last_log_index t);
        apply_committed t
      end;
      reply (Appended { term = t.current_term; success = true; match_index })
    end
  end

let serve : type a. t -> a request -> (a -> unit) -> unit =
 fun t request reply ->
  match request with
  | Request_vote { term; candidate; last_log_index; last_log_term } ->
      handle_request_vote t ~term ~candidate ~last_log_index ~last_log_term reply
  | Append_entries { term; prev_log_index; prev_log_term; entries; leader_commit } ->
      handle_append_entries t ~term ~prev_log_index ~prev_log_term ~entries
        ~leader_commit reply

let propose t command =
  if t.role <> Leader then false
  else begin
    append t { term = t.current_term; command = Some command };
    broadcast_appends t;
    (* Single-node groups commit immediately. *)
    advance_commit t;
    true
  end

let create ~net ~id ~peers ?(election_timeout_max = 300_000)
    ?(on_apply = fun ~index:_ ~command:_ -> ()) () =
  let engine = Dsim.Network.engine net in
  {
    id;
    peers = List.map (Dsim.Network.peer net) peers;
    net;
    self = Dsim.Network.peer net id;
    rng = Dsim.Rng.split (Dsim.Engine.rng engine);
    election_timeout_max;
    on_apply;
    current_term = 0;
    voted_for = None;
    log = [||];
    log_length = 0;
    role = Follower;
    commit_index = 0;
    last_applied = 0;
    election_deadline = 0;
    votes = [];
    next_index = Hashtbl.create 8;
    match_index = Hashtbl.create 8;
  }

let start t =
  Rpc.register t.net t.id { serve = (fun ~src:_ request reply -> serve t request reply) };
  Dsim.Network.set_lifecycle t.net t.id
    ~on_crash:(fun () ->
      (* Stable storage keeps term/vote/log; leadership and progress
         trackers are volatile. The applied index also survives: the state
         machine is persisted alongside the log in this model. *)
      t.role <- Follower;
      t.votes <- [])
    ~on_restart:(fun () -> reset_election_deadline t);
  reset_election_deadline t;
  (* One driving timer: leaders beat, others watch for election timeout. *)
  Dsim.Engine.every (engine t) ~period:heartbeat_period (fun () ->
      if Dsim.Network.peer_is_up t.self then begin
        match t.role with
        | Leader -> broadcast_appends t
        | Follower | Candidate -> if now t >= t.election_deadline then start_election t
      end;
      true)
