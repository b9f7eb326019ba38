type t = {
  name : string;
  lock : string;
  net : Dsim.Network.t;
  self : Dsim.Network.peer;
  client : Client.t;
  ttl : int;
  mutable running : bool;
  mutable lease : int option;
  mutable deadline : int;  (* local belief expires here *)
  mutable believes : bool;
  mutable transitions : (int * bool) list;  (* newest first *)
}

let name t = t.name

let believes_leader t = t.believes

let transitions t = List.rev t.transitions

let engine t = Dsim.Network.engine t.net

let now t = Dsim.Engine.now (engine t)

let record t detail = Dsim.Engine.record (engine t) ~actor:t.name ~kind:"elector" detail

let set_belief t value =
  if t.believes <> value then begin
    t.believes <- value;
    t.transitions <- (now t, value) :: t.transitions;
    record t (if value then "elected leader of " ^ t.lock else "lost leadership of " ^ t.lock)
  end

let step_down t =
  t.lease <- None;
  set_belief t false

(* The belief deadline is anchored at the *send* time of the renewal that
   succeeded: the store's expiry clock starts no earlier than receipt, so
   local belief always dies first. *)
let renew t lease sent_at =
  Client.lease_keepalive t.client ~lease (function
    | Ok true when t.running && t.lease = Some lease ->
        t.deadline <- max t.deadline (sent_at + t.ttl)
    | Ok false when t.running && t.lease = Some lease -> step_down t
    | _ -> ())

let try_acquire t =
  let sent_at = now t in
  Client.lease_grant t.client ~ttl:t.ttl (function
    | Ok lease when t.running && not t.believes ->
        Client.txn ~lease t.client
          (Etcdlike.Txn.create_if_absent ~key:(Resource.lock_key t.lock)
             (Resource.make_lock ~holder:t.name t.lock))
          (function
          | Ok { Messages.succeeded = true; _ } when t.running ->
              t.lease <- Some lease;
              t.deadline <- sent_at + t.ttl;
              set_belief t true
          | _ ->
              (* Someone else holds it; return the unused lease. *)
              Client.lease_revoke t.client ~lease)
    | _ -> ())

let tick t =
  if t.running && Dsim.Network.peer_is_up t.self then begin
    match t.lease with
    | Some lease when t.believes ->
        if now t > t.deadline then step_down t else renew t lease (now t)
    | _ -> if not t.believes then try_acquire t
  end

let create ~net ~name ~lock ~endpoints ?(ttl = 2_000_000) () =
  {
    name;
    lock;
    net;
    self = Dsim.Network.peer net name;
    client = Client.create ~net ~owner:name ~endpoints ();
    ttl;
    running = false;
    lease = None;
    deadline = 0;
    believes = false;
    transitions = [];
  }

let start t =
  if not t.running then begin
    t.running <- true;
    Dsim.Network.set_lifecycle t.net t.name ~on_crash:(fun () -> step_down t) ~on_restart:ignore;
    Dsim.Engine.every (engine t) ~period:(t.ttl / 4) (fun () ->
        tick t;
        t.running)
  end

let stop t =
  t.running <- false;
  (match t.lease with Some lease -> Client.lease_revoke t.client ~lease | None -> ());
  step_down t
