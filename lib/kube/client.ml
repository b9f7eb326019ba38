type t = {
  net : Dsim.Network.t;
  owner : string;
  self : Dsim.Network.peer;  (* the owner's node *)
  endpoints : Dsim.Network.peer array;
  mutable index : int;
}

(* Up to 4 retries across endpoints, 200 ms apart. *)
let retries = 4
let retry_delay = 200_000

let create ~net ~owner ~endpoints () =
  if endpoints = [] then invalid_arg "Client.create: no endpoints";
  {
    net;
    owner;
    self = Dsim.Network.peer net owner;
    endpoints = Array.of_list (List.map (Dsim.Network.peer net) endpoints);
    index = 0;
  }

let endpoint t = t.endpoints.(t.index mod Array.length t.endpoints)

let owner_up t = Dsim.Network.peer_is_up t.self

let engine t = Dsim.Network.engine t.net

let retry t again =
  t.index <- t.index + 1;
  ignore (Dsim.Engine.schedule (engine t) ~delay:retry_delay again)

(* An unavailable reply and a lost request both count against [budget]. *)
let rec attempt t request ~budget k =
  if budget <= 0 || not (owner_up t) then k (Error `Unavailable)
  else
    Messages.Store.call ~src:t.self ~dst:(endpoint t) request (function
      | Ok (Ok _ as reply) -> k reply
      | Ok (Error `Unavailable) | Error _ ->
          retry t (fun () -> attempt t request ~budget:(budget - 1) k))

let txn ?lease t transaction k =
  attempt t (Messages.Txn { txn = transaction; origin = t.owner; lease }) ~budget:retries k

let txn_ ?lease t transaction = txn ?lease t transaction (fun _ -> ())

let lease_grant t ~ttl k = attempt t (Messages.Lease_grant { ttl }) ~budget:retries k

let lease_keepalive t ~lease k = attempt t (Messages.Lease_keepalive { lease }) ~budget:2 k

(* Fire and forget, two sends at most; only a lost request is retried —
   an unavailable reply ends it like a successful one. *)
let lease_revoke t ~lease =
  let rec send budget =
    if budget > 0 && owner_up t then
      Messages.Store.call ~src:t.self ~dst:(endpoint t)
        (Messages.Lease_revoke { lease })
        (function
        | Ok (Ok () | Error `Unavailable) -> ()
        | Error _ -> retry t (fun () -> send (budget - 1)))
  in
  send 2

let get_quorum t key k = attempt t (Messages.Get { key; quorum = true }) ~budget:retries k

let list_quorum t ~prefix k =
  attempt t (Messages.List { prefix; quorum = true }) ~budget:retries (fun reply ->
      k (Result.map (fun { Messages.items; rev = _ } -> items) reply))
