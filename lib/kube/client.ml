type t = {
  net : Dsim.Network.t;
  owner : string;
  endpoints : string array;
  mutable index : int;
}

type outcome = { succeeded : bool; rev : int }

(* Up to 4 retries across endpoints, 200 ms apart. *)
let retries = 4
let retry_delay = 200_000

let create ~net ~owner ~endpoints () =
  if endpoints = [] then invalid_arg "Client.create: no endpoints";
  { net; owner; endpoints = Array.of_list endpoints; index = 0 }

let current_endpoint t = t.endpoints.(t.index mod Array.length t.endpoints)

let engine t = Dsim.Network.engine t.net

let rec attempt t request ~decode ~budget k =
  if budget <= 0 || not (Dsim.Network.is_up t.net t.owner) then k (Error `Unavailable)
  else
    Dsim.Network.call t.net ~src:t.owner ~dst:(current_endpoint t) request (fun response ->
        match Option.bind (Result.to_option response) decode with
        | Some value -> k (Ok value)
        | None ->
            t.index <- t.index + 1;
            ignore
              (Dsim.Engine.schedule (engine t) ~delay:retry_delay (fun () ->
                   attempt t request ~decode ~budget:(budget - 1) k)))

let txn ?lease t transaction k =
  let decode = function
    | Messages.Txn_result { succeeded; rev } -> Some { succeeded; rev }
    | _ -> None
  in
  attempt t
    (Messages.Api_txn { txn = transaction; origin = t.owner; lease })
    ~decode ~budget:retries k

let txn_ ?lease t transaction = txn ?lease t transaction (fun _ -> ())

let lease_grant t ~ttl k =
  let decode = function Messages.Lease_granted { lease } -> Some lease | _ -> None in
  attempt t (Messages.Api_lease_grant { ttl }) ~decode ~budget:retries k

let lease_keepalive t ~lease k =
  let decode = function
    | Messages.Lease_ok -> Some true
    | Messages.Lease_gone -> Some false
    | _ -> None
  in
  attempt t (Messages.Api_lease_keepalive { lease }) ~decode ~budget:2 k

let lease_revoke t ~lease =
  attempt t (Messages.Api_lease_revoke { lease }) ~decode:(fun _ -> Some ()) ~budget:2
    (fun _ -> ())

let get_quorum t key k =
  let decode = function Messages.Value { value; rev = _ } -> Some value | _ -> None in
  attempt t (Messages.Api_get { key; quorum = true }) ~decode ~budget:retries k

let list_quorum t ~prefix k =
  let decode = function Messages.Items { items; rev = _ } -> Some items | _ -> None in
  attempt t (Messages.Api_list { prefix; quorum = true }) ~decode ~budget:retries k
