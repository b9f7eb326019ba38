type watch_request = {
  prefix : string option;
  start_rev : int;
  subscriber : string;
  stream_id : string;
  deliver : Pipe.item -> unit;
}

type listing = { items : (string * Resource.value * int) list; rev : int }

type outcome = { succeeded : bool; rev : int }

type watch_start = Watching | Compacted of int

type _ request =
  | List : { prefix : string; quorum : bool } -> listing request
  | Get : { key : string; quorum : bool } -> (Resource.value * int) option request
  | Txn : { txn : Resource.value Etcdlike.Txn.t; origin : string; lease : int option }
      -> outcome request
  | Lease_grant : { ttl : int } -> int request
  | Lease_keepalive : { lease : int } -> bool request
  | Lease_revoke : { lease : int } -> unit request
  | Watch : watch_request -> watch_start request

type 'a reply = ('a, [ `Unavailable ]) result

module Store = Dsim.Network.Service (struct
  type nonrec 'a request = 'a request
  type nonrec 'a reply = 'a reply
  let name = "store"
end)

let put key value =
  Etcdlike.Txn.{ guards = []; success = [ Put (key, value) ]; failure = [] }

let delete key = Etcdlike.Txn.{ guards = []; success = [ Delete key ]; failure = [] }

let items_to_state items =
  List.fold_left
    (fun state (key, value, mod_rev) ->
      History.State.apply state
        (History.Event.make ~rev:mod_rev ~key ~op:History.Event.Create (Some value)))
    History.State.empty items
