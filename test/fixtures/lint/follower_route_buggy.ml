(* Lint fixture: the follower-read-then-write shape through the
   replicated store's router. A trimmer asks [Replicated.Kv.route] which
   replica serves it — under a Follower or Spread read_mode, possibly a
   lagging one — lists pods from that replica's store, and deletes the
   "surplus" it sees with plain proposals. A replica frozen behind the
   leader nominates pods that no longer exist (or misses ones that do);
   the lint must flag [trim]. Parse-only: this file is never compiled. *)

type t = { name : string; kv : Resource.value Replicated.Kv.t; desired : int }

let surplus_pods t =
  match Replicated.Kv.route t.kv ~src:t.name with
  | Some (_replica, store) ->
      let items = Etcdlike.Kv.range store ~prefix:"pods/" in
      let n = List.length items - t.desired in
      List.filteri (fun i _ -> i < n) items
  | None -> []

let trim t =
  List.iter
    (fun (key, _value, _mod_rev) ->
      Replicated.Kv.txn t.kv
        { Etcdlike.Txn.guards = []; success = [ Etcdlike.Txn.Delete key ]; failure = [] }
        (fun _ -> ()))
    (surplus_pods t)
