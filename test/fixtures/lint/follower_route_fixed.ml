(* Fixed twin of follower_route_buggy: the same routed census only
   nominates — every delete is proposed as a revision-compare
   transaction. Replica revisions live in the leader's numbering domain
   (the applied log is a prefix of the committed one), so a stale
   [mod_rev] makes the precondition fail safely instead of deleting a
   live pod. The lint must stay silent. Parse-only: this file is never
   compiled. *)

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
    (fun (key, _value, mod_rev) ->
      Replicated.Kv.txn t.kv
        (Etcdlike.Txn.delete_if_unchanged ~key ~expected_mod_rev:mod_rev)
        (fun _ -> ()))
    (surplus_pods t)
