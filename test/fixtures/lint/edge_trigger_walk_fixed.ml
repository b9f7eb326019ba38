(* Fixed twin of edge_trigger_walk_buggy: the handler reacts to events
   for latency, and the [Controller.every] pass walks nodes/ in the
   informer store in place ([History.State.iter_prefix], no key list)
   and rebuilds the cache, so any dropped event heals within one period.
   The lint must credit the walk as a periodic re-list of nodes/ and
   stay silent. Parse-only: this file is never compiled. *)

type t = {
  ctl : Controller.t;
  cache : (string, unit) Hashtbl.t;
  informer : Informer.t;
  period : int;
}

let on_node_event cache (e : Resource.value History.Event.t) =
  match e.History.Event.op, e.History.Event.value with
  | History.Event.Delete, _ -> Hashtbl.remove cache (Resource.name_of_key e.History.Event.key)
  | (History.Event.Create | History.Event.Update), Some (Resource.Node n) ->
      if n.Resource.ready then Hashtbl.replace cache n.Resource.node_name ()
      else Hashtbl.remove cache n.Resource.node_name
  | (History.Event.Create | History.Event.Update), _ -> ()

let resync t =
  Hashtbl.reset t.cache;
  History.State.iter_prefix (Informer.store t.informer) ~prefix:Resource.nodes_prefix
    (fun _ v _ ->
      match v with
      | Resource.Node n when n.Resource.ready -> Hashtbl.replace t.cache n.Resource.node_name ()
      | _ -> ())

let create ~net ~name ~endpoints ~period =
  let ctl = Controller.create ~net ~name ~endpoints in
  let cache = Hashtbl.create 16 in
  let informer =
    Controller.watch ctl
      (Informer.create ~net ~owner:name ~endpoints ~prefix:Resource.nodes_prefix
         ~on_event:(on_node_event cache) ())
  in
  { ctl; cache; informer; period }

let start t =
  Controller.start t.ctl ~on_crash:ignore;
  Controller.every t.ctl ~period:t.period (fun () -> resync t)
