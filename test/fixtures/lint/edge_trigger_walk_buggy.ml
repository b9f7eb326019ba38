(* edge_trigger_walk_fixed without the walk: the [Controller.every] pass
   still runs, but it only reads the cache it derives from events and
   never walks nodes/ in the informer store, so one dropped event leaves
   a phantom entry forever. The lint must flag [on_node_event].
   Parse-only: this file is never compiled. *)

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

let report t = Controller.record t.ctl "nodes.cached" (string_of_int (Hashtbl.length t.cache))

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
  Controller.every t.ctl ~period:t.period (fun () -> report t)
