type t = {
  ctl : Controller.t;
  evict_on_bind_failure : bool;
  node_cache : (string, unit) Hashtbl.t;
  pods : Informer.t;
  nodes : Informer.t;
  mutable binds : int;
  failures : (string * string, int) Hashtbl.t;
  mutable failed_binds : int;
  inflight : (string, string) Hashtbl.t;  (* pod -> node, bind txn in flight *)
}

(* The scheduling pass runs every 100 ms. *)
let period = 100_000

let controller t = t.ctl

let cached_nodes t =
  Hashtbl.fold (fun node () acc -> node :: acc) t.node_cache [] |> List.sort String.compare

let binds t = t.binds

let failed_binds t = t.failed_binds

let bind_failures t =
  Hashtbl.fold (fun key count acc -> (key, count) :: acc) t.failures []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let pods_informer t = t.pods

let nodes_informer t = t.nodes

let on_node_event node_cache (e : Resource.value History.Event.t) =
  match e.History.Event.op, e.History.Event.value with
  | History.Event.Delete, _ ->
      Hashtbl.remove node_cache (Resource.name_of_key e.History.Event.key)
  | (History.Event.Create | History.Event.Update), Some (Resource.Node n) ->
      if n.Resource.ready then Hashtbl.replace node_cache n.Resource.node_name ()
      else Hashtbl.remove node_cache n.Resource.node_name
  | (History.Event.Create | History.Event.Update), _ -> ()

let on_node_reset node_cache store =
  Hashtbl.reset node_cache;
  List.iter
    (fun key ->
      match History.State.get store key with
      | Some (Resource.Node n) when n.Resource.ready ->
          Hashtbl.replace node_cache n.Resource.node_name ()
      | Some _ | None -> ())
    (History.State.keys_with_prefix store ~prefix:Resource.nodes_prefix)

(* Least-loaded placement over the *cached* views: count bound pods per
   cached node and pick the emptiest (ties by name). Deterministic given
   the caches — so a stale cache entry (a deleted node, which never
   accumulates pods) keeps winning, turning one missed event into a
   livelock rather than a one-off failure. *)
let pick_node t =
  match cached_nodes t with
  | [] -> None
  | nodes ->
      let load = Hashtbl.create 8 in
      let bump node =
        Hashtbl.replace load node (1 + Option.value (Hashtbl.find_opt load node) ~default:0)
      in
      (* In-flight bind decisions count as load so one pass spreads a
         batch of pending pods instead of stacking them on one node. *)
      Hashtbl.iter (fun _ node -> bump node) t.inflight;
      let store = Informer.store t.pods in
      List.iter
        (fun key ->
          match History.State.get store key with
          | Some (Resource.Pod p) when p.Resource.deletion_timestamp = None -> begin
              match p.Resource.node with Some node -> bump node | None -> ()
            end
          | Some _ | None -> ())
        (History.State.keys_with_prefix store ~prefix:Resource.pods_prefix);
      let emptiest =
        List.fold_left
          (fun acc node ->
            let n = Option.value (Hashtbl.find_opt load node) ~default:0 in
            match acc with
            | Some (_, best) when best <= n -> acc
            | _ -> Some (node, n))
          None nodes
      in
      Option.map fst emptiest

let evict_if_node_vanished t node =
  Client.get_quorum (Controller.client t.ctl) (Resource.node_key node) (function
    | Ok None ->
        Hashtbl.remove t.node_cache node;
        Controller.record t.ctl "sched.evict-node" node
    | Ok (Some _) | Error `Unavailable -> ())

let bind t (p : Resource.pod) mod_rev node =
  let pod_name = p.Resource.pod_name in
  Hashtbl.replace t.inflight pod_name node;
  let pod_key = Resource.pod_key pod_name in
  let txn =
    Etcdlike.Txn.
      {
        guards = [ Exists (Resource.node_key node); Mod_rev_eq (pod_key, mod_rev) ];
        success = [ Put (pod_key, Resource.Pod { p with Resource.node = Some node }) ];
        failure = [];
      }
  in
  Client.txn (Controller.client t.ctl) txn (fun result ->
      Hashtbl.remove t.inflight pod_name;
      match result with
      | Ok { Messages.succeeded = true; _ } ->
          t.binds <- t.binds + 1;
          Controller.record t.ctl "sched.bind" (Printf.sprintf "%s -> %s" pod_name node)
      | Ok { Messages.succeeded = false; _ } ->
          let key = (pod_name, node) in
          Hashtbl.replace t.failures key
            (1 + Option.value (Hashtbl.find_opt t.failures key) ~default:0);
          t.failed_binds <- t.failed_binds + 1;
          Controller.record t.ctl "sched.bind-fail" (Printf.sprintf "%s -> %s" pod_name node);
          if t.evict_on_bind_failure then evict_if_node_vanished t node
      | Error `Unavailable -> ())

let scheduling_pass t =
  let store = Informer.store t.pods in
  List.iter
    (fun key ->
      match History.State.find store key with
      | Some (Resource.Pod p, mod_rev)
        when p.Resource.node = None
             && p.Resource.deletion_timestamp = None
             && not (Hashtbl.mem t.inflight p.Resource.pod_name) -> begin
          match pick_node t with
          | Some node -> bind t p mod_rev node
          | None -> ()
        end
      | Some _ | None -> ())
    (History.State.keys_with_prefix store ~prefix:Resource.pods_prefix)

let create ~net ~name ~endpoints ?(evict_on_bind_failure = false) () =
  let ctl = Controller.create ~net ~name ~endpoints in
  let node_cache = Hashtbl.create 16 in
  let pods =
    Controller.watch ctl
      (Informer.create ~net ~owner:name ~endpoints ~prefix:Resource.pods_prefix ())
  in
  let nodes =
    Controller.watch ctl
      (Informer.create ~net ~owner:name ~endpoints ~prefix:Resource.nodes_prefix
         ~on_event:(on_node_event node_cache) ~on_reset:(on_node_reset node_cache) ())
  in
  {
    ctl;
    evict_on_bind_failure;
    node_cache;
    pods;
    nodes;
    binds = 0;
    failures = Hashtbl.create 16;
    failed_binds = 0;
    inflight = Hashtbl.create 16;
  }

let start t =
  Controller.start t.ctl ~on_crash:(fun () ->
      Hashtbl.reset t.node_cache;
      Hashtbl.reset t.inflight);
  Controller.every t.ctl ~period (fun () -> scheduling_pass t)
