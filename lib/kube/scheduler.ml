type t = {
  name : string;
  net : Dsim.Network.t;
  client : Client.t;
  evict_on_bind_failure : bool;
  period : int;
  node_cache : (string, unit) Hashtbl.t;
  mutable pods_informer : Informer.t option;
  mutable nodes_informer : Informer.t option;
  mutable binds : int;
  failures : (string * string, int) Hashtbl.t;
  mutable failed_binds : int;
  inflight : (string, string) Hashtbl.t;  (* pod -> node, bind txn in flight *)
}

let name t = t.name

let cached_nodes t =
  Hashtbl.fold (fun node () acc -> node :: acc) t.node_cache [] |> List.sort String.compare

let binds t = t.binds

let failed_binds t = t.failed_binds

let bind_failures t =
  Hashtbl.fold (fun key count acc -> (key, count) :: acc) t.failures []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let pods_informer t =
  match t.pods_informer with Some i -> i | None -> invalid_arg "Scheduler: not started"

let nodes_informer t =
  match t.nodes_informer with Some i -> i | None -> invalid_arg "Scheduler: not started"

let view_rev t =
  Informer.least_rev (Informer.min_rev (Informer.min_rev max_int t.pods_informer) t.nodes_informer)

let engine t = Dsim.Network.engine t.net

let record t kind detail = Dsim.Engine.record (engine t) ~actor:t.name ~kind detail

let on_node_event t (e : Resource.value History.Event.t) =
  match e.History.Event.op, e.History.Event.value with
  | History.Event.Delete, _ ->
      Hashtbl.remove t.node_cache (Resource.name_of_key e.History.Event.key)
  | (History.Event.Create | History.Event.Update), Some (Resource.Node n) ->
      if n.Resource.ready then Hashtbl.replace t.node_cache n.Resource.node_name ()
      else Hashtbl.remove t.node_cache n.Resource.node_name
  | (History.Event.Create | History.Event.Update), _ -> ()

let on_node_reset t informer_ref =
  match !informer_ref with
  | None -> ()
  | Some informer ->
      Hashtbl.reset t.node_cache;
      let store = Informer.store informer in
      List.iter
        (fun key ->
          match History.State.get store key with
          | Some (Resource.Node n) when n.Resource.ready ->
              Hashtbl.replace t.node_cache n.Resource.node_name ()
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
      (match t.pods_informer with
      | None -> ()
      | Some informer ->
          let store = Informer.store informer in
          List.iter
            (fun key ->
              match History.State.get store key with
              | Some (Resource.Pod p) when p.Resource.deletion_timestamp = None -> begin
                  match p.Resource.node with Some node -> bump node | None -> ()
                end
              | Some _ | None -> ())
            (History.State.keys_with_prefix store ~prefix:Resource.pods_prefix));
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
  Client.get_quorum t.client (Resource.node_key node) (function
    | Ok None ->
        Hashtbl.remove t.node_cache node;
        record t "sched.evict-node" node
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
  Client.txn t.client txn (fun result ->
      Hashtbl.remove t.inflight pod_name;
      match result with
      | Ok { Messages.succeeded = true; _ } ->
          t.binds <- t.binds + 1;
          record t "sched.bind" (Printf.sprintf "%s -> %s" pod_name node)
      | Ok { Messages.succeeded = false; _ } ->
          let key = (pod_name, node) in
          Hashtbl.replace t.failures key
            (1 + Option.value (Hashtbl.find_opt t.failures key) ~default:0);
          t.failed_binds <- t.failed_binds + 1;
          record t "sched.bind-fail" (Printf.sprintf "%s -> %s" pod_name node);
          if t.evict_on_bind_failure then evict_if_node_vanished t node
      | Error `Unavailable -> ())

let scheduling_pass t =
  match t.pods_informer with
  | None -> ()
  | Some informer ->
      let store = Informer.store informer in
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

let create ~net ~name ~endpoints ?(evict_on_bind_failure = false) ?(period = 100_000) () =
  let t =
    {
      name;
      net;
      client = Client.create ~net ~owner:name ~endpoints ();
      evict_on_bind_failure;
      period;
      node_cache = Hashtbl.create 16;
      pods_informer = None;
      nodes_informer = None;
      binds = 0;
      failures = Hashtbl.create 16;
      failed_binds = 0;
      inflight = Hashtbl.create 16;
    }
  in
  let nodes_ref = ref None in
  let nodes_informer =
    Informer.create ~net ~owner:name ~endpoints ~prefix:Resource.nodes_prefix
      ~on_event:(on_node_event t)
      ~on_reset:(fun () -> on_node_reset t nodes_ref)
      ()
  in
  nodes_ref := Some nodes_informer;
  t.nodes_informer <- Some nodes_informer;
  t.pods_informer <-
    Some (Informer.create ~net ~owner:name ~endpoints ~prefix:Resource.pods_prefix ());
  t

let start t =
  let self = Dsim.Network.peer t.net t.name in
  let pods = pods_informer t and nodes = nodes_informer t in
  Dsim.Network.set_lifecycle t.net t.name
    ~on_crash:(fun () ->
      Informer.stop pods;
      Informer.stop nodes;
      Hashtbl.reset t.node_cache;
      Hashtbl.reset t.inflight)
    ~on_restart:(fun () ->
      let endpoint = Dsim.Network.peer_incarnation self in
      Informer.start pods ~endpoint ();
      Informer.start nodes ~endpoint ());
  Informer.start pods ~endpoint:0 ();
  Informer.start nodes ~endpoint:0 ();
  Dsim.Engine.every (engine t) ~period:t.period (fun () ->
      if Dsim.Network.peer_is_up self then scheduling_pass t;
      true)
