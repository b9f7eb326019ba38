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
  mutable order : string array;  (* the node cache, ascending: rebuilt when it changes *)
  mutable load : int array;  (* per [order] slot: this pass's bound and in-flight pods *)
  mutable counted : bool;  (* [load] is this pass's *)
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
  History.State.iter_prefix store ~prefix:Resource.nodes_prefix (fun _ v _ ->
      match v with
      | Resource.Node n when n.Resource.ready -> Hashtbl.replace node_cache n.Resource.node_name ()
      | _ -> ())

(* The node cache in name order, rebuilt only when its set of names
   changed since the last count. *)
let rec all_cached t i =
  i = Array.length t.order || (Hashtbl.mem t.node_cache t.order.(i) && all_cached t (i + 1))

let refresh_order t =
  if Hashtbl.length t.node_cache <> Array.length t.order || not (all_cached t 0) then begin
    t.order <- Array.of_list (cached_nodes t);
    t.load <- Array.make (Array.length t.order) 0
  end

(* [node]'s slot in [order], or -1 for a node outside the cache. *)
let rec slot order node lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let c = String.compare node order.(mid) in
    if c = 0 then mid else if c < 0 then slot order node lo mid else slot order node (mid + 1) hi

let bump t node =
  let i = slot t.order node 0 (Array.length t.order) in
  if i >= 0 then t.load.(i) <- t.load.(i) + 1

(* Least-loaded placement over the *cached* views: count bound pods per
   cached node and pick the emptiest (ties by name). Deterministic given
   the caches — so a stale cache entry (a deleted node, which never
   accumulates pods) keeps winning, turning one missed event into a
   livelock rather than a one-off failure. In-flight bind decisions
   count as load so one pass spreads a batch of pending pods instead of
   stacking them on one node.

   A pass counts once, at its first pending pod: neither cache changes
   inside a pass (informer events and replies do, and none arrives
   during one), so each pick of the pass starts from this count plus the
   binds the pass has issued so far. *)
let count_load t store =
  refresh_order t;
  Array.fill t.load 0 (Array.length t.load) 0;
  Hashtbl.iter (fun _ node -> bump t node) t.inflight;
  History.State.iter_prefix store ~prefix:Resource.pods_prefix (fun _ v _ ->
      match v with
      | Resource.Pod { Resource.node = Some node; deletion_timestamp = None; _ } -> bump t node
      | _ -> ());
  t.counted <- true

(* The first slot with the least load; -1 with no cached node. *)
let emptiest t =
  let best = ref (-1) in
  for i = 0 to Array.length t.load - 1 do
    if !best < 0 || t.load.(i) < t.load.(!best) then best := i
  done;
  !best

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
  t.counted <- false;
  History.State.iter_prefix store ~prefix:Resource.pods_prefix (fun _ v mod_rev ->
      match v with
      | Resource.Pod p
        when p.Resource.node = None
             && p.Resource.deletion_timestamp = None
             && not (Hashtbl.mem t.inflight p.Resource.pod_name) ->
          if not t.counted then count_load t store;
          let i = emptiest t in
          if i >= 0 then begin
            bind t p mod_rev t.order.(i);
            (* Its reply may already have come (the owner is down): it
               counts only while it is in flight. *)
            if Hashtbl.mem t.inflight p.Resource.pod_name then t.load.(i) <- t.load.(i) + 1
          end
      | _ -> ())

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
    order = [||];
    load = [||];
    counted = false;
  }

let start t =
  Controller.start t.ctl ~on_crash:(fun () ->
      Hashtbl.reset t.node_cache;
      Hashtbl.reset t.inflight);
  Controller.every t.ctl ~period (fun () -> scheduling_pass t)
