type t = {
  name : string;
  net : Dsim.Network.t;
  client : Client.t;
  quorum_guard : bool;
  period : int;
  mutable pods_informer : Informer.t option;
  mutable nodes_informer : Informer.t option;
  strikes : (string, int) Hashtbl.t;  (* pod -> consecutive missing-node sightings *)
  mutable reconciles : int;
  mutable eviction_log : (string * string) list;  (* newest first *)
}

(* A node must be missing for this many consecutive passes before its
   pods are failed. *)
let missing_strikes = 3

let name t = t.name

let reconciles t = t.reconciles

let evictions t = List.rev t.eviction_log

let informer_exn = function Some i -> i | None -> invalid_arg "Node_controller: not started"

let pods_informer t = informer_exn t.pods_informer

let nodes_informer t = informer_exn t.nodes_informer

let view_rev t =
  Informer.least_rev (Informer.min_rev (Informer.min_rev max_int t.pods_informer) t.nodes_informer)

let engine t = Dsim.Network.engine t.net

let record t kind detail = Dsim.Engine.record (engine t) ~actor:t.name ~kind detail

let fail_pod t (p : Resource.pod) mod_rev node =
  t.eviction_log <- (p.Resource.pod_name, node) :: t.eviction_log;
  record t "nodectl.fail-pod" (Printf.sprintf "%s (node %s gone)" p.Resource.pod_name node);
  Client.txn_ t.client
    (Etcdlike.Txn.put_if_unchanged ~key:(Resource.pod_key p.Resource.pod_name)
       ~expected_mod_rev:mod_rev
       (Resource.Pod { p with Resource.phase = Resource.Failed }))

let maybe_fail t (p : Resource.pod) mod_rev node =
  if t.quorum_guard then
    Client.get_quorum t.client (Resource.node_key node) (function
      | Ok None -> fail_pod t p mod_rev node
      | Ok (Some _) ->
          Hashtbl.remove t.strikes p.Resource.pod_name;
          record t "nodectl.abort" (Printf.sprintf "%s: node %s alive per quorum read"
                                      p.Resource.pod_name node)
      | Error `Unavailable -> ())
  else fail_pod t p mod_rev node

let reconcile t =
  t.reconciles <- t.reconciles + 1;
  let pods = Informer.store (pods_informer t) in
  let nodes = Informer.store (nodes_informer t) in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun key ->
      match History.State.find pods key with
      | Some (Resource.Pod p, mod_rev)
        when p.Resource.deletion_timestamp = None && p.Resource.phase <> Resource.Failed -> begin
          match p.Resource.node with
          | None -> ()
          | Some node ->
              Hashtbl.replace seen p.Resource.pod_name ();
              if History.State.mem nodes (Resource.node_key node) then
                Hashtbl.remove t.strikes p.Resource.pod_name
              else begin
                let strikes =
                  1 + Option.value (Hashtbl.find_opt t.strikes p.Resource.pod_name) ~default:0
                in
                Hashtbl.replace t.strikes p.Resource.pod_name strikes;
                if strikes >= missing_strikes then begin
                  Hashtbl.remove t.strikes p.Resource.pod_name;
                  maybe_fail t p mod_rev node
                end
              end
        end
      | Some _ | None -> ())
    (History.State.keys_with_prefix pods ~prefix:Resource.pods_prefix);
  let stale =
    Hashtbl.fold (fun pod _ acc -> if Hashtbl.mem seen pod then acc else pod :: acc) t.strikes []
  in
  List.iter (Hashtbl.remove t.strikes) stale

let create ~net ~name ~endpoints ?(quorum_guard = false) ?(period = 200_000) () =
  let t =
    {
      name;
      net;
      client = Client.create ~net ~owner:name ~endpoints ();
      quorum_guard;
      period;
      pods_informer = None;
      nodes_informer = None;
      strikes = Hashtbl.create 16;
      reconciles = 0;
      eviction_log = [];
    }
  in
  t.pods_informer <-
    Some (Informer.create ~net ~owner:name ~endpoints ~prefix:Resource.pods_prefix ());
  t.nodes_informer <-
    Some (Informer.create ~net ~owner:name ~endpoints ~prefix:Resource.nodes_prefix ());
  t

let start t =
  let self = Dsim.Network.peer t.net t.name in
  let pods = pods_informer t and nodes = nodes_informer t in
  Dsim.Network.set_lifecycle t.net t.name
    ~on_crash:(fun () ->
      Informer.stop pods;
      Informer.stop nodes;
      Hashtbl.reset t.strikes)
    ~on_restart:(fun () ->
      let endpoint = Dsim.Network.peer_incarnation self in
      Informer.start pods ~endpoint ();
      Informer.start nodes ~endpoint ());
  Informer.start pods ~endpoint:0 ();
  Informer.start nodes ~endpoint:0 ();
  Dsim.Engine.every (engine t) ~period:t.period (fun () ->
      if Dsim.Network.peer_is_up self then reconcile t;
      true)
