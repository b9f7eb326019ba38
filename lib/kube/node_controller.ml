type t = {
  ctl : Controller.t;
  quorum_guard : bool;
  pods : Informer.t;
  nodes : Informer.t;
  strikes : Strikes.t;  (* pods seen on a missing node *)
  mutable eviction_log : (string * string) list;  (* newest first *)
}

(* The reconcile pass runs every 200 ms. A node must be missing for this
   many consecutive passes before its pods are failed. *)
let period = 200_000
let missing_strikes = 3

let controller t = t.ctl

let evictions t = List.rev t.eviction_log

let fail_pod t (p : Resource.pod) mod_rev node =
  t.eviction_log <- (p.Resource.pod_name, node) :: t.eviction_log;
  Controller.record t.ctl "nodectl.fail-pod"
    (Printf.sprintf "%s (node %s gone)" p.Resource.pod_name node);
  Client.txn_ (Controller.client t.ctl)
    (Etcdlike.Txn.put_if_unchanged ~key:(Resource.pod_key p.Resource.pod_name)
       ~expected_mod_rev:mod_rev
       (Resource.Pod { p with Resource.phase = Resource.Failed }))

let maybe_fail t (p : Resource.pod) mod_rev node =
  if t.quorum_guard then
    Client.get_quorum (Controller.client t.ctl) (Resource.node_key node) (function
      | Ok None -> fail_pod t p mod_rev node
      | Ok (Some _) ->
          Strikes.clear t.strikes p.Resource.pod_name;
          Controller.record t.ctl "nodectl.abort"
            (Printf.sprintf "%s: node %s alive per quorum read" p.Resource.pod_name node)
      | Error `Unavailable -> ())
  else fail_pod t p mod_rev node

let reconcile t =
  let nodes = Informer.store t.nodes in
  History.State.iter_prefix (Informer.store t.pods) ~prefix:Resource.pods_prefix
    (fun _ v mod_rev ->
      match v with
      | Resource.Pod ({ Resource.node = Some node; deletion_timestamp = None; _ } as p)
        when p.Resource.phase <> Resource.Failed ->
          if History.State.mem nodes (Resource.node_key node) then
            Strikes.clear t.strikes p.Resource.pod_name
          else if Strikes.strike t.strikes p.Resource.pod_name >= missing_strikes then begin
            Strikes.clear t.strikes p.Resource.pod_name;
            maybe_fail t p mod_rev node
          end
      | _ -> ());
  Strikes.sweep t.strikes

let create ~net ~name ~endpoints ?(quorum_guard = false) () =
  let ctl = Controller.create ~net ~name ~endpoints in
  let pods =
    Controller.watch ctl
      (Informer.create ~net ~owner:name ~endpoints ~prefix:Resource.pods_prefix ())
  in
  let nodes =
    Controller.watch ctl
      (Informer.create ~net ~owner:name ~endpoints ~prefix:Resource.nodes_prefix ())
  in
  { ctl; quorum_guard; pods; nodes; strikes = Strikes.create (); eviction_log = [] }

let start t =
  Controller.start t.ctl ~on_crash:(fun () -> Strikes.reset t.strikes);
  Controller.every t.ctl ~period (fun () -> reconcile t)
