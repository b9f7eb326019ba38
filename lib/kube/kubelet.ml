type t = {
  node : string;
  ctl : Controller.t;  (* its one informer watches pods/ *)
  running_pods : (string, unit) Hashtbl.t;  (* containers outlive the kubelet *)
  mutable starts : int;
  mutable stops : int;
}

(* Delay before a pod marked for deletion is finalized. *)
let grace_period = 500_000

let name t = Controller.name t.ctl

let node_name t = t.node

let controller t = t.ctl

let running t =
  Hashtbl.fold (fun pod () acc -> pod :: acc) t.running_pods [] |> List.sort String.compare

let is_running t pod = Hashtbl.mem t.running_pods pod

let starts t = t.starts

let stops t = t.stops

let informer t = List.hd (Controller.informers t.ctl)

let run_pod t pod_name =
  if not (Hashtbl.mem t.running_pods pod_name) then begin
    Hashtbl.replace t.running_pods pod_name ();
    t.starts <- t.starts + 1;
    Controller.record t.ctl "kubelet.run" pod_name
  end

let stop_pod t pod_name =
  if Hashtbl.mem t.running_pods pod_name then begin
    Hashtbl.remove t.running_pods pod_name;
    t.stops <- t.stops + 1;
    Controller.record t.ctl "kubelet.stop" pod_name
  end

(* Report the pod Running so controllers and users see status converge.
   The mod-revision guard makes the write harmless when our view is
   stale: etcd rejects it instead of resurrecting old state. *)
let write_running_status t (p : Resource.pod) mod_rev =
  if p.Resource.phase <> Resource.Running then
    Client.txn_ (Controller.client t.ctl)
      (Etcdlike.Txn.put_if_unchanged ~key:(Resource.pod_key p.Resource.pod_name)
         ~expected_mod_rev:mod_rev
         (Resource.Pod { p with Resource.phase = Resource.Running }))

(* Stop a marked pod, then remove its object after the grace period (the
   kubelet acts as the finalizer, as in Kubernetes). *)
let finalize_marked t (p : Resource.pod) mod_rev =
  stop_pod t p.Resource.pod_name;
  ignore
    (Dsim.Engine.schedule (Controller.engine t.ctl) ~delay:grace_period (fun () ->
         let client = Controller.client t.ctl in
         if Client.owner_up client then begin
           Controller.record t.ctl "kubelet.finalize" p.Resource.pod_name;
           Client.txn_ client
             (Etcdlike.Txn.delete_if_unchanged ~key:(Resource.pod_key p.Resource.pod_name)
                ~expected_mod_rev:mod_rev)
         end))

let terminal (p : Resource.pod) =
  match p.Resource.phase with
  | Resource.Failed | Resource.Succeeded -> true
  | Resource.Pending | Resource.Running -> false

let bound_here t (p : Resource.pod) =
  match p.Resource.node with Some node -> String.equal node t.node | None -> false

let handle_pod t (p : Resource.pod) mod_rev =
  if not (bound_here t p) then stop_pod t p.Resource.pod_name
  else if p.Resource.deletion_timestamp <> None then finalize_marked t p mod_rev
  else if terminal p then stop_pod t p.Resource.pod_name
  else begin
    run_pod t p.Resource.pod_name;
    write_running_status t p mod_rev
  end

let on_event t (e : Resource.value History.Event.t) =
  match Resource.kind_of_key e.History.Event.key with
  | `Pod -> begin
      match e.History.Event.op, e.History.Event.value with
      | History.Event.Delete, _ -> stop_pod t (Resource.name_of_key e.History.Event.key)
      | (History.Event.Create | History.Event.Update), Some (Resource.Pod p) ->
          handle_pod t p e.History.Event.rev
      | (History.Event.Create | History.Event.Update), _ -> ()
    end
  | `Node | `Pvc | `Cassdc | `Rset | `Lock | `Deployment | `Other -> ()

(* After a (re-)list the event history is gone; all we can do is make the
   running set match the listed state — including starting pods a stale
   list claims are ours. *)
let on_reset t store =
  let desired = Hashtbl.create 16 in
  History.State.iter_prefix store ~prefix:Resource.pods_prefix (fun _ v mod_rev ->
      match v with
      | Resource.Pod p
        when bound_here t p && p.Resource.deletion_timestamp = None && not (terminal p) ->
          Hashtbl.replace desired p.Resource.pod_name ();
          if not (Hashtbl.mem t.running_pods p.Resource.pod_name) then begin
            run_pod t p.Resource.pod_name;
            write_running_status t p mod_rev
          end
      | Resource.Pod p when bound_here t p && p.Resource.deletion_timestamp <> None ->
          finalize_marked t p mod_rev
      | _ -> ());
  List.iter (fun pod -> if not (Hashtbl.mem desired pod) then stop_pod t pod) (running t)

(* The handlers need the kubelet, so its informer joins once the record
   exists. *)
let create ~net ~name ~node ~endpoints ?(monotonic = false) () =
  let t =
    {
      node;
      ctl = Controller.create ~net ~name ~endpoints;
      running_pods = Hashtbl.create 16;
      starts = 0;
      stops = 0;
    }
  in
  ignore
    (Controller.watch t.ctl
       (Informer.create ~net ~owner:name ~endpoints ~prefix:Resource.pods_prefix
          ~on_event:(on_event t) ~on_reset:(on_reset t) ~monotonic ()));
  t

(* No reconcile loop: the kubelet acts on events and re-lists only. *)
let start t = Controller.start t.ctl ~on_crash:ignore
