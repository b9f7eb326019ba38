type t = {
  ctl : Controller.t;
  release_on_absent_owner : bool;
  pods : Informer.t;
  pvcs : Informer.t;
  mutable releases : int;
}

(* The reconcile pass runs every 150 ms. *)
let period = 150_000

let controller t = t.ctl

let releases t = t.releases

let pods_informer t = t.pods

let managed_claim name =
  (* The Cassandra operator owns the "data-" namespace. *)
  not (String.length name >= 5 && String.equal (String.sub name 0 5) "data-")

let release t (c : Resource.pvc) mod_rev =
  t.releases <- t.releases + 1;
  Controller.record t.ctl "volctl.release" c.Resource.pvc_name;
  Client.txn_ (Controller.client t.ctl)
    (Etcdlike.Txn.delete_if_unchanged ~key:(Resource.pvc_key c.Resource.pvc_name)
       ~expected_mod_rev:mod_rev)

(* One sparse-read pass: the only information available is the *current*
   S'; events that happened between passes are invisible. *)
let reconcile t =
  let pods = Informer.store t.pods in
  History.State.iter_prefix (Informer.store t.pvcs) ~prefix:Resource.pvcs_prefix
    (fun _ v mod_rev ->
      match v with
      | Resource.Pvc c when managed_claim c.Resource.pvc_name -> begin
          match c.Resource.owner_pod with
          | None -> ()
          | Some owner -> begin
              match History.State.get pods (Resource.pod_key owner) with
              | Some (Resource.Pod p) when p.Resource.deletion_timestamp <> None ->
                  release t c mod_rev
              | Some _ -> ()
              | None ->
                  (* Owner pod not in our view. The buggy controller was
                     written expecting to *see* the deletion mark first and
                     treats this as "nothing to do". *)
                  if t.release_on_absent_owner then release t c mod_rev
            end
        end
      | _ -> ())

let create ~net ~name ~endpoints ?(release_on_absent_owner = false) () =
  let ctl = Controller.create ~net ~name ~endpoints in
  let pods =
    Controller.watch ctl
      (Informer.create ~net ~owner:name ~endpoints ~prefix:Resource.pods_prefix ())
  in
  let pvcs =
    Controller.watch ctl
      (Informer.create ~net ~owner:name ~endpoints ~prefix:Resource.pvcs_prefix ())
  in
  { ctl; release_on_absent_owner; pods; pvcs; releases = 0 }

let start t =
  Controller.start t.ctl ~on_crash:ignore;
  Controller.every t.ctl ~period (fun () -> reconcile t)
