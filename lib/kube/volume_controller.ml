type t = {
  name : string;
  net : Dsim.Network.t;
  client : Client.t;
  release_on_absent_owner : bool;
  period : int;
  mutable pods_informer : Informer.t option;
  mutable pvcs_informer : Informer.t option;
  mutable releases : int;
  mutable reconciles : int;
}

let name t = t.name

let releases t = t.releases

let reconciles t = t.reconciles

let pods_informer t =
  match t.pods_informer with Some i -> i | None -> invalid_arg "Volume_controller: not started"

let pvcs_informer t =
  match t.pvcs_informer with Some i -> i | None -> invalid_arg "Volume_controller: not started"

let view_rev t =
  Informer.least_rev (Informer.min_rev (Informer.min_rev max_int t.pods_informer) t.pvcs_informer)

let engine t = Dsim.Network.engine t.net

let record t kind detail = Dsim.Engine.record (engine t) ~actor:t.name ~kind detail

let managed_claim name =
  (* The Cassandra operator owns the "data-" namespace. *)
  not (String.length name >= 5 && String.equal (String.sub name 0 5) "data-")

let release t (c : Resource.pvc) mod_rev =
  t.releases <- t.releases + 1;
  record t "volctl.release" c.Resource.pvc_name;
  Client.txn_ t.client
    (Etcdlike.Txn.delete_if_unchanged ~key:(Resource.pvc_key c.Resource.pvc_name)
       ~expected_mod_rev:mod_rev)

(* One sparse-read pass: the only information available is the *current*
   S'; events that happened between passes are invisible. *)
let reconcile t =
  t.reconciles <- t.reconciles + 1;
  let pods = Informer.store (pods_informer t) in
  let pvcs = Informer.store (pvcs_informer t) in
  List.iter
    (fun key ->
      match History.State.find pvcs key with
      | Some (Resource.Pvc c, mod_rev) when managed_claim c.Resource.pvc_name -> begin
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
      | Some _ | None -> ())
    (History.State.keys_with_prefix pvcs ~prefix:Resource.pvcs_prefix)

let create ~net ~name ~endpoints ?(release_on_absent_owner = false) ?(period = 150_000) () =
  let t =
    {
      name;
      net;
      client = Client.create ~net ~owner:name ~endpoints ();
      release_on_absent_owner;
      period;
      pods_informer = None;
      pvcs_informer = None;
      releases = 0;
      reconciles = 0;
    }
  in
  t.pods_informer <-
    Some (Informer.create ~net ~owner:name ~endpoints ~prefix:Resource.pods_prefix ());
  t.pvcs_informer <-
    Some (Informer.create ~net ~owner:name ~endpoints ~prefix:Resource.pvcs_prefix ());
  t

let start t =
  let self = Dsim.Network.peer t.net t.name in
  let pods = pods_informer t and pvcs = pvcs_informer t in
  Dsim.Network.set_lifecycle t.net t.name
    ~on_crash:(fun () ->
      Informer.stop pods;
      Informer.stop pvcs)
    ~on_restart:(fun () ->
      let endpoint = Dsim.Network.peer_incarnation self in
      Informer.start pods ~endpoint ();
      Informer.start pvcs ~endpoint ());
  Informer.start pods ~endpoint:0 ();
  Informer.start pvcs ~endpoint:0 ();
  Dsim.Engine.every (engine t) ~period:t.period (fun () ->
      if Dsim.Network.peer_is_up self then reconcile t;
      true)
