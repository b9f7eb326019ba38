type t = {
  ctl : Controller.t;
  quorum_guard : bool;
  dcs : Informer.t;
  pods : Informer.t;
  pvcs : Informer.t;
  strikes : (string, int) Hashtbl.t;  (* pvc name -> consecutive orphan sightings *)
  mutable member_creates : int;
  mutable decommission_log : (string * int) list;  (* newest first *)
}

(* The reconcile pass runs every 150 ms. A claim must look orphaned for
   this many consecutive passes before GC deletes it. *)
let period = 150_000
let orphan_strikes = 4

let controller t = t.ctl

let member_creates t = t.member_creates

let decommissions t = List.rev t.decommission_log

let pods_informer t = t.pods

let member_name dc ordinal = Printf.sprintf "%s-%d" dc ordinal

let claim_name dc ordinal = Printf.sprintf "data-%s-%d" dc ordinal

(* Claims are "data-<dc>-<ordinal>"; member pods are "<dc>-<ordinal>". *)
let claim_owner_pod_name pvc_name =
  if String.length pvc_name > 5 && String.equal (String.sub pvc_name 0 5) "data-" then
    Some (String.sub pvc_name 5 (String.length pvc_name - 5))
  else None

(* Members of a datacenter as this operator's cache sees them. *)
let cached_members t dc_key =
  let store = Informer.store t.pods in
  History.State.keys_with_prefix store ~prefix:Resource.pods_prefix
  |> List.filter_map (fun key ->
         match History.State.find store key with
         | Some (Resource.Pod p, mod_rev) when p.Resource.owner = Some dc_key ->
             Option.map (fun ordinal -> (ordinal, p, mod_rev)) p.Resource.ordinal
         | Some _ | None -> None)
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let create_member t dc ordinal =
  t.member_creates <- t.member_creates + 1;
  let pod_name = member_name dc ordinal in
  let pvc_name = claim_name dc ordinal in
  Controller.record t.ctl "cassop.create-member" pod_name;
  Client.txn_ (Controller.client t.ctl)
    (Etcdlike.Txn.create_if_absent ~key:(Resource.pvc_key pvc_name)
       (Resource.make_pvc ~owner_pod:pod_name pvc_name));
  Client.txn_ (Controller.client t.ctl)
    (Etcdlike.Txn.create_if_absent ~key:(Resource.pod_key pod_name)
       (Resource.make_pod ~pvc:pvc_name ~owner:(Resource.cassdc_key dc) ~ordinal pod_name))

let mark_decommissioned t dc (target : Resource.pod) mod_rev =
  let ordinal = Option.value target.Resource.ordinal ~default:(-1) in
  t.decommission_log <- (dc, ordinal) :: t.decommission_log;
  Controller.record t.ctl "cassop.decommission" (Printf.sprintf "%s ordinal %d" dc ordinal);
  let now = Dsim.Engine.now (Controller.engine t.ctl) in
  Client.txn_ (Controller.client t.ctl)
    (Etcdlike.Txn.put_if_unchanged ~key:(Resource.pod_key target.Resource.pod_name)
       ~expected_mod_rev:mod_rev
       (Resource.Pod { target with Resource.deletion_timestamp = Some now }))

let decommission t dc (target : Resource.pod) mod_rev =
  if t.quorum_guard then begin
    (* Defensive fix: recompute the true max ordinal from etcd before
       acting; skip if our view was wrong. *)
    let member_prefix = Resource.pods_prefix ^ dc ^ "-" in
    Client.list_quorum (Controller.client t.ctl) ~prefix:member_prefix (function
      | Ok items ->
          let true_max =
            List.fold_left
              (fun acc (_, value, _) ->
                match value with
                | Resource.Pod p when p.Resource.deletion_timestamp = None ->
                    max acc (Option.value p.Resource.ordinal ~default:(-1))
                | _ -> acc)
              (-1) items
          in
          if target.Resource.ordinal = Some true_max then mark_decommissioned t dc target mod_rev
          else
            Controller.record t.ctl "cassop.decommission-abort"
              (Printf.sprintf "%s view was stale" dc)
      | Error `Unavailable -> ())
  end
  else mark_decommissioned t dc target mod_rev

let delete_claim t pvc_name mod_rev =
  Controller.record t.ctl "cassop.delete-pvc" pvc_name;
  Client.txn_ (Controller.client t.ctl)
    (Etcdlike.Txn.delete_if_unchanged ~key:(Resource.pvc_key pvc_name) ~expected_mod_rev:mod_rev)

let gc_claim t pvc_name mod_rev =
  if t.quorum_guard then
    match claim_owner_pod_name pvc_name with
    | None -> ()
    | Some owner ->
        Client.get_quorum (Controller.client t.ctl) (Resource.pod_key owner) (function
          | Ok None -> delete_claim t pvc_name mod_rev
          | Ok (Some _) ->
              Hashtbl.remove t.strikes pvc_name;
              Controller.record t.ctl "cassop.gc-abort" (pvc_name ^ " owner alive per quorum read")
          | Error `Unavailable -> ())
  else delete_claim t pvc_name mod_rev

let reconcile_dc t dc_name (dc : Resource.cassdc) =
  let dc_key = Resource.cassdc_key dc_name in
  let members = cached_members t dc_key in
  let live = List.filter (fun (_, p, _) -> p.Resource.deletion_timestamp = None) members in
  let marked = List.length members - List.length live in
  let count = List.length live in
  if count < dc.Resource.replicas && marked = 0 then begin
    (* Scale up: create the lowest missing ordinal (one per pass). *)
    let taken = List.map (fun (ordinal, _, _) -> ordinal) live in
    let rec next i = if List.mem i taken then next (i + 1) else i in
    create_member t dc_name (next 0)
  end
  else if count > dc.Resource.replicas && marked = 0 then begin
    (* Scale down: decommission the highest ordinal we can see. *)
    match List.rev live with
    | (_, target, mod_rev) :: _ -> decommission t dc_name target mod_rev
    | [] -> ()
  end

(* Orphan GC over the whole claim namespace we own. *)
let gc_orphans t =
  let pods = Informer.store t.pods in
  let pvcs = Informer.store t.pvcs in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun key ->
      match History.State.find pvcs key with
      | Some (Resource.Pvc c, mod_rev) -> begin
          match claim_owner_pod_name c.Resource.pvc_name with
          | None -> ()
          | Some owner ->
              Hashtbl.replace seen c.Resource.pvc_name ();
              if History.State.mem pods (Resource.pod_key owner) then
                Hashtbl.remove t.strikes c.Resource.pvc_name
              else begin
                let strikes =
                  1 + Option.value (Hashtbl.find_opt t.strikes c.Resource.pvc_name) ~default:0
                in
                Hashtbl.replace t.strikes c.Resource.pvc_name strikes;
                if strikes >= orphan_strikes then begin
                  Hashtbl.remove t.strikes c.Resource.pvc_name;
                  gc_claim t c.Resource.pvc_name mod_rev
                end
              end
        end
      | Some _ | None -> ())
    (History.State.keys_with_prefix pvcs ~prefix:Resource.pvcs_prefix);
  (* Forget strikes for claims that vanished from the view. *)
  let stale =
    Hashtbl.fold (fun pvc _ acc -> if Hashtbl.mem seen pvc then acc else pvc :: acc) t.strikes []
  in
  List.iter (Hashtbl.remove t.strikes) stale

let reconcile t =
  let dcs = Informer.store t.dcs in
  List.iter
    (fun key ->
      match History.State.get dcs key with
      | Some (Resource.Cassdc dc) -> reconcile_dc t dc.Resource.dc_name dc
      | Some _ | None -> ())
    (History.State.keys_with_prefix dcs ~prefix:Resource.cassdcs_prefix);
  gc_orphans t

let create ~net ~name ~endpoints ?(quorum_guard = false) () =
  let ctl = Controller.create ~net ~name ~endpoints in
  let dcs =
    Controller.watch ctl
      (Informer.create ~net ~owner:name ~endpoints ~prefix:Resource.cassdcs_prefix ())
  in
  let pods =
    Controller.watch ctl
      (Informer.create ~net ~owner:name ~endpoints ~prefix:Resource.pods_prefix ())
  in
  let pvcs =
    Controller.watch ctl
      (Informer.create ~net ~owner:name ~endpoints ~prefix:Resource.pvcs_prefix ())
  in
  {
    ctl;
    quorum_guard;
    dcs;
    pods;
    pvcs;
    strikes = Hashtbl.create 16;
    member_creates = 0;
    decommission_log = [];
  }

let start t =
  Controller.start t.ctl ~on_crash:(fun () -> Hashtbl.reset t.strikes);
  Controller.every t.ctl ~period (fun () -> reconcile t)
