type t = {
  ctl : Controller.t;
  quorum_guard : bool;
  dcs : Informer.t;
  pods : Informer.t;
  pvcs : Informer.t;
  strikes : Strikes.t;  (* claims seen orphaned *)
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
              Strikes.clear t.strikes pvc_name;
              Controller.record t.ctl "cassop.gc-abort" (pvc_name ^ " owner alive per quorum read")
          | Error `Unavailable -> ())
  else delete_claim t pvc_name mod_rev

(* The datacenter's members, as this operator's cache sees them, are the
   pods it owns that have an ordinal. One walk counts the live and the
   marked ones; only a pass that scales walks again, for the ordinals it
   needs (every member is live then: none is marked). *)
let reconcile_dc t dc_name (dc : Resource.cassdc) =
  let store = Informer.store t.pods in
  let dc_key = Resource.cassdc_key dc_name in
  let count = ref 0 and marked = ref 0 in
  History.State.iter_prefix store ~prefix:Resource.pods_prefix (fun _ v _ ->
      match v with
      | Resource.Pod ({ Resource.ordinal = Some _; _ } as p) when Resource.owned_by dc_key p ->
          if p.Resource.deletion_timestamp = None then incr count else incr marked
      | _ -> ());
  let count = !count and marked = !marked in
  if count < dc.Resource.replicas && marked = 0 then begin
    (* Scale up: create the lowest missing ordinal (one per pass). *)
    let taken = ref [] in
    History.State.iter_prefix store ~prefix:Resource.pods_prefix (fun _ v _ ->
        match v with
        | Resource.Pod ({ Resource.ordinal = Some ordinal; _ } as p)
          when Resource.owned_by dc_key p ->
            taken := ordinal :: !taken
        | _ -> ());
    let rec next i = if List.mem i !taken then next (i + 1) else i in
    create_member t dc_name (next 0)
  end
  else if count > dc.Resource.replicas && marked = 0 then begin
    (* Scale down: decommission the highest ordinal we can see (the last
       in key order among equals). *)
    let highest = ref min_int and target = ref None in
    History.State.iter_prefix store ~prefix:Resource.pods_prefix (fun _ v mod_rev ->
        match v with
        | Resource.Pod ({ Resource.ordinal = Some ordinal; _ } as p)
          when Resource.owned_by dc_key p && ordinal >= !highest ->
            highest := ordinal;
            target := Some (p, mod_rev)
        | _ -> ());
    match !target with Some (p, mod_rev) -> decommission t dc_name p mod_rev | None -> ()
  end

(* Orphan GC over the whole claim namespace we own. *)
let gc_orphans t =
  let pods = Informer.store t.pods in
  History.State.iter_prefix (Informer.store t.pvcs) ~prefix:Resource.pvcs_prefix
    (fun _ v mod_rev ->
      match v with
      | Resource.Pvc c -> begin
          match claim_owner_pod_name c.Resource.pvc_name with
          | None -> ()
          | Some owner ->
              if History.State.mem pods (Resource.pod_key owner) then
                Strikes.clear t.strikes c.Resource.pvc_name
              else if Strikes.strike t.strikes c.Resource.pvc_name >= orphan_strikes then begin
                Strikes.clear t.strikes c.Resource.pvc_name;
                gc_claim t c.Resource.pvc_name mod_rev
              end
        end
      | _ -> ());
  (* Forget strikes for claims that vanished from the view. *)
  Strikes.sweep t.strikes

let reconcile t =
  History.State.iter_prefix (Informer.store t.dcs) ~prefix:Resource.cassdcs_prefix
    (fun _ v _ ->
      match v with
      | Resource.Cassdc dc -> reconcile_dc t dc.Resource.dc_name dc
      | _ -> ());
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
    strikes = Strikes.create ();
    member_creates = 0;
    decommission_log = [];
  }

let start t =
  Controller.start t.ctl ~on_crash:(fun () -> Strikes.reset t.strikes);
  Controller.every t.ctl ~period (fun () -> reconcile t)
