type expectation = { pod : string; deadline : int }

type t = {
  ctl : Controller.t;
  expectations : bool;
  rsets : Informer.t;
  pods : Informer.t;
  pending : (string, expectation list) Hashtbl.t;  (* rset name -> issued creations *)
  counters : (string, int) Hashtbl.t;  (* rset name -> next fresh suffix *)
  orphan_strikes : (string, int) Hashtbl.t;  (* pod -> passes seen ownerless *)
  mutable creates : int;
  mutable deletes : int;
}

(* The reconcile pass runs every 150 ms. An unobserved creation stops
   counting toward expectations after 2 s. *)
let period = 150_000
let expectation_timeout = 2_000_000

let controller t = t.ctl

let creates t = t.creates

let deletes t = t.deletes

let fresh_pod_name t rs =
  let counter = Option.value (Hashtbl.find_opt t.counters rs) ~default:0 in
  Hashtbl.replace t.counters rs (counter + 1);
  Printf.sprintf "%s-%d" rs counter

(* Pods of this set the cache can currently see (live = not marked, not
   Failed; Failed pods are replaced, not counted). *)
let cached_members t rs_key =
  let store = Informer.store t.pods in
  History.State.keys_with_prefix store ~prefix:Resource.pods_prefix
  |> List.filter_map (fun key ->
         match History.State.find store key with
         | Some (Resource.Pod p, mod_rev) when p.Resource.owner = Some rs_key -> Some (p, mod_rev)
         | Some _ | None -> None)

let live (p : Resource.pod) =
  p.Resource.deletion_timestamp = None && p.Resource.phase <> Resource.Failed

(* Expectations bookkeeping: forget creations that have shown up in the
   view or have timed out. *)
let outstanding t rs ~visible =
  let now = Dsim.Engine.now (Controller.engine t.ctl) in
  let still_pending =
    Option.value (Hashtbl.find_opt t.pending rs) ~default:[]
    |> List.filter (fun e -> e.deadline > now && not (List.mem e.pod visible))
  in
  Hashtbl.replace t.pending rs still_pending;
  List.length still_pending

let create_pod t rs =
  let pod_name = fresh_pod_name t rs in
  t.creates <- t.creates + 1;
  Controller.record t.ctl "rsctl.create" pod_name;
  if t.expectations then begin
    let now = Dsim.Engine.now (Controller.engine t.ctl) in
    let entry = { pod = pod_name; deadline = now + expectation_timeout } in
    Hashtbl.replace t.pending rs (entry :: Option.value (Hashtbl.find_opt t.pending rs) ~default:[])
  end;
  Client.txn_ (Controller.client t.ctl)
    (Etcdlike.Txn.create_if_absent ~key:(Resource.pod_key pod_name)
       (Resource.make_pod ~owner:(Resource.rset_key rs) pod_name))

let delete_pod t (p : Resource.pod) mod_rev =
  t.deletes <- t.deletes + 1;
  Controller.record t.ctl "rsctl.scale-down" p.Resource.pod_name;
  let now = Dsim.Engine.now (Controller.engine t.ctl) in
  Client.txn_ (Controller.client t.ctl)
    (Etcdlike.Txn.put_if_unchanged ~key:(Resource.pod_key p.Resource.pod_name)
       ~expected_mod_rev:mod_rev
       (Resource.Pod { p with Resource.deletion_timestamp = Some now }))

let reconcile_rset t rs (spec : Resource.rset) =
  let members = cached_members t (Resource.rset_key rs) in
  let live_members = List.filter (fun (p, _) -> live p) members in
  let visible = List.map (fun (p, _) -> p.Resource.pod_name) members in
  let pending = if t.expectations then outstanding t rs ~visible else 0 in
  let effective = List.length live_members + pending in
  let desired = spec.Resource.rs_replicas in
  if effective < desired then
    for _ = 1 to desired - effective do
      create_pod t rs
    done
  else if List.length live_members > desired && pending = 0 then begin
    (* Scale down: shed the newest pods first. *)
    let by_name =
      List.sort (fun (a, _) (b, _) -> String.compare b.Resource.pod_name a.Resource.pod_name)
        live_members
    in
    let surplus = List.length live_members - desired in
    List.iteri (fun i (p, mod_rev) -> if i < surplus then delete_pod t p mod_rev) by_name
  end

(* Pods whose owning ReplicaSet object no longer exists are garbage;
   several consecutive sightings are required so that a view that is
   merely *behind* (the rset created moments ago) does not trigger a
   massacre. *)
let gc_orphan_pods t =
  let rsets = Informer.store t.rsets in
  let pods = Informer.store t.pods in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun key ->
      match History.State.find pods key with
      | Some (Resource.Pod p, mod_rev)
        when p.Resource.deletion_timestamp = None -> begin
          match p.Resource.owner with
          | Some owner when Resource.kind_of_key owner = `Rset ->
              Hashtbl.replace seen p.Resource.pod_name ();
              if History.State.mem rsets owner then
                Hashtbl.remove t.orphan_strikes p.Resource.pod_name
              else begin
                let strikes =
                  1 + Option.value (Hashtbl.find_opt t.orphan_strikes p.Resource.pod_name)
                        ~default:0
                in
                Hashtbl.replace t.orphan_strikes p.Resource.pod_name strikes;
                if strikes >= 5 then begin
                  Hashtbl.remove t.orphan_strikes p.Resource.pod_name;
                  delete_pod t p mod_rev
                end
              end
          | Some _ | None -> ()
        end
      | Some _ | None -> ())
    (History.State.keys_with_prefix pods ~prefix:Resource.pods_prefix);
  let stale =
    Hashtbl.fold
      (fun pod _ acc -> if Hashtbl.mem seen pod then acc else pod :: acc)
      t.orphan_strikes []
  in
  List.iter (Hashtbl.remove t.orphan_strikes) stale

let reconcile t =
  let rsets = Informer.store t.rsets in
  List.iter
    (fun key ->
      match History.State.get rsets key with
      | Some (Resource.Rset spec) -> reconcile_rset t spec.Resource.rs_name spec
      | Some _ | None -> ())
    (History.State.keys_with_prefix rsets ~prefix:Resource.rsets_prefix);
  gc_orphan_pods t

let create ~net ~name ~endpoints ?(expectations = false) () =
  let ctl = Controller.create ~net ~name ~endpoints in
  let rsets =
    Controller.watch ctl
      (Informer.create ~net ~owner:name ~endpoints ~prefix:Resource.rsets_prefix ())
  in
  let pods =
    Controller.watch ctl
      (Informer.create ~net ~owner:name ~endpoints ~prefix:Resource.pods_prefix ())
  in
  {
    ctl;
    expectations;
    rsets;
    pods;
    pending = Hashtbl.create 8;
    counters = Hashtbl.create 8;
    orphan_strikes = Hashtbl.create 16;
    creates = 0;
    deletes = 0;
  }

let start t =
  Controller.start t.ctl ~on_crash:(fun () ->
      Hashtbl.reset t.pending;
      Hashtbl.reset t.orphan_strikes);
  Controller.every t.ctl ~period (fun () -> reconcile t)
