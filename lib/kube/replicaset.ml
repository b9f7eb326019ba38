type expectation = { pod : string; deadline : int }

type t = {
  name : string;
  net : Dsim.Network.t;
  client : Client.t;
  expectations : bool;
  period : int;
  mutable rsets_informer : Informer.t option;
  mutable pods_informer : Informer.t option;
  pending : (string, expectation list) Hashtbl.t;  (* rset name -> issued creations *)
  counters : (string, int) Hashtbl.t;  (* rset name -> next fresh suffix *)
  orphan_strikes : (string, int) Hashtbl.t;  (* pod -> passes seen ownerless *)
  mutable reconciles : int;
  mutable creates : int;
  mutable deletes : int;
}

(* An unobserved creation stops counting toward expectations after 2 s. *)
let expectation_timeout = 2_000_000

let name t = t.name

let reconciles t = t.reconciles

let creates t = t.creates

let deletes t = t.deletes

let informer_exn = function Some i -> i | None -> invalid_arg "Replicaset: not started"

let pods_informer t = informer_exn t.pods_informer

let rsets_informer t = informer_exn t.rsets_informer

let view_rev t =
  Informer.least_rev (Informer.min_rev (Informer.min_rev max_int t.rsets_informer) t.pods_informer)

let engine t = Dsim.Network.engine t.net

let record t kind detail = Dsim.Engine.record (engine t) ~actor:t.name ~kind detail

let fresh_pod_name t rs =
  let counter = Option.value (Hashtbl.find_opt t.counters rs) ~default:0 in
  Hashtbl.replace t.counters rs (counter + 1);
  Printf.sprintf "%s-%d" rs counter

(* Pods of this set the cache can currently see (live = not marked, not
   Failed; Failed pods are replaced, not counted). *)
let cached_members t rs_key =
  let store = Informer.store (pods_informer t) in
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
  let now = Dsim.Engine.now (engine t) in
  let still_pending =
    Option.value (Hashtbl.find_opt t.pending rs) ~default:[]
    |> List.filter (fun e -> e.deadline > now && not (List.mem e.pod visible))
  in
  Hashtbl.replace t.pending rs still_pending;
  List.length still_pending

let create_pod t rs =
  let pod_name = fresh_pod_name t rs in
  t.creates <- t.creates + 1;
  record t "rsctl.create" pod_name;
  if t.expectations then begin
    let now = Dsim.Engine.now (engine t) in
    let entry = { pod = pod_name; deadline = now + expectation_timeout } in
    Hashtbl.replace t.pending rs (entry :: Option.value (Hashtbl.find_opt t.pending rs) ~default:[])
  end;
  Client.txn_ t.client
    (Etcdlike.Txn.create_if_absent ~key:(Resource.pod_key pod_name)
       (Resource.make_pod ~owner:(Resource.rset_key rs) pod_name))

let delete_pod t (p : Resource.pod) mod_rev =
  t.deletes <- t.deletes + 1;
  record t "rsctl.scale-down" p.Resource.pod_name;
  let now = Dsim.Engine.now (engine t) in
  Client.txn_ t.client
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
  let rsets = Informer.store (rsets_informer t) in
  let pods = Informer.store (pods_informer t) in
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
  t.reconciles <- t.reconciles + 1;
  let rsets = Informer.store (rsets_informer t) in
  List.iter
    (fun key ->
      match History.State.get rsets key with
      | Some (Resource.Rset spec) -> reconcile_rset t spec.Resource.rs_name spec
      | Some _ | None -> ())
    (History.State.keys_with_prefix rsets ~prefix:Resource.rsets_prefix);
  gc_orphan_pods t

let create ~net ~name ~endpoints ?(expectations = false) ?(period = 150_000) () =
  let t =
    {
      name;
      net;
      client = Client.create ~net ~owner:name ~endpoints ();
      expectations;
      period;
      rsets_informer = None;
      pods_informer = None;
      pending = Hashtbl.create 8;
      counters = Hashtbl.create 8;
      orphan_strikes = Hashtbl.create 16;
      reconciles = 0;
      creates = 0;
      deletes = 0;
    }
  in
  t.rsets_informer <-
    Some (Informer.create ~net ~owner:name ~endpoints ~prefix:Resource.rsets_prefix ());
  t.pods_informer <-
    Some (Informer.create ~net ~owner:name ~endpoints ~prefix:Resource.pods_prefix ());
  t

let start t =
  let self = Dsim.Network.peer t.net t.name in
  let rsets = rsets_informer t and pods = pods_informer t in
  Dsim.Network.set_lifecycle t.net t.name
    ~on_crash:(fun () ->
      Informer.stop rsets;
      Informer.stop pods;
      Hashtbl.reset t.pending)
    ~on_restart:(fun () ->
      let endpoint = Dsim.Network.peer_incarnation self in
      Informer.start rsets ~endpoint ();
      Informer.start pods ~endpoint ());
  Informer.start rsets ~endpoint:0 ();
  Informer.start pods ~endpoint:0 ();
  Dsim.Engine.every (engine t) ~period:t.period (fun () ->
      if Dsim.Network.peer_is_up self then reconcile t;
      true)
