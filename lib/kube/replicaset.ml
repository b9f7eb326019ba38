type expectation = { pod : string; deadline : int }

type t = {
  ctl : Controller.t;
  expectations : bool;
  rsets : Informer.t;
  pods : Informer.t;
  pending : (string, expectation list) Hashtbl.t;  (* rset name -> issued creations *)
  counters : (string, int) Hashtbl.t;  (* rset name -> next fresh suffix *)
  orphan_strikes : Strikes.t;  (* pods seen ownerless *)
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

let live (p : Resource.pod) =
  p.Resource.deletion_timestamp = None && p.Resource.phase <> Resource.Failed

let rec expects pod_name = function
  | [] -> false
  | e :: rest -> String.equal e.pod pod_name || expects pod_name rest

(* Expectations bookkeeping: forget creations that have shown up in the
   view ([visible]) or have timed out. *)
let outstanding t rs expected ~visible =
  let now = Dsim.Engine.now (Controller.engine t.ctl) in
  let still_pending =
    List.filter (fun e -> e.deadline > now && not (List.mem e.pod visible)) expected
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

(* One walk of the cached pods counts the set's live members (live = not
   marked, not Failed; Failed pods are replaced, not counted) and notes
   which expected creations it can see. Only a scale-down walks again,
   to list the live members it sheds. *)
let reconcile_rset t rs (spec : Resource.rset) =
  let store = Informer.store t.pods in
  let rs_key = Resource.rset_key rs in
  let expected =
    if t.expectations then Option.value (Hashtbl.find_opt t.pending rs) ~default:[] else []
  in
  let live_members = ref 0 and visible = ref [] in
  History.State.iter_prefix store ~prefix:Resource.pods_prefix (fun _ v _ ->
      match v with
      | Resource.Pod p when Resource.owned_by rs_key p ->
          if live p then incr live_members;
          if expects p.Resource.pod_name expected then visible := p.Resource.pod_name :: !visible
      | _ -> ());
  let live_members = !live_members in
  let pending = if t.expectations then outstanding t rs expected ~visible:!visible else 0 in
  let effective = live_members + pending in
  let desired = spec.Resource.rs_replicas in
  if effective < desired then
    for _ = 1 to desired - effective do
      create_pod t rs
    done
  else if live_members > desired && pending = 0 then begin
    (* Scale down: shed the newest pods first. *)
    let members = ref [] in
    History.State.iter_prefix store ~prefix:Resource.pods_prefix (fun _ v mod_rev ->
        match v with
        | Resource.Pod p when Resource.owned_by rs_key p && live p -> members := (p, mod_rev) :: !members
        | _ -> ());
    let by_name =
      List.sort (fun (a, _) (b, _) -> String.compare b.Resource.pod_name a.Resource.pod_name)
        (List.rev !members)
    in
    let surplus = live_members - desired in
    List.iteri (fun i (p, mod_rev) -> if i < surplus then delete_pod t p mod_rev) by_name
  end

(* Pods whose owning ReplicaSet object no longer exists are garbage;
   several consecutive sightings are required so that a view that is
   merely *behind* (the rset created moments ago) does not trigger a
   massacre. *)
let gc_orphan_pods t =
  let rsets = Informer.store t.rsets in
  History.State.iter_prefix (Informer.store t.pods) ~prefix:Resource.pods_prefix
    (fun _ v mod_rev ->
      match v with
      | Resource.Pod ({ Resource.deletion_timestamp = None; owner = Some owner; _ } as p)
        when History.Event.has_prefix Resource.rsets_prefix owner ->
          if History.State.mem rsets owner then Strikes.clear t.orphan_strikes p.Resource.pod_name
          else if Strikes.strike t.orphan_strikes p.Resource.pod_name >= 5 then begin
            Strikes.clear t.orphan_strikes p.Resource.pod_name;
            delete_pod t p mod_rev
          end
      | _ -> ());
  Strikes.sweep t.orphan_strikes

let reconcile t =
  History.State.iter_prefix (Informer.store t.rsets) ~prefix:Resource.rsets_prefix
    (fun _ v _ ->
      match v with
      | Resource.Rset spec -> reconcile_rset t spec.Resource.rs_name spec
      | _ -> ());
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
    orphan_strikes = Strikes.create ();
    creates = 0;
    deletes = 0;
  }

let start t =
  Controller.start t.ctl ~on_crash:(fun () ->
      Hashtbl.reset t.pending;
      Strikes.reset t.orphan_strikes);
  Controller.every t.ctl ~period (fun () -> reconcile t)
