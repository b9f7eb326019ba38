type t = {
  ctl : Controller.t;
  quorum_fallback : bool;
  stalls : (string, int) Hashtbl.t;  (* deployment -> consecutive blocked passes *)
  fresh_running : (string, int) Hashtbl.t;  (* rset -> quorum-read Running count *)
  deployments : Informer.t;
  rsets : Informer.t;
  pods : Informer.t;
  mutable rollouts_completed : int;
}

(* The reconcile pass runs every 150 ms. The new generation may run
   [surge] pods above the desired count. *)
let period = 150_000
let surge = 1

let controller t = t.ctl

let rollouts_completed t = t.rollouts_completed

let generation_rs dep generation = Printf.sprintf "%s-g%d" dep generation

(* When the cached view wedges a rollout, re-count the new generation
   from etcd (quorum) — the stale cache cannot block progress forever. *)
let refresh_from_quorum t rs_name =
  Client.list_quorum (Controller.client t.ctl) ~prefix:Resource.pods_prefix (function
    | Ok items ->
        let running =
          List.fold_left
            (fun acc (_, value, _) ->
              match value with
              | Resource.Pod p
                when p.Resource.owner = Some (Resource.rset_key rs_name)
                     && p.Resource.deletion_timestamp = None
                     && p.Resource.phase = Resource.Running ->
                  acc + 1
              | _ -> acc)
            0 items
        in
        Hashtbl.replace t.fresh_running rs_name running;
        Controller.record t.ctl "depctl.quorum-refresh"
          (Printf.sprintf "%s running=%d" rs_name running)
    | Error `Unavailable -> ())

(* Parse "<dep>-g<k>" back to a generation; None for foreign rsets. *)
let generation_of_rs dep rs_name =
  let prefix = dep ^ "-g" in
  if String.starts_with ~prefix rs_name then
    int_of_string_opt
      (String.sub rs_name (String.length prefix) (String.length rs_name - String.length prefix))
  else None

(* Running pods owned by the given replica set, per this controller's
   cached view. *)
let running_of_rs t rs_name =
  let store = Informer.store t.pods in
  let rs_key = Resource.rset_key rs_name in
  History.State.fold
    (fun _ (v, _) acc ->
      match v with
      | Resource.Pod p
        when Resource.owned_by rs_key p
             && p.Resource.deletion_timestamp = None
             && p.Resource.phase = Resource.Running ->
          acc + 1
      | _ -> acc)
    store 0

let owned_rsets t dep =
  let store = Informer.store t.rsets in
  History.State.fold
    (fun _ (v, _) acc ->
      match v with
      | Resource.Rset r -> (
          match generation_of_rs dep r.Resource.rs_name with
          | Some generation -> (generation, r) :: acc
          | None -> acc)
      | _ -> acc)
    store []
  |> List.sort compare

let set_rs_replicas t rs_name replicas =
  Client.txn_ (Controller.client t.ctl)
    (Messages.put (Resource.rset_key rs_name) (Resource.make_rset ~replicas rs_name))

let delete_rs t rs_name =
  Controller.record t.ctl "depctl.retire" rs_name;
  Client.txn_ (Controller.client t.ctl) (Messages.delete (Resource.rset_key rs_name))

let reconcile_deployment t (d : Resource.deployment) =
  let dep = d.Resource.dep_name in
  let desired = d.Resource.dep_replicas in
  let target_rs = generation_rs dep d.Resource.template in
  let sets = owned_rsets t dep in
  let target_spec = List.assoc_opt d.Resource.template sets in
  let old_sets = List.filter (fun (g, _) -> g <> d.Resource.template) sets in
  let cached_running = running_of_rs t target_rs in
  let new_running =
    max cached_running (Option.value (Hashtbl.find_opt t.fresh_running target_rs) ~default:0)
  in
  match target_spec with
  | None ->
      (* New generation: start it at 1 (or full size if nothing is
         serving yet). *)
      Controller.record t.ctl "depctl.rollout"
        (Printf.sprintf "%s -> generation %d" dep d.Resource.template);
      set_rs_replicas t target_rs (if old_sets = [] then desired else min surge desired)
  | Some spec ->
      let current = spec.Resource.rs_replicas in
      (* Grow the new set while total intent stays within desired+surge. *)
      let old_intent = List.fold_left (fun acc (_, r) -> acc + r.Resource.rs_replicas) 0 old_sets in
      if current < desired && current + old_intent < desired + surge then
        set_rs_replicas t target_rs (current + 1)
      else if current > desired then set_rs_replicas t target_rs desired;
      (* Shrink old generations only against pods actually Running in the
         new one: availability before progress. *)
      (* Stall detection: we asked for [current] new pods but observe
         fewer running while old pods still hold the fort. *)
      (if new_running < current && old_intent > 0 then begin
         let stalls = 1 + Option.value (Hashtbl.find_opt t.stalls dep) ~default:0 in
         Hashtbl.replace t.stalls dep stalls;
         if t.quorum_fallback && stalls >= 6 then begin
           Hashtbl.remove t.stalls dep;
           refresh_from_quorum t target_rs
         end
       end
       else Hashtbl.remove t.stalls dep);
      let allowed_old = max 0 (desired - new_running) in
      if old_intent > allowed_old then begin
        (* Take the surplus off the oldest generation first. *)
        match old_sets with
        | (_, oldest) :: _ ->
            let surplus = old_intent - allowed_old in
            set_rs_replicas t oldest.Resource.rs_name
              (max 0 (oldest.Resource.rs_replicas - surplus))
        | [] -> ()
      end;
      (* Retire drained old generations. *)
      List.iter
        (fun (_, r) ->
          if r.Resource.rs_replicas = 0 && running_of_rs t r.Resource.rs_name = 0 then begin
            delete_rs t r.Resource.rs_name;
            if new_running >= desired then begin
              t.rollouts_completed <- t.rollouts_completed + 1;
              Controller.record t.ctl "depctl.rollout-done"
                (Printf.sprintf "%s at generation %d" dep d.Resource.template)
            end
          end)
        old_sets

let reconcile t =
  History.State.iter_prefix (Informer.store t.deployments) ~prefix:Resource.deployments_prefix
    (fun _ v _ -> match v with Resource.Deployment d -> reconcile_deployment t d | _ -> ())

let create ~net ~name ~endpoints ?(quorum_fallback = false) () =
  let ctl = Controller.create ~net ~name ~endpoints in
  let deployments =
    Controller.watch ctl
      (Informer.create ~net ~owner:name ~endpoints ~prefix:Resource.deployments_prefix ())
  in
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
    quorum_fallback;
    stalls = Hashtbl.create 8;
    fresh_running = Hashtbl.create 8;
    deployments;
    rsets;
    pods;
    rollouts_completed = 0;
  }

let start t =
  Controller.start t.ctl ~on_crash:(fun () ->
      Hashtbl.reset t.stalls;
      Hashtbl.reset t.fresh_running);
  Controller.every t.ctl ~period (fun () -> reconcile t)
