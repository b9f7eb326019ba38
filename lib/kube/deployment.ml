(* The Running pods of one owning rset key, in this pass's count. *)
type owned = { owner : string; mutable running : int }

type t = {
  ctl : Controller.t;
  quorum_fallback : bool;
  stalls : (string, int) Hashtbl.t;  (* deployment -> consecutive blocked passes *)
  fresh_running : (string, int) Hashtbl.t;  (* rset -> quorum-read Running count *)
  deployments : Informer.t;
  rsets : Informer.t;
  pods : Informer.t;
  mutable running : owned list;  (* this pass's count, one entry per owner *)
  mutable rollouts_completed : int;
}

(* The reconcile pass runs every 150 ms. The new generation may run
   [surge] pods above the desired count. *)
let period = 150_000
let surge = 1

let controller t = t.ctl

let rollouts_completed t = t.rollouts_completed

let generation_rs dep generation = dep ^ "-g" ^ string_of_int generation

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

(* The generation in [rs_name] from [i] on: what [int_of_string_opt]
   makes of the suffix, read in place while it is at most 18 decimal
   digits (no overflow). *)
let rec generation_from rs_name ~base i acc =
  if i = String.length rs_name then Some acc
  else
    match rs_name.[i] with
    | '0' .. '9' as c when i - base < 18 ->
        generation_from rs_name ~base (i + 1) ((acc * 10) + Char.code c - 48)
    | _ -> int_of_string_opt (String.sub rs_name base (String.length rs_name - base))

(* Parse "<dep>-g<k>" back to a generation; None for foreign rsets. *)
let generation_of_rs dep rs_name =
  let base = String.length dep + 2 in
  if
    String.length rs_name > base
    && History.Event.has_prefix dep rs_name
    && rs_name.[base - 2] = '-'
    && rs_name.[base - 1] = 'g'
  then generation_from rs_name ~base base 0
  else None

let rec bump owner = function
  | [] -> false
  | o :: rest ->
      (String.equal o.owner owner && (o.running <- o.running + 1; true)) || bump owner rest

(* One walk of the cached pods per pass counts the Running pods of each
   owning rset. Nothing a pass does changes its caches, so the counts
   hold for the whole pass. *)
let count_running t =
  t.running <- [];
  History.State.iter_prefix (Informer.store t.pods) ~prefix:Resource.pods_prefix (fun _ v _ ->
      match v with
      | Resource.Pod
          {
            Resource.owner = Some owner;
            deletion_timestamp = None;
            phase = Resource.Running;
            _;
          } ->
          if not (bump owner t.running) then t.running <- { owner; running = 1 } :: t.running
      | _ -> ())

let rec same_from key ~at name i =
  i = String.length name || (key.[at + i] = name.[i] && same_from key ~at name (i + 1))

(* [String.equal key (Resource.rset_key rs_name)], without building the
   key. *)
let is_rset_key key rs_name =
  let at = String.length Resource.rsets_prefix in
  String.length key = at + String.length rs_name
  && History.Event.has_prefix Resource.rsets_prefix key
  && same_from key ~at rs_name 0

let rec running_in rs_name = function
  | [] -> 0
  | o :: rest -> if is_rset_key o.owner rs_name then o.running else running_in rs_name rest

(* Running pods owned by the given replica set, per this controller's
   cached view. *)
let running_of_rs t rs_name = running_in rs_name t.running

(* Sorted by generation; equal generations in [compare]'s order of the
   pairs. *)
let rec insert ((generation, _) as set) = function
  | ((generation', _) as set') :: rest
    when generation' < generation || (generation' = generation && compare set' set <= 0) ->
      set' :: insert set rest
  | sets -> set :: sets

(* One walk of the cached rsets, in place. It folds rather than iterates
   so that what it returns is still a cached read to the lint: the
   retire path deletes what this view says is drained. *)
let owned_rsets t dep =
  History.State.fold
    (fun _ (v, _) sets ->
      match v with
      | Resource.Rset r -> (
          match generation_of_rs dep r.Resource.rs_name with
          | Some generation -> insert (generation, r) sets
          | None -> sets)
      | _ -> sets)
    (Informer.store t.rsets) []

let set_rs_replicas t rs_name replicas =
  Client.txn_ (Controller.client t.ctl)
    (Messages.put (Resource.rset_key rs_name) (Resource.make_rset ~replicas rs_name))

let delete_rs t rs_name =
  Controller.record t.ctl "depctl.retire" rs_name;
  Client.txn_ (Controller.client t.ctl) (Messages.delete (Resource.rset_key rs_name))

(* Retire drained old generations. *)
let rec retire t (d : Resource.deployment) ~new_running old_sets =
  match old_sets with
  | [] -> ()
  | (_, r) :: rest ->
      if r.Resource.rs_replicas = 0 && running_of_rs t r.Resource.rs_name = 0 then begin
        delete_rs t r.Resource.rs_name;
        if new_running >= d.Resource.dep_replicas then begin
          t.rollouts_completed <- t.rollouts_completed + 1;
          Controller.record t.ctl "depctl.rollout-done"
            (Printf.sprintf "%s at generation %d" d.Resource.dep_name d.Resource.template)
        end
      end;
      retire t d ~new_running rest

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
      retire t d ~new_running old_sets

let reconcile t =
  count_running t;
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
    running = [];
    rollouts_completed = 0;
  }

let start t =
  Controller.start t.ctl ~on_crash:(fun () ->
      Hashtbl.reset t.stalls;
      Hashtbl.reset t.fresh_running);
  Controller.every t.ctl ~period (fun () -> reconcile t)
