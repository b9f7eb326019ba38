type pattern = [ `Staleness | `Obs_gap | `Time_travel ]

let pattern_to_string = function
  | `Staleness -> "staleness"
  | `Obs_gap -> "observability-gap"
  | `Time_travel -> "time-travel"

type cell = { component : string; key : string; pattern : pattern }

type t = {
  targets : Planner.target list;
  keys : string list;  (** distinct reference keys *)
  cells : cell array;  (** the space, in enumeration order; a cell's id is its index *)
  ids : (cell, int) Hashtbl.t;
  marks : Bytes.t;  (** one byte per id, nonzero once marked *)
  mutable covered : int;
}

type footprint = int array

let enumerate targets keys =
  List.concat_map
    (fun target ->
      List.concat_map
        (fun key ->
          if Planner.consumed_by target key then
            List.map
              (fun pattern -> { component = target.Planner.component; key; pattern })
              [ `Staleness; `Obs_gap; `Time_travel ]
          else [])
        keys)
    targets

let of_targets targets ~events =
  let keys = List.sort_uniq String.compare (List.map (fun (_, key, _) -> key) events) in
  let cells = Array.of_list (enumerate targets keys) in
  let ids = Hashtbl.create (max 16 (Array.length cells)) in
  Array.iteri (fun id cell -> Hashtbl.replace ids cell id) cells;
  { targets; keys; cells; ids; marks = Bytes.make (Array.length cells) '\000'; covered = 0 }

let create ~config ~events = of_targets (Planner.targets_of_config config) ~events

let create_hbase ~config ~events = of_targets (Planner.targets_hbase config) ~events

let matching_keys t prefix =
  match prefix with
  | None -> t.keys
  | Some prefix -> List.filter (String.starts_with ~prefix) t.keys

let all_components t = List.map (fun target -> target.Planner.component) t.targets

let is_apiserver name = String.starts_with ~prefix:"api-" name

(* "etcd" (single backend), "etcd-<k>" (a replica of the replicated
   backend) or "zk-<role>" (the HBase substrate's ZooKeeper pair):
   faulting either side of the store makes every consumer's view
   potentially stale. *)
let is_store name = String.starts_with ~prefix:"etcd" name || String.starts_with ~prefix:"zk-" name

(* Ids of the in-space cells a strategy exercises, in generation order;
   combo parts may repeat an id. *)
let rec ids_of t (strategy : Strategy.t) =
  let scoped components ~key_prefix pattern =
    List.concat_map
      (fun component ->
        List.filter_map
          (fun key -> Hashtbl.find_opt t.ids { component; key; pattern })
          (matching_keys t key_prefix))
      components
  in
  match strategy with
  | Strategy.No_perturbation -> []
  (* A delivery fault whose destination is a store replica (the HBase
     follower) starves every consumer reading through it, not a single
     component. *)
  | Strategy.Drop_events { dst; matching; _ } ->
      let components =
        match dst with
        | Some c when is_store c -> all_components t
        | Some c -> [ c ]
        | None -> all_components t
      in
      scoped components ~key_prefix:matching.Strategy.key_prefix `Obs_gap
  | Strategy.Delay_stream { dst; matching; _ } ->
      let components =
        match dst with
        | Some c when is_store c -> all_components t
        | Some c -> [ c ]
        | None -> all_components t
      in
      scoped components ~key_prefix:matching.Strategy.key_prefix `Staleness
  | Strategy.Partition_window { a; b; _ } ->
      (* Freezing an apiserver makes every component potentially stale;
         cutting a component's own link makes that component stale. *)
      let components =
        if is_apiserver a || is_apiserver b || is_store a || is_store b then all_components t
        else List.filter (fun c -> String.equal c a || String.equal c b) (all_components t)
      in
      scoped components ~key_prefix:None `Staleness
  | Strategy.Crash_restart { victim; _ } ->
      if List.mem victim (all_components t) then
        scoped [ victim ] ~key_prefix:None `Time_travel
      else if is_store victim then
        (* A crashed replica (or leader) stalls or re-routes every read
           pinned to it: staleness raw material for all consumers. *)
        scoped (all_components t) ~key_prefix:None `Staleness
      else []
  | Strategy.Combo parts -> List.concat_map (ids_of t) parts

let cells_of t strategy = List.map (fun id -> t.cells.(id)) (ids_of t strategy)

let footprint t strategy = Array.of_list (List.sort_uniq Int.compare (ids_of t strategy))

let is_marked t id = Bytes.get t.marks id <> '\000'

let fresh t footprint =
  Array.fold_left (fun n id -> if is_marked t id then n else n + 1) 0 footprint

let mark t footprint =
  Array.iter
    (fun id ->
      if not (is_marked t id) then begin
        Bytes.set t.marks id '\001';
        t.covered <- t.covered + 1
      end)
    footprint

let note t strategy = mark t (footprint t strategy)

let total t = Array.length t.cells

let covered t = t.covered

let ratio t =
  let n = total t in
  if n = 0 then 0.0 else float_of_int (covered t) /. float_of_int n

let by_pattern t =
  let ids = List.init (total t) Fun.id in
  List.map
    (fun pattern ->
      let in_pattern = List.filter (fun id -> t.cells.(id).pattern = pattern) ids in
      (pattern, List.length (List.filter (is_marked t) in_pattern), List.length in_pattern))
    [ `Staleness; `Obs_gap; `Time_travel ]
