module Footprint = Sieve.Footprint

type t = {
  pattern : Sieve.Coverage.pattern;
  component : string;
  prefix : string;
  severity : int;
  reason : string;
}

let mem_prefix p l = List.exists (String.equal p) l

let of_footprints (footprints : Footprint.t list) =
  let hazards = ref [] in
  let emit pattern component prefix severity reason =
    hazards := { pattern; component; prefix; severity; reason } :: !hazards
  in
  let writers_of p =
    List.filter_map
      (fun (fp : Footprint.t) ->
        if mem_prefix p fp.Footprint.writes then Some fp.Footprint.component else None)
      footprints
  in
  let watched_somewhere p =
    List.exists (fun (fp : Footprint.t) -> mem_prefix p fp.Footprint.cached_reads) footprints
  in
  List.iter
    (fun (fp : Footprint.t) ->
      let c = fp.Footprint.component in
      let guarded p = mem_prefix p fp.Footprint.quorum_reads in
      let acts = fp.Footprint.writes <> [] in
      List.iter
        (fun p ->
          (* Cached read feeding an unguarded destructive write: the
             op-400/402 shape, the sharpest hazard in the graph. *)
          if
            mem_prefix p fp.Footprint.destructive
            && mem_prefix p fp.Footprint.cached_reads
            && not (guarded p)
          then
            emit `Staleness c p 3
              (Printf.sprintf "cached read of %s feeds %s's destructive write, no quorum guard"
                 p c);
          (* Write/write conflicts on a prefix the component watches:
             each writer acts on a view the other writers mutate. *)
          if mem_prefix p fp.Footprint.writes && mem_prefix p fp.Footprint.cached_reads then begin
            match List.filter (fun w -> not (String.equal w c)) (writers_of p) with
            | [] -> ()
            | others ->
                emit `Staleness c p 2
                  (Printf.sprintf "write/write conflict on %s with %s" p
                     (String.concat ", " others))
          end;
          (* Written-but-unwatched: effects no informer can observe. *)
          if mem_prefix p fp.Footprint.writes && not (watched_somewhere p) then
            emit `Obs_gap c p 1 (Printf.sprintf "%s writes %s but no component watches it" c p))
        (List.sort_uniq String.compare
           (fp.Footprint.writes @ fp.Footprint.cached_reads @ fp.Footprint.destructive));
      List.iter
        (fun p ->
          if acts && not (guarded p) then begin
            (* Acting on a cached view of p: one dropped event poisons
               every later decision (56261/398 shape). Maximal when the
               view is edge-triggered (nothing ever repairs the drop) or
               when the component writes destructively — even to another
               prefix: a stale node view is what fails the pods. *)
            emit `Obs_gap c p
              (if
                 mem_prefix p fp.Footprint.edge_triggered
                 || fp.Footprint.destructive <> []
               then 3
               else 1)
              (Printf.sprintf "%s acts on its cached view of %s; a dropped event is never repaired"
                 c p);
            (* Restart + cached view: a re-list from a stale apiserver
               rewinds the inputs of its writes (59848 shape). *)
            if fp.Footprint.restartable then
              emit `Time_travel c p
                (if fp.Footprint.destructive <> [] then 2 else 1)
                (Printf.sprintf "restartable %s re-lists %s on restart; a stale source rewinds it"
                   c p)
          end)
        fp.Footprint.cached_reads)
    footprints;
  (* Dedup per (pattern, component, prefix), keeping the highest
     severity; order by severity desc then component/prefix for stable,
     readable output. *)
  let best = Hashtbl.create 64 in
  List.iter
    (fun h ->
      match Hashtbl.find_opt best (h.pattern, h.component, h.prefix) with
      | Some kept when kept.severity >= h.severity -> ()
      | _ -> Hashtbl.replace best (h.pattern, h.component, h.prefix) h)
    (List.rev !hazards);
  Hashtbl.fold (fun _ h acc -> h :: acc) best []
  |> List.sort (fun a b ->
         match compare b.severity a.severity with
         | 0 -> compare (a.component, a.prefix, a.pattern) (b.component, b.prefix, b.pattern)
         | c -> c)

let of_config config = of_footprints (Footprint.of_config config)

(* Lint findings join the graph as per-path hazards: one hazard per
   evidence path, not per function, so a function with two tainted
   routes to distinct sinks weighs twice. Additive only — of_footprints
   / of_config are untouched, and nothing on the execution path calls
   this (hunt journals stay byte-identical). Components are the runtime
   names where the file has one, so lint hazards land in the same
   namespace the planner and scorer use. *)
let component_of_file file =
  match Filename.basename file with
  | "deployment.ml" -> "depctl"
  | "replicaset.ml" -> "rsctl"
  | "node_controller.ml" -> "nodectl"
  | "volume_controller.ml" -> "volumectl"
  | "cassandra_operator.ml" -> "cassop"
  | "scheduler.ml" -> "scheduler"
  | "kubelet.ml" -> "kubelet"
  | base -> Filename.remove_extension base

let of_lint (findings : Lint.finding list) =
  List.map
    (fun (f : Lint.finding) ->
      let p = f.Lint.path in
      let severity =
        match p.Taint.sink_class with
        | Taint.Destructive | Taint.Record_destroy | Taint.Region_assign -> 3
        | Taint.Zk_write | Taint.Proposal | Taint.Reproposal -> 2
      in
      {
        pattern = f.Lint.pattern;
        component = component_of_file f.Lint.file;
        (* No key-space claim: the path is about a code route, not a
           prefix, so it matches any key of the component. *)
        prefix = "";
        severity;
        reason =
          Printf.sprintf "%s: %s %s (line %d) reaches %s (line %d); missing %s"
            f.Lint.rule
            (Taint.kind_to_string p.Taint.kind)
            p.Taint.source.Taint.what p.Taint.source.Taint.line
            p.Taint.sink.Taint.what p.Taint.sink.Taint.line p.Taint.missing_guard;
      })
    findings

let score hazards ~component ~key ~pattern =
  List.fold_left
    (fun acc h ->
      if
        h.pattern = pattern
        && String.equal h.component component
        && String.starts_with ~prefix:h.prefix key
      then max acc h.severity
      else acc)
    0 hazards

let plan_score hazards coverage (plan : Sieve.Planner.plan) =
  let cells = Sieve.Coverage.cells_of coverage plan.Sieve.Planner.strategy in
  match cells with
  | _ :: _ ->
      List.fold_left
        (fun acc (cell : Sieve.Coverage.cell) ->
          max acc
            (score hazards ~component:cell.Sieve.Coverage.component ~key:cell.Sieve.Coverage.key
               ~pattern:cell.Sieve.Coverage.pattern))
        0 cells
  | [] -> (
      (* Strategy touches no in-space cell (key filter outside the
         reference keys): fall back to its named components + pattern. *)
      match Sieve.Strategy.pattern plan.Sieve.Planner.strategy with
      | `None | `Mixed -> 0
      | (`Staleness | `Obs_gap | `Time_travel) as pattern ->
          List.fold_left
            (fun acc component ->
              List.fold_left
                (fun acc h ->
                  if h.pattern = pattern && String.equal h.component component then
                    max acc h.severity
                  else acc)
                acc hazards)
            0
            (Sieve.Strategy.components plan.Sieve.Planner.strategy))

let to_json h =
  Dsim.Json.Obj
    [
      ("pattern", Dsim.Json.String (Sieve.Coverage.pattern_to_string h.pattern));
      ("component", Dsim.Json.String h.component);
      ("prefix", Dsim.Json.String h.prefix);
      ("severity", Dsim.Json.Int h.severity);
      ("reason", Dsim.Json.String h.reason);
    ]
