type t = Planner | Planner_causal | Crashtuner | Cofi | Random

(* The commits without their origins: (time, key, op), in commit order. *)
let events commits = List.map (fun (c : Runner.commit) -> (c.time, c.key, c.op)) commits

let candidates ?(seed = 42L) ?(n = 400) family ~spec ~horizon commits =
  let events = events commits in
  let baseline rationale = List.map (fun strategy -> { Planner.strategy; rationale }) in
  match (family, spec) with
  | Planner, Substrate.Kube { config; _ } -> Planner.candidates ~config ~events ~horizon ()
  | Planner, Substrate.Hbase { config; _ } -> Planner.candidates_hbase ~config ~events ~horizon ()
  | Planner_causal, Substrate.Kube { config; _ } ->
      Planner.candidates_causal ~config ~commits ~horizon ()
  | Planner_causal, Substrate.Hbase { config; _ } ->
      Planner.candidates_causal_hbase ~config ~commits ~horizon ()
  | Crashtuner, _ ->
      let components, _ = Baselines.targets spec in
      baseline "crash a component just after a meta-info commit"
        (Baselines.crashtuner ~events ~components)
  | Cofi, _ ->
      let components, apiservers = Baselines.targets spec in
      baseline "partition a link at a meta-info commit"
        (Baselines.cofi ~events ~components ~apiservers)
  | Random, _ ->
      let components, apiservers = Baselines.targets spec in
      baseline "crash and partition at random times"
        (Baselines.random_faults ~seed ~components ~apiservers ~horizon ~n)

let space spec commits =
  match spec with
  | Substrate.Kube { config; _ } -> Coverage.create ~config ~events:(events commits)
  | Substrate.Hbase { config; _ } -> Coverage.create_hbase ~config ~events:(events commits)

let coverage_row space strategies =
  List.iter (Coverage.note space) strategies;
  List.map
    (fun (_, covered, total) -> Printf.sprintf "%d/%d" covered total)
    (Coverage.by_pattern space)
  @ [ Printf.sprintf "%.0f%%" (100.0 *. Coverage.ratio space) ]
