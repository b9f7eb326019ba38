(* From an oracle (or conformance) trip to a root-cause card:

   1. anchor on the violation's trace entry and walk the causal chain
      backwards ({!Dsim.Trace.chain});
   2. pick the divergence point — the conformance monitor's record of
      where the suspect stream's observed (H', S') left the committed
      subsequence — preferring streams owned by the violation's suspect
      components, then components on the causal chain;
   3. intersect with the static hazard graph and the per-component
      footprints to name the read-site and anti-pattern class. *)

let anti_pattern_of_pattern = function
  | `Staleness -> "stale-write"
  | `Obs_gap -> "edge-trigger"
  | `Time_travel -> "stale-resync"

(* "cassop#pods/" -> "cassop"; "api-2<-etcd" -> "api-2". *)
let component_of_stream stream =
  match String.index_opt stream '#' with
  | Some i -> String.sub stream 0 i
  | None -> (
      let n = String.length stream in
      let rec scan i =
        if i + 1 >= n then stream
        else if stream.[i] = '<' && stream.[i + 1] = '-' then String.sub stream 0 i
        else scan (i + 1)
      in
      scan 0)

(* Prefer the divergence of a replication stream (a replica's applied
   frontier leaving the leader-committed history — only present when the
   store is replicated, so single-store cards are unchanged), then one of
   a stream the violation directly implicates, then one on the causal
   chain; detection order breaks ties. A fault plan routinely diverges
   bystander streams too (a partitioned apiserver lags for everyone) —
   the suspect filter is what keeps the card pointed at the controller
   that misbehaved, and the replication filter is what makes a stale
   follower outrank the consumers it misled. *)
let pick_divergence divs ~suspects ~chain_actors =
  let rank (d : Conformance.Monitor.divergence) =
    let stream = d.Conformance.Monitor.d_stream in
    let c = component_of_stream stream in
    if String.length stream >= 6 && String.sub stream (String.length stream - 6) 6 = "<-raft"
    then -1
    else if List.mem c suspects then 0
    else if List.mem c chain_actors then 1
    else 2
  in
  List.fold_left
    (fun best d ->
      match best with
      | Some (r, _) when r <= rank d -> best
      | _ -> Some (rank d, d))
    None divs
  |> Option.map snd

let classify ~hazards ~component ~key kind =
  let score pattern = Analysis.Hazard.score hazards ~component ~key ~pattern in
  let pattern =
    match (kind : Conformance.Monitor.divergence_kind) with
    | Conformance.Monitor.Rewind -> `Time_travel
    | Conformance.Monitor.Lag -> `Staleness
    | Conformance.Monitor.Skip ->
        (* A skipped event read through a cache that feeds an unguarded
           destructive write is the stale-write shape (op-400/402); a
           skip whose consumer merely never reacts is an edge-trigger. *)
        if score `Staleness >= 3 then `Staleness else `Obs_gap
  in
  let pick p =
    List.fold_left
      (fun best (h : Analysis.Hazard.t) ->
        if
          h.Analysis.Hazard.pattern = pattern
          && String.equal h.Analysis.Hazard.component component
          && p h
        then
          match best with
          | Some (b : Analysis.Hazard.t) when b.Analysis.Hazard.severity >= h.Analysis.Hazard.severity
            ->
              best
          | _ -> Some h
        else best)
      None hazards
  in
  let best =
    match pick (fun h -> String.starts_with ~prefix:h.Analysis.Hazard.prefix key) with
    | Some _ as b -> b
    | None ->
        (* The stale read and the write it feeds can live on different
           prefixes (HBASE-3136: a stale registry read feeds the region
           CAS) — fall back to the component's sharpest hazard of the
           same class. *)
        pick (fun _ -> true)
  in
  ( anti_pattern_of_pattern pattern,
    (match best with Some h -> h.Analysis.Hazard.severity | None -> 0),
    match best with Some h -> h.Analysis.Hazard.reason | None -> "" )

(* The static evidence path that predicted the divergence: the lint
   finding over the suspect component's source whose pattern matches the
   classified anti-pattern class. Best-effort — the sources are looked
   up relative to the working directory (repo root for the CLI, the
   build sandbox for tests); a card built where they are not on disk
   just omits the path. Pure read-side: nothing here touches the run. *)
let pattern_of_anti_pattern = function
  | "stale-write" -> Some `Staleness
  | "edge-trigger" -> Some `Obs_gap
  | "stale-resync" -> Some `Time_travel
  | _ -> None

let file_of_component component =
  let base =
    if String.length component >= 7 && String.sub component 0 7 = "kubelet" then
      "kubelet.ml"
    else if String.starts_with ~prefix:"master-" component then "master.ml"
    else if String.starts_with ~prefix:"rs-" component then "regionserver.ml"
    else if String.starts_with ~prefix:"zk-" component then "zk.ml"
    else
      match component with
      | "depctl" -> "deployment.ml"
      | "rsctl" -> "replicaset.ml"
      | "nodectl" -> "node_controller.ml"
      | "volumectl" -> "volume_controller.ml"
      | "cassop" -> "cassandra_operator.ml"
      | "scheduler" -> "scheduler.ml"
      | c -> c ^ ".ml"
  in
  List.find_map
    (fun dir ->
      let p = Filename.concat dir base in
      if Sys.file_exists p then Some p else None)
    [
      "lib/kube"; "../lib/kube"; "lib/hbase"; "../lib/hbase"; "lib/replicated";
      "../lib/replicated";
    ]

let taint_path_of ~component ~anti_pattern =
  match pattern_of_anti_pattern anti_pattern with
  | None -> None
  | Some pattern -> (
      match file_of_component component with
      | None -> None
      | Some path -> (
          match Analysis.Lint.file path with
          | Error _ -> None
          | Ok findings ->
              List.find_opt
                (fun (f : Analysis.Lint.finding) -> f.Analysis.Lint.pattern = pattern)
                findings
              |> Option.map Analysis.Lint.explain_lines))

let read_site_of ~footprints ~component ~key =
  match Sieve.Footprint.find footprints component with
  | Some fp -> (
      match
        List.find_opt
          (fun p -> String.starts_with ~prefix:p key)
          fp.Sieve.Footprint.cached_reads
      with
      | Some p -> p
      | None -> ( match fp.Sieve.Footprint.cached_reads with p :: _ -> p | [] -> key))
  | None -> key

(* The oracle records each violation as "[bug-id] description"; match on
   that to anchor the walk at the *targeted* violation's entry — a run
   can trip several oracles (CA-400's wrong decommission also deletes a
   live claim) and the card must be about the one asked for. *)
let entry_of_violation trace v =
  let detail =
    Printf.sprintf "[%s] %s" (Sieve.Oracle.bug_id v) (Sieve.Oracle.describe v)
  in
  List.find_opt
    (fun (e : Dsim.Trace.entry) -> String.equal e.Dsim.Trace.detail detail)
    (Dsim.Trace.find_all trace ~kind:"oracle.violation")

let of_outcome ?(target = fun _ -> true) ?minimized (outcome : Sieve.Runner.outcome) =
  match outcome.Sieve.Runner.hooks with
  | None -> None
  | Some hooks -> (
      let trace = Sieve.Substrate.trace outcome.Sieve.Runner.live in
      let targeted =
        match List.find_opt (fun (_, v) -> target v) outcome.Sieve.Runner.violations with
        | Some _ as t -> t
        | None -> ( (* nothing matched: diagnose the first trip instead *)
            match outcome.Sieve.Runner.violations with x :: _ -> Some x | [] -> None)
      in
      let anchor_entry =
        match targeted with
        | Some (_, v) -> (
            match entry_of_violation trace v with
            | Some _ as e -> e
            | None -> Sieve.Runner.violation_entry outcome)
        | None -> Sieve.Runner.violation_entry outcome
      in
      match anchor_entry with
      | None -> None
      | Some anchor ->
          let live = outcome.Sieve.Runner.live in
          let feed = Sieve.Substrate.commits live in
          let chain = Dsim.Trace.chain trace ~id:anchor.Dsim.Trace.id in
          let truncated =
            match chain with
            | oldest :: _ -> (
                match oldest.Dsim.Trace.cause with
                | Some c -> Dsim.Trace.find trace ~id:c = None
                | None -> false)
            | [] -> false
          in
          let chain_actors =
            List.sort_uniq String.compare (List.map (fun e -> e.Dsim.Trace.actor) chain)
          in
          let bug, violation, suspects =
            match targeted with
            | Some (_, v) ->
                (Sieve.Oracle.bug_id v, Sieve.Oracle.describe v, Sieve.Oracle.components v)
            | None -> ("conformance", anchor.Dsim.Trace.detail, [])
          in
          let spec = outcome.Sieve.Runner.test.Sieve.Runner.spec in
          let footprints =
            match spec with
            | Sieve.Substrate.Kube { config; _ } -> Sieve.Footprint.of_config config
            | Sieve.Substrate.Hbase { config; _ } -> Sieve.Footprint.of_hbase_config config
          in
          let hazards = Analysis.Hazard.of_footprints footprints in
          let divergence, suspect =
            match
              pick_divergence (Conformance.Handle.divergences hooks) ~suspects ~chain_actors
            with
            | Some d ->
                let component = component_of_stream d.Conformance.Monitor.d_stream in
                let key = d.Conformance.Monitor.d_key in
                (* The diverged stream may belong to the store side (a
                   replica's applied frontier left the leader-committed
                   history): the code whose read-site the card must name
                   is the consumer the violation implicates, so when the
                   diverged component has no footprint, attribute the
                   suspect section to the first implicated component
                   that has one. *)
                let suspect_component =
                  if Sieve.Footprint.find footprints component <> None then component
                  else
                    match
                      List.find_opt
                        (fun c -> Sieve.Footprint.find footprints c <> None)
                        suspects
                    with
                    | Some c -> c
                    | None -> component
                in
                let anti_pattern, hazard_severity, hazard_reason =
                  classify ~hazards ~component:suspect_component ~key
                    d.Conformance.Monitor.d_kind
                in
                ( {
                    Card.kind =
                      Conformance.Monitor.divergence_kind_to_string d.Conformance.Monitor.d_kind;
                    rev = d.Conformance.Monitor.d_rev;
                    stream = d.Conformance.Monitor.d_stream;
                    component;
                    key;
                    frontier = d.Conformance.Monitor.d_frontier;
                    event =
                      Conformance.Handle.committed_describe hooks d.Conformance.Monitor.d_rev;
                    trace_id = Etcdlike.Commits.anchor feed ~rev:d.Conformance.Monitor.d_rev;
                    detail = d.Conformance.Monitor.d_detail;
                  },
                  {
                    Card.component = suspect_component;
                    read_site = read_site_of ~footprints ~component:suspect_component ~key;
                    anti_pattern;
                    hazard_severity;
                    hazard_reason;
                  } )
            | None ->
                (* No mirrored stream ever left the committed
                   subsequence — the partial view lived inside a protocol
                   the monitor does not mirror (a one-shot watch's
                   fire-to-rearm gap). Name the best suspect, and let its
                   footprint still name the read-site and class. *)
                let component =
                  match suspects with c :: _ -> c | [] -> anchor.Dsim.Trace.actor
                in
                let read_site, anti_pattern =
                  match Sieve.Footprint.find footprints component with
                  | Some fp -> (
                      match fp.Sieve.Footprint.cached_reads with
                      | site :: _ ->
                          ( site,
                            if
                              List.exists (String.equal site)
                                fp.Sieve.Footprint.edge_triggered
                            then anti_pattern_of_pattern `Obs_gap
                            else "unknown" )
                      | [] -> ("", "unknown"))
                  | None -> ("", "unknown")
                in
                ( {
                    Card.kind = "unknown";
                    rev = 0;
                    stream = "";
                    component;
                    key = "";
                    frontier = 0;
                    event = None;
                    trace_id = None;
                    detail = "no stream divergence recorded";
                  },
                  {
                    Card.component;
                    read_site;
                    anti_pattern;
                    hazard_severity = 0;
                    hazard_reason =
                      (if String.equal anti_pattern "edge-trigger" then
                         Printf.sprintf
                           "%s's view of %s is edge-triggered; a notification missed between \
                            fire and re-arm is never repaired"
                           component read_site
                       else "");
                  } )
          in
          let taint_path =
            taint_path_of ~component:suspect.Card.component
              ~anti_pattern:suspect.Card.anti_pattern
          in
          let m = Sieve.Substrate.metrics live in
          Dsim.Metrics.incr m "diagnosis.cards";
          Dsim.Metrics.observe m "diagnosis.walk.depth" (float_of_int (List.length chain));
          if truncated then Dsim.Metrics.incr m "diagnosis.chain.truncated";
          Some
            {
              Card.bug;
              violation;
              test = outcome.Sieve.Runner.test.Sieve.Runner.name;
              seed = Int64.to_int (Sieve.Substrate.seed spec);
              divergence;
              suspect;
              chain =
                {
                  Card.anchor = anchor.Dsim.Trace.id;
                  length = List.length chain;
                  commits = List.length (List.filter (Etcdlike.Commits.anchored feed) chain);
                  truncated;
                };
              taint_path;
              plan = Sieve.Strategy.describe outcome.Sieve.Runner.test.Sieve.Runner.strategy;
              minimized_plan = minimized;
            })

let diagnose_case ?(minimize_budget = 0) (case : Sieve.Bugs.case) =
  let test = Sieve.Bugs.test_of_case case in
  let outcome = Sieve.Runner.run_test ~diagnose:true test in
  let minimized =
    if minimize_budget > 0 && outcome.Sieve.Runner.violations <> [] then
      let mtest, _ =
        Sieve.Minimize.minimize ~test ~target:case.Sieve.Bugs.matches ~budget:minimize_budget ()
      in
      Some (Sieve.Strategy.describe mtest.Sieve.Runner.strategy)
    else None
  in
  (outcome, of_outcome ~target:case.Sieve.Bugs.matches ?minimized outcome)
