type test = {
  name : string;
  spec : Substrate.spec;
  horizon : int;
  strategy : Strategy.t;
}

let base_test ?(name = "test") ?(config = Kube.Cluster.default_config) ~workload ~horizon strategy
    =
  { name; spec = Substrate.Kube { config; workload }; horizon; strategy }

type conformance = {
  conf_violations : Conformance.Monitor.violation list;
  conf_total : int;
  conf_strict : bool;
}

type outcome = {
  test : test;
  violations : (int * Oracle.violation) list;
  truth_rev : int;
  live : Substrate.live;
  conformance : conformance option;
  hooks : Conformance.Handle.t option;
  forked : bool;
  stopped : bool;
}

let kube_cluster outcome = Substrate.kube outcome.live

(* A cluster with its oracle and, when asked, its conformance monitor
   attached: everything a run carries but its strategy. *)
type world = {
  w_live : Substrate.live;
  w_violations : unit -> (int * Oracle.violation) list;
  w_hooks : Conformance.Handle.t option;
}

(* Construction order matches the single-substrate runner exactly:
   cluster, oracle, monitor, then (in [run_test]) strategy, start,
   workload — the fixed-seed journal byte-identity gates depend on it. *)
let attach ~with_monitor ~diagnose spec =
  let live = Substrate.create spec in
  match live with
  | Substrate.Kube_live cluster ->
      let oracle = Oracle.attach cluster in
      let w_hooks =
        if with_monitor then
          Some
            (Conformance.Handle.of_kube
               (Conformance.Hooks.attach ~track_divergence:diagnose cluster))
        else None
      in
      { w_live = live; w_violations = (fun () -> Oracle.violations oracle); w_hooks }
  | Substrate.Hbase_live cluster ->
      let oracle = Hbase_oracle.attach cluster in
      let w_hooks =
        if with_monitor then
          Some
            (Conformance.Handle.of_hbase
               (Conformance.Hbase_hooks.attach ~track_divergence:diagnose cluster))
        else None
      in
      { w_live = live; w_violations = (fun () -> Hbase_oracle.violations oracle); w_hooks }

let install world strategy =
  match world.w_live with
  | Substrate.Kube_live cluster -> Strategy.apply cluster strategy
  | Substrate.Hbase_live cluster -> Strategy.apply_hbase cluster strategy

(* --- prefixes ------------------------------------------------------ *)

type prefix = { image : world Dsim.Snapshot.image; at : int; monitor : bool }

let prefixes ?(check_conformance = false) spec instants =
  if List.sort_uniq compare instants <> instants then
    invalid_arg "Runner.prefixes: instants must be strictly ascending";
  if instants = [] then []
  else begin
    let world = attach ~with_monitor:check_conformance ~diagnose:false spec in
    Substrate.start world.w_live;
    Substrate.schedule world.w_live spec;
    List.map
      (fun at ->
        Substrate.run ~until:at world.w_live;
        Gc.minor ();
        { image = Dsim.Snapshot.compile world; at; monitor = check_conformance })
      instants
  end

(* The exposing run equals the reference run up to [first - 1], and so
   does every run whose strategy starts later. The horizon caps the
   instant for a strategy that perturbs nothing before it. *)
let prefix test =
  let first = Strategy.first_perturbation test.strategy in
  if first <= 1 then None
  else Some (List.hd (prefixes test.spec [ min (first - 1) test.horizon ]))

let prefix_bytes p = Dsim.Snapshot.bytes p.image

(* --- running ------------------------------------------------------- *)

(* The test's world forked from the prefix, or [None] to run straight.
   A prefix of another world raises even when the run would not fork. *)
let fork ~check_conformance ~diagnose p test =
  if diagnose then invalid_arg "Runner.run_test: a prefix does not track divergence";
  if p.monitor <> check_conformance then
    invalid_arg "Runner.run_test: the prefix's monitor differs from the run's";
  if Strategy.first_perturbation test.strategy <= p.at then None
  else Dsim.Snapshot.instantiate p.image

(* One oracle check period: a run with a target stops at most this much
   virtual time after the target fired. *)
let slice = 100_000

let run_test ?(check_conformance = false) ?(diagnose = false) ?prefix ?stop_at test =
  let forked =
    match prefix with None -> None | Some p -> fork ~check_conformance ~diagnose p test
  in
  let world =
    match forked with
    | Some world ->
        (* Fault actions fire first at their instant, so a strategy
           installed after the fork orders as one installed before
           [start]. *)
        install world test.strategy;
        world
    | None ->
        let world = attach ~with_monitor:(check_conformance || diagnose) ~diagnose test.spec in
        (* The strategy goes in before [start]: HBase's boot commit
           already consults the interceptor, at time 0. *)
        install world test.strategy;
        Substrate.start world.w_live;
        Substrate.schedule world.w_live test.spec;
        world
  in
  let stopped =
    match stop_at with
    | None ->
        Substrate.run ~until:test.horizon world.w_live;
        false
    | Some target ->
        (* Nothing runs between two bounded runs, so slices fire the
           events of one run to the horizon, in its order. A run's
           violations only accumulate, so the first slice that holds the
           target's settles whether it fires. *)
        let rec go until =
          let until = min test.horizon until in
          Substrate.run ~until world.w_live;
          if List.exists (fun (_, v) -> target v) (world.w_violations ()) then
            until < test.horizon
          else until < test.horizon && go (until + slice)
        in
        go (Dsim.Engine.now (Substrate.engine world.w_live) + slice)
  in
  Option.iter Conformance.Handle.finish world.w_hooks;
  {
    test;
    violations = world.w_violations ();
    truth_rev = Etcdlike.Commits.rev (Substrate.commits world.w_live);
    live = world.w_live;
    conformance =
      (if check_conformance then
         Option.map
           (fun h ->
             {
               conf_violations = Conformance.Handle.violations h;
               conf_total = Conformance.Handle.total h;
               conf_strict = Conformance.Handle.strict h;
             })
           world.w_hooks
       else None);
    hooks = world.w_hooks;
    forked = Option.is_some forked;
    stopped;
  }

(* A run can end in an oracle trip, a conformance trip, or both: either
   one anchors the causal walk, the oracle's entry preferred when both
   fired. *)
let violation_entry outcome =
  let trace = Substrate.trace outcome.live in
  match Dsim.Trace.find_first trace ~kind:"oracle.violation" with
  | Some _ as e -> e
  | None -> Dsim.Trace.find_first trace ~kind:"conformance.violation"

let causal_chain outcome =
  match violation_entry outcome with
  | None -> []
  | Some e -> Dsim.Trace.chain (Substrate.trace outcome.live) ~id:e.Dsim.Trace.id

let trace_jsonl outcome = Dsim.Trace.to_jsonl (Substrate.trace outcome.live)

let metrics_json outcome = Dsim.Metrics.to_json (Substrate.metrics outcome.live)

let artifact outcome =
  let violations =
    List.map
      (fun (time, v) ->
        Dsim.Json.Obj
          [
            ("time", Dsim.Json.Int time);
            ("bug", Dsim.Json.String (Oracle.bug_id v));
            ("violation", Dsim.Json.String (Oracle.describe v));
          ])
      outcome.violations
  in
  let chain = List.map Dsim.Trace.entry_to_json (causal_chain outcome) in
  let conformance =
    match outcome.conformance with
    | None -> []
    | Some c ->
        [
          ( "conformance",
            Dsim.Json.Obj
              [
                ( "violations",
                  Dsim.Json.List
                    (List.map
                       (fun (v : Conformance.Monitor.violation) ->
                         Dsim.Json.Obj
                           [
                             ("code", Dsim.Json.String (Conformance.Monitor.code_to_string
                                                          v.Conformance.Monitor.code));
                             ("subject", Dsim.Json.String v.Conformance.Monitor.subject);
                             ("rev", Dsim.Json.Int v.Conformance.Monitor.rev);
                             ("detail", Dsim.Json.String v.Conformance.Monitor.detail);
                           ])
                       c.conf_violations) );
                ("total", Dsim.Json.Int c.conf_total);
                ("strict", Dsim.Json.Bool c.conf_strict);
              ] );
        ]
  in
  Dsim.Json.Obj
    ([
       ("test", Dsim.Json.String outcome.test.name);
       ("seed", Dsim.Json.Int (Int64.to_int (Substrate.seed outcome.test.spec)));
       ("horizon", Dsim.Json.Int outcome.test.horizon);
       ("truth_rev", Dsim.Json.Int outcome.truth_rev);
       ("violations", Dsim.Json.List violations);
       ("causal_chain", Dsim.Json.List chain);
       ("metrics", metrics_json outcome);
     ]
    @ conformance)

type commit = { time : int; key : string; op : History.Event.op; origin : string }

let reference_commits test =
  let live = Substrate.create test.spec in
  let feed = Substrate.commits live in
  let engine = Substrate.engine live in
  let noted = ref [] in
  Etcdlike.Commits.on_revision feed (fun ~rev ~key ~op ->
      noted := (Dsim.Engine.now engine, key, op, rev) :: !noted);
  Substrate.start live;
  Substrate.schedule live test.spec;
  Substrate.run ~until:test.horizon live;
  (* A store labels a revision once its transaction returns, after the
     listeners ran, so origins are read from the feed at the end. *)
  List.rev_map
    (fun (time, key, op, rev) -> { time; key; op; origin = Etcdlike.Commits.origin feed ~rev })
    !noted
