(* Diagnosis golden suite: every corpus bug's root-cause card must name
   the ground-truth suspect component, anti-pattern class and divergence
   point — and the diagnose flag must not move a single byte of any
   trace, journal or finding artifact. *)

let read_file path =
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  contents

let mkdir_if_missing path = if not (Sys.file_exists path) then Sys.mkdir path 0o755

(* --- golden cards -------------------------------------------------- *)

(* id -> (divergence kind, suspect component, divergence rev, key
   prefix, hazard severity). The revisions are the known first stale
   reads: for the drop-strategy cases they equal the first event
   deliberately dropped on the suspect's edge (checked against the
   trace below), for K8s-59848 the revision the stale re-list adopted,
   for EXT-RS the first commit aged past the lag grace. *)
let golden =
  [
    ("K8s-59848", ("rewind", "kubelet-1", 4, "pods/", 2));
    ("K8s-56261", ("skip", "scheduler", 4, "nodes/", 3));
    ("CA-398", ("skip", "volumectl", 12, "pods/", 3));
    ("CA-400", ("skip", "cassop", 19, "pods/", 3));
    ("CA-402", ("skip", "cassop", 15, "pods/", 3));
    ("EXT-RS", ("lag", "rsctl", 5, "pods/", 3));
    ("EXT-NC", ("skip", "nodectl", 11, "nodes/", 3));
    ("EXT-DEP", ("skip", "depctl", 14, "pods/", 3));
  ]

(* First deliberately dropped event addressed to [component]:
   pipe.drop details read "src->dst @rev op key". *)
let first_drop_rev trace ~component =
  let parse detail =
    match String.index_opt detail '@' with
    | None -> None
    | Some i ->
        let n = String.length detail in
        let j = ref (i + 1) in
        while !j < n && detail.[!j] >= '0' && detail.[!j] <= '9' do
          incr j
        done;
        if !j > i + 1 then int_of_string_opt (String.sub detail (i + 1) (!j - i - 1)) else None
  in
  List.find_map
    (fun (e : Dsim.Trace.entry) ->
      if String.equal e.Dsim.Trace.actor component then parse e.Dsim.Trace.detail else None)
    (Dsim.Trace.find_all trace ~kind:"pipe.drop")

let golden_cards () =
  List.iter
    (fun (case : Sieve.Bugs.case) ->
      let id = case.Sieve.Bugs.id in
      let kind, component, rev, key_prefix, severity = List.assoc id golden in
      let outcome, card = Diagnosis.Diagnose.diagnose_case case in
      let card =
        match card with Some c -> c | None -> Alcotest.failf "%s: no card produced" id
      in
      Alcotest.(check string) (id ^ " bug id") id card.Diagnosis.Card.bug;
      let d = card.Diagnosis.Card.divergence in
      Alcotest.(check string) (id ^ " divergence kind") kind d.Diagnosis.Card.kind;
      Alcotest.(check string) (id ^ " divergence component") component d.Diagnosis.Card.component;
      Alcotest.(check int) (id ^ " divergence rev") rev d.Diagnosis.Card.rev;
      Alcotest.(check bool)
        (id ^ " divergence key under " ^ key_prefix)
        true
        (String.starts_with ~prefix:key_prefix d.Diagnosis.Card.key);
      Alcotest.(check bool)
        (id ^ " rev within committed frontier")
        true
        (d.Diagnosis.Card.rev >= 1 && d.Diagnosis.Card.rev <= outcome.Sieve.Runner.truth_rev);
      (match d.Diagnosis.Card.event with
      | Some ev -> Alcotest.(check bool) (id ^ " committed event named") true (ev <> "")
      | None -> Alcotest.failf "%s: divergence carries no committed event" id);
      let s = card.Diagnosis.Card.suspect in
      Alcotest.(check string) (id ^ " suspect") component s.Diagnosis.Card.component;
      (* The card's anti-pattern class must recover the corpus case's
         ground-truth Section 4.2 pattern. *)
      Alcotest.(check string)
        (id ^ " anti-pattern")
        (Diagnosis.Diagnose.anti_pattern_of_pattern case.Sieve.Bugs.pattern)
        s.Diagnosis.Card.anti_pattern;
      Alcotest.(check int) (id ^ " hazard severity") severity s.Diagnosis.Card.hazard_severity;
      Alcotest.(check bool) (id ^ " hazard named") true (s.Diagnosis.Card.hazard_reason <> "");
      Alcotest.(check bool) (id ^ " read-site named") true (s.Diagnosis.Card.read_site <> "");
      let chain = card.Diagnosis.Card.chain in
      Alcotest.(check bool)
        (id ^ " chain anchored")
        true
        (chain.Diagnosis.Card.anchor > 0 && chain.Diagnosis.Card.length >= 1);
      (match Diagnosis.Card.validate (Diagnosis.Card.to_json card) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: card fails schema validation: %s" id e);
      (* For the drop-strategy cases, the divergence rev must be exactly
         the first event deliberately dropped on the suspect's edge —
         the card points at the first stale read, not a later symptom. *)
      match
        first_drop_rev (Kube.Cluster.trace (Sieve.Runner.kube_cluster outcome)) ~component
      with
      | Some drop_rev when String.equal d.Diagnosis.Card.kind "skip" ->
          Alcotest.(check int) (id ^ " diverged at first dropped event") drop_rev
            d.Diagnosis.Card.rev
      | _ -> ())
    (Sieve.Bugs.all_with_extras ())

(* HBase corpus golden cards. These cases exercise the card paths the
   kube corpus cannot: a store-side divergence whose suspect is a
   *different* component (the replication stream diverges at
   zk-follower, the misbehaving reader is master-1), a revision-domain
   rewind reported from outside the frontier checks, and a violation
   with no mirrored-stream divergence at all (the one-shot watch gap
   lives inside a protocol the monitor does not mirror). *)
type hb_golden = {
  hb_kind : string;
  hb_stream : string;  (* "" = no divergence recorded *)
  hb_rev : int;
  hb_suspect : string;
  hb_read_site : string;
  hb_severity : int;
  (* The static hazard graph credits the HB-FOLLOWER master's sync
     guard, so its severity is 0 with no reason: the revision-domain
     drift is precisely what static analysis misses and the dynamic
     divergence still pins. *)
  hb_reason_named : bool;
  hb_commits : int;
      (* zk.commit anchors on the causal chain; the registry seed is
         uncaused boot state, so it is on no chain *)
}

let hbase_golden =
  [
    ( "HB-ASSIGN",
      {
        hb_kind = "lag";
        hb_stream = "zk-follower<-zk-leader";
        hb_rev = 7;
        hb_suspect = "master-1";
        hb_read_site = "rs/registry";
        hb_severity = 3;
        hb_reason_named = true;
        hb_commits = 1;
      } );
    ( "HB-WATCH",
      {
        hb_kind = "unknown";
        hb_stream = "";
        hb_rev = 0;
        hb_suspect = "rs-1";
        hb_read_site = "region/";
        hb_severity = 0;
        hb_reason_named = true;
        hb_commits = 1;
      } );
    ( "HB-FOLLOWER",
      {
        hb_kind = "rewind";
        hb_stream = "zk-follower<-zk-leader";
        hb_rev = 13;
        hb_suspect = "master-1";
        hb_read_site = "rs/registry";
        hb_severity = 0;
        hb_reason_named = false;
        hb_commits = 1;
      } );
  ]

let hbase_golden_cards () =
  List.iter
    (fun (case : Sieve.Bugs.case) ->
      let id = case.Sieve.Bugs.id in
      let g = List.assoc id hbase_golden in
      let _, card = Diagnosis.Diagnose.diagnose_case case in
      let card =
        match card with Some c -> c | None -> Alcotest.failf "%s: no card produced" id
      in
      Alcotest.(check string) (id ^ " bug id") id card.Diagnosis.Card.bug;
      let d = card.Diagnosis.Card.divergence in
      Alcotest.(check string) (id ^ " divergence kind") g.hb_kind d.Diagnosis.Card.kind;
      Alcotest.(check string) (id ^ " divergence stream") g.hb_stream d.Diagnosis.Card.stream;
      Alcotest.(check int) (id ^ " divergence rev") g.hb_rev d.Diagnosis.Card.rev;
      (if not (String.equal g.hb_stream "") then
         match d.Diagnosis.Card.event with
         | Some ev -> Alcotest.(check bool) (id ^ " committed event named") true (ev <> "")
         | None -> Alcotest.failf "%s: divergence carries no committed event" id);
      let s = card.Diagnosis.Card.suspect in
      Alcotest.(check string) (id ^ " suspect") g.hb_suspect s.Diagnosis.Card.component;
      Alcotest.(check string) (id ^ " read-site") g.hb_read_site s.Diagnosis.Card.read_site;
      (* The recovered class must be the corpus case's ground-truth
         Section 4.2 pattern — stale-write, edge-trigger and
         stale-resync across the three cases. *)
      Alcotest.(check string)
        (id ^ " anti-pattern")
        (Diagnosis.Diagnose.anti_pattern_of_pattern case.Sieve.Bugs.pattern)
        s.Diagnosis.Card.anti_pattern;
      Alcotest.(check int) (id ^ " hazard severity") g.hb_severity s.Diagnosis.Card.hazard_severity;
      Alcotest.(check bool)
        (id ^ " hazard reason named")
        g.hb_reason_named
        (s.Diagnosis.Card.hazard_reason <> "");
      let chain = card.Diagnosis.Card.chain in
      Alcotest.(check bool)
        (id ^ " chain anchored")
        true
        (chain.Diagnosis.Card.anchor > 0 && chain.Diagnosis.Card.length >= 1);
      Alcotest.(check int) (id ^ " chain commits") g.hb_commits chain.Diagnosis.Card.commits;
      match Diagnosis.Card.validate (Diagnosis.Card.to_json card) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: card fails schema validation: %s" id e)
    (Sieve.Bugs.hbase ())

let minimized_plan_embedded () =
  let case = Sieve.Bugs.k8s_56261 () in
  let _, card = Diagnosis.Diagnose.diagnose_case ~minimize_budget:8 case in
  match card with
  | Some c -> (
      match c.Diagnosis.Card.minimized_plan with
      | Some p -> Alcotest.(check bool) "minimized plan non-empty" true (p <> "")
      | None -> Alcotest.fail "minimize budget given but no minimized plan embedded")
  | None -> Alcotest.fail "no card produced"

(* --- card schema --------------------------------------------------- *)

let sample_card =
  {
    Diagnosis.Card.bug = "CA-400";
    violation = "wrong decommission";
    test = "t";
    seed = 7;
    divergence =
      {
        Diagnosis.Card.kind = "skip";
        rev = 19;
        stream = "cassop#pods/";
        component = "cassop";
        key = "pods/cass-3";
        frontier = 18;
        event = Some "@19 create pods/cass-3";
        trace_id = Some 136;
        detail = "skipped";
      };
    suspect =
      {
        Diagnosis.Card.component = "cassop";
        read_site = "pods/";
        anti_pattern = "stale-write";
        hazard_severity = 3;
        hazard_reason = "destructive write through cached view";
      };
    chain = { Diagnosis.Card.anchor = 200; length = 5; commits = 2; truncated = false };
    taint_path =
      Some
        [
          "source cassandra_operator.ml:63 cached view read (State.fold) [cached-view]";
          "sink cassandra_operator.ml:84 Messages.delete [destructive write]";
          "missing guard: quorum re-read of the acted-on keys";
        ];
    plan = "[drop ...]";
    minimized_plan = None;
  }

let validate_accepts_and_rejects () =
  (match Diagnosis.Card.validate (Diagnosis.Card.to_json sample_card) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "well-formed card rejected: %s" e);
  let bad_pattern =
    {
      sample_card with
      Diagnosis.Card.suspect =
        { sample_card.Diagnosis.Card.suspect with Diagnosis.Card.anti_pattern = "bogus" };
    }
  in
  (match Diagnosis.Card.validate (Diagnosis.Card.to_json bad_pattern) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown anti-pattern class accepted");
  let bad_kind =
    {
      sample_card with
      Diagnosis.Card.divergence =
        { sample_card.Diagnosis.Card.divergence with Diagnosis.Card.kind = "sideways" };
    }
  in
  (match Diagnosis.Card.validate (Diagnosis.Card.to_json bad_kind) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown divergence kind accepted");
  (* taint_path is optional (absent or null is fine) but typed. *)
  let with_taint_path v =
    match Diagnosis.Card.to_json sample_card with
    | Dsim.Json.Obj fields ->
        Dsim.Json.Obj
          (List.map (function "taint_path", _ -> ("taint_path", v) | kv -> kv) fields)
    | j -> j
  in
  (match Diagnosis.Card.validate (with_taint_path Dsim.Json.Null) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "null taint_path rejected: %s" e);
  (match Diagnosis.Card.validate (with_taint_path (Dsim.Json.Int 3)) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "non-list taint_path accepted");
  match Diagnosis.Card.validate (Dsim.Json.Obj [ ("schema", Dsim.Json.String "nope/1") ]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "wrong schema tag accepted"

(* --- conformance-violation anchors (monitor-only trips) ------------ *)

let conformance_anchor () =
  let test =
    Sieve.Runner.base_test ~config:Kube.Cluster.default_config
      ~workload:(Kube.Workload.pod_churn ~n:2 ())
      ~horizon:3_000_000 Sieve.Strategy.No_perturbation
  in
  let outcome = Sieve.Runner.run_test ~check_conformance:true test in
  Alcotest.(check bool)
    "clean run has no anchor" true
    (Sieve.Runner.violation_entry outcome = None);
  Alcotest.(check int) "clean run has no chain" 0 (List.length (Sieve.Runner.causal_chain outcome));
  (* Forge a monitor trip the way Hooks records one, caused by a real
     commit — the anchor fallback must pick it up and the walk must
     reach the commit. *)
  let trace = Kube.Cluster.trace (Sieve.Runner.kube_cluster outcome) in
  let commit =
    match Dsim.Trace.find_all trace ~kind:"etcd.commit" with
    | e :: _ -> e
    | [] -> Alcotest.fail "reference run committed nothing"
  in
  let engine = Kube.Cluster.engine (Sieve.Runner.kube_cluster outcome) in
  Dsim.Engine.record ~cause:commit.Dsim.Trace.id engine ~actor:"conformance"
    ~kind:"conformance.violation" "future_rev: view claimed a revision the store never reached";
  match Sieve.Runner.violation_entry outcome with
  | None -> Alcotest.fail "conformance violation must anchor the walk"
  | Some e ->
      Alcotest.(check string) "anchor kind" "conformance.violation" e.Dsim.Trace.kind;
      let chain = Sieve.Runner.causal_chain outcome in
      Alcotest.(check bool) "chain walked" true (List.length chain >= 2);
      Alcotest.(check bool) "chain reaches the causing commit" true
        (List.exists (fun (c : Dsim.Trace.entry) -> c.Dsim.Trace.id = commit.Dsim.Trace.id) chain);
      (match List.rev chain with
      | last :: _ -> Alcotest.(check int) "chain ends at the anchor" e.Dsim.Trace.id last.Dsim.Trace.id
      | [] -> Alcotest.fail "empty chain")

(* --- determinism under the flag ------------------------------------ *)

let trace_invariant_under_diagnose () =
  List.iter
    (fun (case : Sieve.Bugs.case) ->
      let test = Sieve.Bugs.test_of_case case in
      let off = Sieve.Runner.run_test test in
      let on1 = Sieve.Runner.run_test ~diagnose:true test in
      Alcotest.(check string)
        (case.Sieve.Bugs.id ^ ": diagnose flag preserves trace bytes")
        (Sieve.Runner.trace_jsonl off) (Sieve.Runner.trace_jsonl on1);
      (* no monitor, no card *)
      Alcotest.(check bool)
        (case.Sieve.Bugs.id ^ ": undiagnosed run yields no card")
        true
        (Diagnosis.Diagnose.of_outcome off = None))
    [ Sieve.Bugs.ca_400 (); Sieve.Bugs.k8s_59848 () ]

let campaign ?(diagnose = false) ~out () =
  Hunt.Campaign.run ~jobs:1 ~out ~budget:32 ~seed:42L ~minimize_budget:0 ~diagnose
    ~cases:[ Sieve.Bugs.ca_398 () ] ()

let hunt_bytes_invariant_under_diagnose () =
  mkdir_if_missing "_diagnosis_test";
  let base = campaign ~out:"_diagnosis_test/off" () in
  let diag = campaign ~diagnose:true ~out:"_diagnosis_test/on" () in
  Alcotest.(check string) "flag does not change journal bytes"
    (read_file "_diagnosis_test/off/journal.jsonl")
    (read_file "_diagnosis_test/on/journal.jsonl");
  let fingerprint (s : Hunt.Campaign.summary) =
    List.map
      (fun (f : Hunt.Campaign.finding) -> (f.Hunt.Campaign.signature, f.Hunt.Campaign.trial))
      s.Hunt.Campaign.findings
  in
  Alcotest.(check bool) "same findings" true (fingerprint base = fingerprint diag);
  Alcotest.(check bool) "campaign found something" true (diag.Hunt.Campaign.findings <> []);
  Alcotest.(check int) "no cards without the flag" 0 base.Hunt.Campaign.cards;
  Alcotest.(check int) "one card per finding"
    (List.length diag.Hunt.Campaign.findings)
    diag.Hunt.Campaign.cards;
  List.iter
    (fun (f : Hunt.Campaign.finding) ->
      let dir = "/findings/" ^ Hunt.Signature.to_dirname f.Hunt.Campaign.signature in
      (* artifacts stay byte-identical: the card is a separate file *)
      List.iter
        (fun file ->
          Alcotest.(check string)
            (file ^ " bytes unchanged by the flag")
            (read_file ("_diagnosis_test/off" ^ dir ^ "/" ^ file))
            (read_file ("_diagnosis_test/on" ^ dir ^ "/" ^ file)))
        [ "artifact.json"; "finding.json" ];
      let card_path = "_diagnosis_test/on" ^ dir ^ "/card.json" in
      Alcotest.(check bool) "card.json emitted" true (Sys.file_exists card_path);
      Alcotest.(check bool) "no card without the flag" false
        (Sys.file_exists ("_diagnosis_test/off" ^ dir ^ "/card.json"));
      match Dsim.Json.parse (read_file card_path) with
      | Error e -> Alcotest.failf "card.json unparseable: %s" e
      | Ok j -> (
          match Diagnosis.Card.validate j with
          | Ok () -> ()
          | Error e -> Alcotest.failf "emitted card fails schema validation: %s" e))
    diag.Hunt.Campaign.findings

(* --- metrics ------------------------------------------------------- *)

let diagnosis_metrics () =
  let outcome, card = Diagnosis.Diagnose.diagnose_case (Sieve.Bugs.k8s_56261 ()) in
  Alcotest.(check bool) "card produced" true (card <> None);
  let m = Kube.Cluster.metrics (Sieve.Runner.kube_cluster outcome) in
  Alcotest.(check int) "one card counted" 1 (Dsim.Metrics.count m "diagnosis.cards");
  Alcotest.(check bool) "walk depth sampled" true
    (Dsim.Metrics.samples m "diagnosis.walk.depth" > 0);
  Alcotest.(check int) "chain complete" 0 (Dsim.Metrics.count m "diagnosis.chain.truncated")

let suites =
  [
    ( "diagnosis",
      [
        Alcotest.test_case "golden cards over the corpus" `Slow golden_cards;
        Alcotest.test_case "golden cards over the hbase corpus" `Slow hbase_golden_cards;
        Alcotest.test_case "minimized plan embedded" `Slow minimized_plan_embedded;
        Alcotest.test_case "card schema validation" `Quick validate_accepts_and_rejects;
        Alcotest.test_case "conformance violations anchor the walk" `Slow conformance_anchor;
        Alcotest.test_case "diagnose flag preserves traces" `Slow trace_invariant_under_diagnose;
        Alcotest.test_case "hunt journal invariant under diagnose" `Slow
          hunt_bytes_invariant_under_diagnose;
        Alcotest.test_case "diagnosis metrics counters" `Slow diagnosis_metrics;
      ] );
  ]
