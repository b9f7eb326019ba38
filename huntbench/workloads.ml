(* The benchmark's workloads and the result check every run must pass
   before any number is reported. *)

type expect = {
  findings : int;
  cards : int;
  conf_total : int;  (** conformance violation occurrences *)
  conf_signatures : int;
}

type pin =
  | Repo_pin of string  (** label of a line in HUNT_JOURNAL.sha256 *)
  | Bench_pin of string  (** journal sha256 pinned by this benchmark *)

type t = {
  name : string;
  ids : string list option;  (** [None]: the default (kube) corpus *)
  budget : int option;  (** [None]: every planner candidate *)
  audit : bool;  (** conformance monitor and diagnosis cards on *)
  pin : pin;  (** journal checksum at {!pinned_seed} *)
  expect : expect;  (** totals at {!pinned_seed} *)
}

let pinned_seed = 42L

let all =
  [
    {
      name = "kube-hunt";
      ids = None;
      budget = Some 160;
      audit = false;
      pin = Repo_pin "kube";
      expect = { findings = 3; cards = 0; conf_total = 0; conf_signatures = 0 };
    };
    {
      name = "rep-audit";
      ids = Some [ "REP-STALE"; "REP-CHURN"; "REP-MINORITY"; "REP-RECOVER" ];
      budget = None;
      audit = true;
      pin = Repo_pin "rep";
      expect = { findings = 4; cards = 4; conf_total = 0; conf_signatures = 0 };
    };
    {
      name = "hbase-audit";
      ids = Some [ "HB-ASSIGN"; "HB-WATCH"; "HB-FOLLOWER" ];
      budget = Some 2000;
      audit = true;
      pin = Bench_pin "4d7d59c22dc05a153e6727011feebea40fd8b454ab85cbdf89b2f98736c46a97";
      expect = { findings = 4; cards = 4; conf_total = 1400; conf_signatures = 2 };
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

let cases w =
  match w.ids with
  | None -> Sieve.Bugs.all_with_extras ()
  | Some ids ->
      List.map
        (fun id ->
          match Sieve.Bugs.find id with Some c -> c | None -> failwith ("unknown case " ^ id))
        ids

(* The sha of the line labelled [label:] in the repository's pin file. *)
let repo_pin label =
  let lines = In_channel.with_open_text "HUNT_JOURNAL.sha256" In_channel.input_lines in
  let fields line = List.filter (( <> ) "") (String.split_on_char ' ' line) in
  match
    List.find_map
      (fun line ->
        match fields line with
        | sha :: l :: _ when String.equal l (label ^ ":") -> Some sha
        | _ -> None)
      lines
  with
  | Some sha -> sha
  | None -> failwith ("HUNT_JOURNAL.sha256 has no " ^ label ^ " line")

let expected_sha w = match w.pin with Repo_pin label -> repo_pin label | Bench_pin sha -> sha

(* Problems with one campaign's outputs, and how many journaled trials
   disagree with the plan. Seed-independent invariants hold at every
   seed; the pinned journal and totals only at [pinned_seed]. *)
let check w ~seed ~(planned : Hunt.Campaign.planned) ~(summary : Hunt.Campaign.summary) ~out
    ~journal_sha =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let n = Array.length planned.trials in
  let entries, _ = Hunt.Journal.load summary.journal in
  let bad_trials = ref 0 in
  let journaled = ref 0 in
  List.iter
    (function
      | Hunt.Journal.Trial t ->
          incr journaled;
          if
            t.trial < 0 || t.trial >= n
            || not
                 (String.equal t.strategy
                    (Sieve.Strategy.describe planned.trials.(t.trial).test.Sieve.Runner.strategy))
          then incr bad_trials
      | _ -> ())
    entries;
  if !journaled <> n || summary.executed <> n then
    fail "journaled %d and executed %d of %d planned trials" !journaled summary.executed n;
  List.iter
    (fun (f : Hunt.Campaign.finding) ->
      let dir =
        Filename.concat (Filename.concat out "findings") (Hunt.Signature.to_dirname f.signature)
      in
      let need file =
        if not (Sys.file_exists (Filename.concat dir file)) then fail "%s missing in %s" file dir
      in
      need "artifact.json";
      if w.audit then need "card.json")
    summary.findings;
  let findings = List.length summary.findings in
  if w.audit && summary.cards <> findings then fail "%d cards for %d findings" summary.cards findings;
  let conf_total, conf_sigs =
    match summary.conformance with
    | Some c -> (c.conf_total, List.length c.conf_signatures)
    | None -> (0, 0)
  in
  if w.audit && w.expect.conf_total = 0 && conf_total <> 0 then
    fail "%d conformance violations on a conforming corpus" conf_total;
  if Int64.equal seed pinned_seed then begin
    let want = expected_sha w in
    if not (String.equal journal_sha want) then fail "journal sha %s, pinned %s" journal_sha want;
    let e = w.expect in
    if findings <> e.findings then fail "%d findings, expected %d" findings e.findings;
    if summary.cards <> e.cards then fail "%d cards, expected %d" summary.cards e.cards;
    if conf_total <> e.conf_total || conf_sigs <> e.conf_signatures then
      fail "%d conformance violations over %d signatures, expected %d over %d" conf_total conf_sigs
        e.conf_total e.conf_signatures
  end;
  (List.rev !problems, !bad_trials)
