(* Safety oracles for the HBase substrate, judged against the ZooKeeper
   leader's ground truth — the same discipline as {!Oracle}: only
   *persistent* divergence counts, so transient repair windows any
   healthy run exhibits stay silent. Violations share {!Oracle.violation}
   so signatures, journals and diagnosis cards need no substrate
   branch. *)

let check_period = 100_000

let stale_confirmations = 8

let double_confirmations = 25

(* The two checks re-derive their tables only when an input moved: the
   stale-assignment table reads the leader's [rs/registry] and
   [region/*] keys, the double-serve table reads the region servers'
   serving sets and which nodes are up. Every tick still advances the
   streaks and compares the master's CAS failures. *)
type t = {
  cluster : Hbaselike.Cluster.t;
  ledger : Oracle.ledger;
  mutable stale_streak : (string, int * int) Hashtbl.t;
      (* region -> (consecutive bad sightings, master cas_failures at streak start) *)
  mutable double_streak : (string, int) Hashtbl.t;
  mutable assignment_commits : int;  (* leader commits to rs/registry or region/* *)
  mutable stale : (string * string * string) list;  (* region, dead server, about *)
  mutable stale_at : int;
  mutable doubles : (string * string * string list) list;  (* region, about, servers *)
  mutable serving_at : int;  (* serving-set changes *)
  mutable liveness_at : int;
}

let violations t = Oracle.found t.ledger

let leader_kv t = Hbaselike.Zk.leader_kv (Hbaselike.Cluster.zk t.cluster)

let registry t =
  match Etcdlike.Kv.get (leader_kv t) "rs/registry" with
  | Some (members, _) -> String.split_on_char ',' members |> List.filter (fun s -> s <> "")
  | None -> []

let assigned_to t region =
  Option.map fst (Etcdlike.Kv.get (leader_kv t) ("region/" ^ region))

let derive_stale t =
  let live = registry t in
  List.filter_map
    (fun region ->
      match assigned_to t region with
      | Some server when not (List.mem server live) -> Some (region, server, "region/" ^ region)
      | Some _ | None -> None)
    Hbaselike.Cluster.regions

(* A region parked (in ground truth) on a server the ground-truth
   registry no longer lists, sustained across [stale_confirmations]
   checks, is a repair the master never performs. Whether the master
   *tried* tells the two seeded shapes apart: a climbing CAS-failure
   counter during the streak means it saw the departure but its
   compare-and-sets are wedged on drifted follower revisions
   (HB-FOLLOWER); a flat counter means its stale view still calls the
   dead assignment healthy and it never tries (HB-ASSIGN). *)
let check_stale_assignments t =
  if t.assignment_commits <> t.stale_at then begin
    t.stale_at <- t.assignment_commits;
    t.stale <- derive_stale t
  end;
  (* After a tick each streak table holds exactly the regions sighted
     now, each one sighting longer: a region that drops out starts over. *)
  match t.stale with
  | [] -> Hashtbl.reset t.stale_streak
  | stale ->
      let cas_failures = Hbaselike.Master.cas_failures (Hbaselike.Cluster.master t.cluster) in
      let streaks = Hashtbl.create 8 in
      List.iter
        (fun (region, server, about) ->
          let streak, cas0 =
            match Hashtbl.find_opt t.stale_streak region with
            | Some (n, cas0) -> (n + 1, cas0)
            | None -> (1, cas_failures)
          in
          Hashtbl.replace streaks region (streak, cas0);
          if streak >= stale_confirmations then
            Oracle.report ~about t.ledger
              (if cas_failures > cas0 then Oracle.Region_cas_wedged { region; server }
               else Oracle.Region_stale_assign { region; server }))
        stale;
      t.stale_streak <- streaks

let derive_doubles t =
  List.filter_map
    (fun region ->
      let servers =
        List.filter_map
          (fun rs ->
            if Hbaselike.Regionserver.is_up rs && Hbaselike.Regionserver.is_serving rs region
            then Some (Hbaselike.Regionserver.name rs)
            else None)
          (Hbaselike.Cluster.region_servers t.cluster)
      in
      if List.length servers >= 2 then
        Some (region, "region/" ^ region, List.sort String.compare servers)
      else None)
    Hbaselike.Cluster.regions

(* Several *live* region servers serving one region, sustained across
   [double_confirmations] checks: a one-shot watch notification lost (or
   delayed past the streak window) left somebody acting on a superseded
   assignment. Down servers are excluded — their frozen serving sets are
   unreachable, not unsafe. *)
let check_double_serve t =
  let serving =
    List.fold_left
      (fun acc rs -> acc + Hbaselike.Regionserver.serving_changes rs)
      0 (Hbaselike.Cluster.region_servers t.cluster)
  and liveness = Dsim.Network.liveness_changes (Hbaselike.Cluster.net t.cluster) in
  if serving <> t.serving_at || liveness <> t.liveness_at then begin
    t.serving_at <- serving;
    t.liveness_at <- liveness;
    t.doubles <- derive_doubles t
  end;
  match t.doubles with
  | [] -> Hashtbl.reset t.double_streak
  | doubles ->
      let streaks = Hashtbl.create 8 in
      List.iter
        (fun (region, about, servers) ->
          let streak = 1 + Option.value (Hashtbl.find_opt t.double_streak region) ~default:0 in
          Hashtbl.replace streaks region streak;
          if streak >= double_confirmations then
            Oracle.report ~about t.ledger (Oracle.Region_double_serve { region; servers }))
        doubles;
      t.double_streak <- streaks

let attach cluster =
  let commits = Hbaselike.Zk.commits (Hbaselike.Cluster.zk cluster) in
  let t =
    {
      cluster;
      ledger = Oracle.ledger (Hbaselike.Cluster.engine cluster) (Etcdlike.Commits.view commits);
      stale_streak = Hashtbl.create 8;
      double_streak = Hashtbl.create 8;
      assignment_commits = 0;
      stale = [];
      stale_at = -1;
      doubles = [];
      serving_at = -1;
      liveness_at = -1;
    }
  in
  Etcdlike.Commits.on_commit commits (fun (e : string History.Event.t) ->
      let key = e.History.Event.key in
      if String.equal key "rs/registry" || History.Event.matches_key (Some "region/") key then
        t.assignment_commits <- t.assignment_commits + 1);
  Dsim.Engine.every (Hbaselike.Cluster.engine cluster) ~period:check_period (fun () ->
      check_stale_assignments t;
      check_double_serve t;
      true);
  t
