(* Safety oracles for the HBase substrate, judged against the ZooKeeper
   leader's ground truth — the same discipline as {!Oracle}: only
   *persistent* divergence counts, so transient repair windows any
   healthy run exhibits stay silent. Violations share {!Oracle.violation}
   so signatures, journals and diagnosis cards need no substrate
   branch. *)

let check_period = 100_000

let stale_confirmations = 8

let double_confirmations = 25

type t = {
  cluster : Hbaselike.Cluster.t;
  ledger : Oracle.ledger;
  stale_streak : (string, int * int) Hashtbl.t;
      (* region -> (consecutive bad sightings, master cas_failures at streak start) *)
  double_streak : (string, int) Hashtbl.t;
}

let violations t = Oracle.found t.ledger

let leader_kv t = Hbaselike.Zk.leader_kv (Hbaselike.Cluster.zk t.cluster)

let registry t =
  match Etcdlike.Kv.get (leader_kv t) "rs/registry" with
  | Some (members, _) -> String.split_on_char ',' members |> List.filter (fun s -> s <> "")
  | None -> []

let assigned_to t region =
  Option.map fst (Etcdlike.Kv.get (leader_kv t) ("region/" ^ region))

(* A region parked (in ground truth) on a server the ground-truth
   registry no longer lists, sustained across [stale_confirmations]
   checks, is a repair the master never performs. Whether the master
   *tried* tells the two seeded shapes apart: a climbing CAS-failure
   counter during the streak means it saw the departure but its
   compare-and-sets are wedged on drifted follower revisions
   (HB-FOLLOWER); a flat counter means its stale view still calls the
   dead assignment healthy and it never tries (HB-ASSIGN). *)
let check_stale_assignments t =
  let live = registry t in
  let cas_failures = Hbaselike.Master.cas_failures (Hbaselike.Cluster.master t.cluster) in
  List.iter
    (fun region ->
      match assigned_to t region with
      | Some server when not (List.mem server live) ->
          let streak, cas0 =
            match Hashtbl.find_opt t.stale_streak region with
            | Some (n, cas0) -> (n + 1, cas0)
            | None -> (1, cas_failures)
          in
          Hashtbl.replace t.stale_streak region (streak, cas0);
          if streak >= stale_confirmations then
            Oracle.report ~about:("region/" ^ region) t.ledger
              (if cas_failures > cas0 then Oracle.Region_cas_wedged { region; server }
               else Oracle.Region_stale_assign { region; server })
      | Some _ | None -> Hashtbl.remove t.stale_streak region)
    (Hbaselike.Cluster.config t.cluster).Hbaselike.Cluster.regions

(* Several *live* region servers serving one region, sustained across
   [double_confirmations] checks: a one-shot watch notification lost (or
   delayed past the streak window) left somebody acting on a superseded
   assignment. Down servers are excluded — their frozen serving sets are
   unreachable, not unsafe. *)
let check_double_serve t =
  let net = Hbaselike.Cluster.net t.cluster in
  List.iter
    (fun region ->
      let servers =
        List.filter_map
          (fun rs ->
            if
              Dsim.Network.is_up net (Hbaselike.Regionserver.name rs)
              && Hbaselike.Regionserver.is_serving rs region
            then Some (Hbaselike.Regionserver.name rs)
            else None)
          (Hbaselike.Cluster.region_servers t.cluster)
      in
      if List.length servers >= 2 then begin
        let streak = 1 + Option.value (Hashtbl.find_opt t.double_streak region) ~default:0 in
        Hashtbl.replace t.double_streak region streak;
        if streak >= double_confirmations then
          Oracle.report ~about:("region/" ^ region) t.ledger
            (Oracle.Region_double_serve { region; servers = List.sort String.compare servers })
      end
      else Hashtbl.remove t.double_streak region)
    (Hbaselike.Cluster.config t.cluster).Hbaselike.Cluster.regions

let attach cluster =
  let t =
    {
      cluster;
      ledger = Oracle.ledger (Hbaselike.Cluster.engine cluster);
      stale_streak = Hashtbl.create 8;
      double_streak = Hashtbl.create 8;
    }
  in
  (* The Zk commit listener registered at create time emits the
     ["zk.commit"] entry first, so the frontier here is that entry's id —
     the causal anchor for violations about the committed key. *)
  Etcdlike.Kv.on_commit
    (Hbaselike.Zk.leader_kv (Hbaselike.Cluster.zk cluster))
    (fun (e : string History.Event.t) -> Oracle.note_commit t.ledger e.History.Event.key);
  Dsim.Engine.every (Hbaselike.Cluster.engine cluster) ~period:check_period (fun () ->
      check_stale_assignments t;
      check_double_serve t;
      true);
  t
