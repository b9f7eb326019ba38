(* The HBase-dialect cluster: one ZooKeeper leader/follower pair, one
   master, two region servers, plus a "user" client driving the workload —
   the same construction/start/run shape as [Kube.Cluster], behind the
   shared substrate interface. *)

type config = {
  seed : int64;
  compaction_window : int option;
  sync_before_cas : bool;  (** HBASE-3137: master syncs the follower before reading *)
  rearm_then_read : bool;  (** one-shot-watch fix on the region servers *)
  follower_leader_revs : bool;  (** follower reads report leader mod-revisions *)
}

let regions = [ "r1"; "r2"; "r3"; "r4" ]

let default_config =
  {
    seed = 7L;
    compaction_window = None;
    sync_before_cas = false;
    rearm_then_read = false;
    follower_leader_revs = false;
  }

type op =
  | Move_region of { at : int; region : string; to_ : string }
      (** Client-driven assignment write at the leader (a split/move as
          seen by ZooKeeper); armed watches on the key fire. *)
  | Decommission of { at : int; server : string }
      (** Remove the server from ["rs/registry"] (fresh read, then write)
          and shut it down once the write is acknowledged. *)
  | Put of { at : int; key : string; value : string }
      (** Arbitrary leader write — metadata churn. *)

type workload = op list

let server_names = [ "rs-1"; "rs-2" ]

let user = "user"

type t = {
  config : config;
  engine : Dsim.Engine.t;
  net : Dsim.Network.t;
  intercept : string History.Intercept.t;
  zk : Zk.t;
  master : Master.t;
  region_servers : Regionserver.t list;
  client : Dsim.Network.peer;  (* the [user] node *)
}

let engine t = t.engine

let net t = t.net

let intercept t = t.intercept

let zk t = t.zk

let master t = t.master

let region_servers t = t.region_servers

let trace t = Dsim.Engine.trace t.engine

let metrics t = Dsim.Engine.metrics t.engine

let create config =
  let engine = Dsim.Engine.create ~seed:config.seed () in
  let net = Dsim.Network.create engine in
  let intercept = History.Intercept.create () in
  let zk =
    Zk.create ~net ?compaction_window:config.compaction_window
      ~follower_leader_revs:config.follower_leader_revs ~intercept ()
  in
  let master =
    Master.create ~net ~name:"master-1" ~zk ~regions ~sync_before_cas:config.sync_before_cas ()
  in
  let region_servers =
    List.map
      (fun name ->
        Regionserver.create ~net ~name ~zk ~rearm_then_read:config.rearm_then_read
          ~watched_regions:regions ())
      server_names
  in
  Dsim.Network.join net user;
  let client = Dsim.Network.peer net user in
  { config; engine; net; intercept; zk; master; region_servers; client }

let start t =
  (* Seed the membership below the fault surface, like kube's boot node
     objects: the registry exists before any component looks for it. *)
  Etcdlike.Commits.boot (Zk.commits t.zk) (fun () ->
      ignore
        (Etcdlike.Kv.put (Zk.leader_kv t.zk) "rs/registry" (String.concat "," server_names)));
  Master.start t.master;
  List.iter Regionserver.start t.region_servers;
  let sample_lag =
    Etcdlike.Commits.lag_sampler
      (Etcdlike.Commits.view (Zk.commits t.zk))
      [ (Zk.follower_name, fun () -> Zk.follower_caught_up_to t.zk) ]
  in
  Dsim.Engine.every t.engine ~period:100_000 (fun () ->
      sample_lag ();
      true)

(* --- workload -------------------------------------------------------- *)

let do_decommission t server =
  (* Fresh membership first: the decommission is an administrative act
     against the current registry, not a cached one. *)
  Zk.read t.zk ~src:t.client ~sync:true "rs/registry" (function
    | Ok (current, _) ->
        let members =
          match current with
          | Some s -> String.split_on_char ',' s |> List.filter (fun x -> x <> "")
          | None -> []
        in
        let remaining = List.filter (fun m -> not (String.equal m server)) members in
        Zk.write t.zk ~src:t.client ~key:"rs/registry" (String.concat "," remaining) (fun _ ->
            Dsim.Engine.record t.engine ~actor:user ~kind:"workload.step"
              (Printf.sprintf "decommission %s" server);
            if Dsim.Network.is_up t.net server then Dsim.Network.crash t.net server)
    | Error `Unavailable -> ())

let schedule t workload =
  List.iter
    (fun op ->
      match op with
      | Move_region { at; region; to_ } ->
          ignore
            (Dsim.Engine.schedule_at t.engine ~time:at (fun () ->
                 (* The step is the cause of the move it makes. *)
                 ignore
                   (Dsim.Engine.emit_deferred t.engine ~actor:user ~kind:"workload.step" (fun () ->
                        Printf.sprintf "move %s -> %s" region to_));
                 Zk.write t.zk ~src:t.client ~key:("region/" ^ region) to_ (fun _ -> ())))
      | Decommission { at; server } ->
          ignore
            (Dsim.Engine.schedule_at t.engine ~time:at (fun () -> do_decommission t server))
      | Put { at; key; value } ->
          ignore
            (Dsim.Engine.schedule_at t.engine ~time:at (fun () ->
                 Zk.write t.zk ~src:t.client ~key value (fun _ -> ()))))
    workload

let run ~until t = Dsim.Engine.run ~until t.engine
