(* The HBase-dialect cluster: one ZooKeeper leader/follower pair, one
   master, N region servers, plus a "user" client driving the workload —
   the same construction/start/run shape as [Kube.Cluster], behind the
   shared substrate interface. *)

type config = {
  seed : int64;
  servers : int;
  replication_lag : int;
  compaction_window : int option;
  sync_before_cas : bool;  (** HBASE-3137: master syncs the follower before reading *)
  relookup_on_failure : bool;  (** HBASE-5755 fix on the region servers *)
  rearm_then_read : bool;  (** one-shot-watch fix on the region servers *)
  follower_leader_revs : bool;  (** follower reads report leader mod-revisions *)
  min_latency : int;
  max_latency : int;
  obs_sample_period : int;
}

let regions = [ "r1"; "r2"; "r3"; "r4" ]

let default_config =
  {
    seed = 7L;
    servers = 2;
    replication_lag = 10_000;
    compaction_window = None;
    sync_before_cas = false;
    relookup_on_failure = false;
    rearm_then_read = false;
    follower_leader_revs = false;
    min_latency = 500;
    max_latency = 2_000;
    obs_sample_period = 100_000;
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

let server_name i = Printf.sprintf "rs-%d" (i + 1)

let user = "user"

type t = {
  config : config;
  engine : Dsim.Engine.t;
  net : Dsim.Network.t;
  intercept : string History.Intercept.t;
  zk : Zk.t;
  master : Master.t;
  region_servers : Regionserver.t list;
}

let config t = t.config

let engine t = t.engine

let net t = t.net

let intercept t = t.intercept

let zk t = t.zk

let master t = t.master

let region_servers t = t.region_servers

let trace t = Dsim.Engine.trace t.engine

let metrics t = Dsim.Engine.metrics t.engine

let truth_rev t = Etcdlike.Kv.rev (Zk.leader_kv t.zk)

let server_names config = List.init config.servers server_name

let components config = "master-1" :: server_names config

let create config =
  let engine = Dsim.Engine.create ~seed:config.seed () in
  let net =
    Dsim.Network.create ~min_latency:config.min_latency ~max_latency:config.max_latency engine
  in
  let intercept = History.Intercept.create () in
  let zk =
    Zk.create ~net ~replication_lag:config.replication_lag
      ?compaction_window:config.compaction_window
      ~follower_leader_revs:config.follower_leader_revs ~intercept ()
  in
  let master =
    Master.create ~net ~name:"master-1" ~zk ~regions ~sync_before_cas:config.sync_before_cas ()
  in
  let region_servers =
    List.init config.servers (fun i ->
        Regionserver.create ~net ~name:(server_name i) ~zk
          ~relookup_on_failure:config.relookup_on_failure
          ~rearm_then_read:config.rearm_then_read ~watched_regions:regions ())
  in
  Dsim.Network.join net user;
  { config; engine; net; intercept; zk; master; region_servers }

let start t =
  (* Seed the membership below the fault surface, like kube's boot node
     objects: the registry exists before any component looks for it. *)
  ignore
    (Etcdlike.Kv.put (Zk.leader_kv t.zk) "rs/registry"
       (String.concat "," (server_names t.config)));
  Master.start t.master;
  List.iter Regionserver.start t.region_servers;
  let gauge = Dsim.Metrics.Gauge.resolve (metrics t) "lag.zk-follower" in
  let series = Dsim.Metrics.Series.resolve (metrics t) "lag.zk-follower" in
  Dsim.Engine.every t.engine ~period:t.config.obs_sample_period (fun () ->
      let lag = float_of_int (truth_rev t - Zk.follower_caught_up_to t.zk) in
      Dsim.Metrics.Gauge.set gauge lag;
      Dsim.Metrics.Series.sample series ~time:(Dsim.Engine.now t.engine) lag;
      true)

(* --- workload -------------------------------------------------------- *)

let do_decommission t server =
  (* Fresh membership first: the decommission is an administrative act
     against the current registry, not a cached one. *)
  Zk.read t.zk ~src:user ~sync:true "rs/registry" (function
    | Ok (current, _) ->
        let members =
          match current with
          | Some s -> String.split_on_char ',' s |> List.filter (fun x -> x <> "")
          | None -> []
        in
        let remaining = List.filter (fun m -> not (String.equal m server)) members in
        Zk.write t.zk ~src:user ~key:"rs/registry" (String.concat "," remaining) (fun _ ->
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
                 Dsim.Engine.record t.engine ~actor:user ~kind:"workload.step"
                   (Printf.sprintf "move %s -> %s" region to_);
                 Zk.write t.zk ~src:user ~key:("region/" ^ region) to_ (fun _ -> ())))
      | Decommission { at; server } ->
          ignore
            (Dsim.Engine.schedule_at t.engine ~time:at (fun () -> do_decommission t server))
      | Put { at; key; value } ->
          ignore
            (Dsim.Engine.schedule_at t.engine ~time:at (fun () ->
                 Zk.write t.zk ~src:user ~key value (fun _ -> ()))))
    workload

let run ~until t = Dsim.Engine.run ~until t.engine
