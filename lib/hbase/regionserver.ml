type t = {
  net : Dsim.Network.t;
  name : string;
  self : Dsim.Network.peer;
  zk : Zk.t;
  relookup_on_failure : bool;
  rearm_then_read : bool;
  watched_regions : string list;
  serving : (string, unit) Hashtbl.t;
  mutable serving_changes : int;
  mutable master : Dsim.Network.peer option;  (* where ZooKeeper last said the master is *)
  mutable consecutive_failures : int;
}

let name t = t.name

let is_up t = Dsim.Network.peer_is_up t.self

let cached_master t = Option.map Dsim.Network.address t.master

let consecutive_failures t = t.consecutive_failures

let is_serving t region = Hashtbl.mem t.serving region

let serving_changes t = t.serving_changes

let engine t = Dsim.Network.engine t.net

let record t detail = Dsim.Engine.record (engine t) ~actor:t.name ~kind:"hbase.rs" detail

let lookup_master t k =
  (* A fresh lookup uses a synced read: finding the coordinator is worth
     a linearizable round-trip. *)
  Zk.read t.zk ~src:t.self ~sync:true "master" (function
    | Ok (Some master, _) ->
        if cached_master t <> Some master then begin
          record t (Printf.sprintf "master located at %s" master);
          t.master <- Some (Dsim.Network.peer t.net master)
        end;
        k (Some master)
    | Ok (None, _) | Error `Unavailable -> k None)

(* Join the comma-separated registry (idempotent). *)
let register t =
  Zk.read t.zk ~src:t.self ~sync:true "rs/registry" (function
    | Ok (current, _) ->
        let members =
          match current with
          | Some s -> String.split_on_char ',' s |> List.filter (fun x -> x <> "")
          | None -> []
        in
        if not (List.mem t.name members) then
          Zk.write t.zk ~src:t.self ~key:"rs/registry"
            (String.concat "," (members @ [ t.name ]))
            (fun _ -> ())
    | Error `Unavailable -> ())

(* --- region serving, driven by one-shot znode watches ---------------- *)

let region_of_key key =
  let prefix = "region/" in
  if String.starts_with ~prefix key then
    Some (String.sub key (String.length prefix) (String.length key - String.length prefix))
  else None

(* Adopt one observed assignment: serve the region iff it is ours. *)
let apply_assignment t region assigned =
  let mine = assigned = Some t.name in
  if mine && not (Hashtbl.mem t.serving region) then begin
    Hashtbl.replace t.serving region ();
    t.serving_changes <- t.serving_changes + 1;
    record t (Printf.sprintf "serving %s" region)
  end
  else if (not mine) && Hashtbl.mem t.serving region then begin
    Hashtbl.remove t.serving region;
    t.serving_changes <- t.serving_changes + 1;
    record t (Printf.sprintf "stopped serving %s" region)
  end

let arm t region =
  Zk.arm_watch t.zk ~src:t.self ("region/" ^ region) (function
    | Ok (assigned, _) -> apply_assignment t region assigned
    | Error `Unavailable -> ())

(* A one-shot watch fired. The registration is already consumed: anything
   committed between this event and our re-arm reaching the leader is
   invisible. The bug-era server acts on the event's payload and re-arms
   blind (the §4.2.3 edge-trigger); the fixed one re-arms *first* and
   acts on the current value the re-arm returns, so a write that slipped
   into the gap is still observed. *)
let handle_notify t ~key (event : string History.Event.t) =
  match region_of_key key with
  | None -> ()
  | Some region ->
      if t.rearm_then_read then arm t region
      else begin
        (match event.History.Event.op with
        | History.Event.Delete -> apply_assignment t region None
        | History.Event.Create | History.Event.Update ->
            apply_assignment t region event.History.Event.value);
        Zk.arm_watch t.zk ~src:t.self ("region/" ^ region) (fun _ -> ())
      end

let heartbeat t =
  match t.master with
  | None -> lookup_master t (fun _ -> ())
  | Some master ->
      Master.Rpc.call ~src:t.self ~dst:master ~timeout:100_000
        (Master.Heartbeat { server = t.name })
        (function
        | Ok () -> t.consecutive_failures <- 0
        | Error _ ->
            t.consecutive_failures <- t.consecutive_failures + 1;
            (* The bug-era server keeps hammering the cached address; the
               fixed one asks ZooKeeper where the master is now. *)
            if t.relookup_on_failure then begin
              t.master <- None;
              lookup_master t (fun _ -> ())
            end)

let create ~net ~name ~zk ?(relookup_on_failure = false) ?(rearm_then_read = false)
    ?(watched_regions = []) () =
  {
    net;
    name;
    self = Dsim.Network.peer net name;
    zk;
    relookup_on_failure;
    rearm_then_read;
    watched_regions;
    serving = Hashtbl.create 8;
    serving_changes = 0;
    master = None;
    consecutive_failures = 0;
  }

let start t =
  Zk.listen t.net t.name (handle_notify t);
  register t;
  List.iter (arm t) t.watched_regions;
  Dsim.Engine.every (engine t) ~period:150_000 (fun () ->
      if is_up t then heartbeat t;
      true)
