type _ request = Heartbeat : { server : string } -> unit request

module Rpc = Dsim.Network.Service (struct
  type nonrec 'a request = 'a request
  type 'a reply = 'a
  let name = "hbase-master"
end)

type t = {
  net : Dsim.Network.t;
  name : string;
  self : Dsim.Network.peer;
  zk : Zk.t;
  regions : string list;
  sync_before_cas : bool;
  mutable transitions : int;
  mutable cas_failures : int;
}

(* One balance pass every 100 ms. *)
let balance_period = 100_000

let transitions t = t.transitions

let cas_failures t = t.cas_failures

let engine t = Dsim.Network.engine t.net

let record t detail = Dsim.Engine.record (engine t) ~actor:t.name ~kind:"hbase.master" detail

(* One region repair: read the assignment and the live-server set from
   the follower, reassign only when the region is unassigned or parked on
   a server that left the registry, CAS the transition at the leader. A
   stale follower makes the CAS fail (HBASE-3136) — or, worse, makes the
   dead assignment look healthy so no repair is ever attempted. *)
let balance_region t region live_servers =
  match live_servers with
  | [] -> ()
  | servers ->
      Zk.read t.zk ~src:t.self ~sync:t.sync_before_cas ("region/" ^ region) (function
        | Ok (current, mod_rev) ->
            let needs_assign =
              match current with
              | None -> true
              | Some server -> not (List.mem server servers)
            in
            if needs_assign then
              let desired =
                List.nth servers (Hashtbl.hash region mod List.length servers)
              in
              Zk.cas t.zk ~src:t.self ~key:("region/" ^ region) ~expected_mod_rev:mod_rev
                (Some desired) (function
                | Ok true ->
                    t.transitions <- t.transitions + 1;
                    record t (Printf.sprintf "%s -> %s" region desired)
                | Ok false ->
                    t.cas_failures <- t.cas_failures + 1;
                    record t (Printf.sprintf "CAS failed for %s (stale read)" region)
                | Error `Unavailable -> ())
        | Error `Unavailable -> ())

let balance_pass t =
  (* The live-server set also comes from the (possibly stale) follower. *)
  Zk.read t.zk ~src:t.self ~sync:t.sync_before_cas "rs/registry" (function
    | Ok (Some registry, _) ->
        let servers = String.split_on_char ',' registry |> List.filter (fun s -> s <> "") in
        List.iter (fun region -> balance_region t region servers) t.regions
    | Ok (None, _) | Error `Unavailable -> ())

let create ~net ~name ~zk ~regions ?(sync_before_cas = false) () =
  {
    net;
    name;
    self = Dsim.Network.peer net name;
    zk;
    regions;
    sync_before_cas;
    transitions = 0;
    cas_failures = 0;
  }

let start t =
  Rpc.register t.net t.name
    { serve = (fun (type a) ~src:_ (Heartbeat _ : a request) (reply : a -> unit) -> reply ()) };
  Zk.write t.zk ~src:t.self ~key:"master" t.name (fun _ -> ());
  Dsim.Engine.every (engine t) ~period:balance_period (fun () ->
      if Dsim.Network.peer_is_up t.self then balance_pass t;
      true)
