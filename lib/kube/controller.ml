type t = {
  name : string;
  net : Dsim.Network.t;
  self : Dsim.Network.peer;  (* the component's node *)
  client : Client.t;
  mutable informers : Informer.t list;  (* start order *)
}

let create ~net ~name ~endpoints =
  {
    name;
    net;
    self = Dsim.Network.peer net name;
    client = Client.create ~net ~owner:name ~endpoints ();
    informers = [];
  }

let watch t informer =
  t.informers <- t.informers @ [ informer ];
  informer

let name t = t.name

let client t = t.client

let engine t = Dsim.Network.engine t.net

let informers t = t.informers

let record t kind detail = Dsim.Engine.record (engine t) ~actor:t.name ~kind detail

let rec least rev = function [] -> rev | i :: rest -> least (Int.min rev (Informer.rev i)) rest

let view_rev t = match t.informers with [] -> 0 | i :: rest -> least (Informer.rev i) rest

let start t ~on_crash =
  Dsim.Network.set_lifecycle t.net t.name
    ~on_crash:(fun () ->
      List.iter Informer.stop t.informers;
      on_crash ())
    ~on_restart:(fun () ->
      let endpoint = Dsim.Network.peer_incarnation t.self in
      List.iter (fun i -> Informer.start i ~endpoint ()) t.informers);
  List.iter (fun i -> Informer.start i ~endpoint:0 ()) t.informers

let every t ~period pass =
  Dsim.Engine.every (engine t) ~period (fun () ->
      if Dsim.Network.peer_is_up t.self then pass ();
      true)
