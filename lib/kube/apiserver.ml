type t = {
  name : string;
  net : Dsim.Network.t;
  self : Dsim.Network.peer;
  etcd : Dsim.Network.peer;
  upstream : string;  (* name<-etcd: the tap's stream name *)
  window_size : int;
  mutable cache : Resource.value History.State.t;
  mutable last_rev : int;
  window : Resource.value History.Window.t;  (* oldest first *)
  mutable window_start : int;  (* revision preceding the oldest retained event *)
  streams : Streams.t;  (* our own subscribers *)
  mutable ready : bool;
  mutable generation : int;  (* invalidates in-flight callbacks across crashes *)
  mutable last_heartbeat : int;
  epoch_seal : int option;  (* seal subscriber streams every N revisions *)
  mutable last_seal_rev : int;
  mutable tap : Tap.t option;  (* conformance observation point, read-only *)
  rpc : Dsim.Metrics.Counter.t;  (* ["rpc.<name>"] *)
}

(* Bookmarks every 200 ms; an etcd stream silent for 1 s is dead;
   failed list/watch attempts retry after 300 ms. *)
let bookmark_period = 200_000
let heartbeat_timeout = 1_000_000
let retry_delay = 300_000

let name t = t.name

let ready t = t.ready

let rev t = t.last_rev

let cache t = t.cache

let subscriber_count t = Streams.count t.streams

let engine t = Dsim.Network.engine t.net

let tap_view t =
  {
    Tap.component = t.name;
    stream = t.upstream;
    generation = t.generation;
    rev = t.last_rev;
    prefix = None;
    state = t.cache;
  }

(* Installing a tap on an apiserver that already adopted the store's
   state replays the adoption as a reset (see {!Informer.set_tap}). *)
let set_tap t tap =
  t.tap <- tap;
  match tap with
  | Some tp when t.last_rev > 0 -> tp.Tap.on_reset (tap_view t)
  | _ -> ()

(* Section 6.2's epoch protocol: every [g] cache revisions, tell each
   subscriber how many matching events this stream carried. A consumer
   that counts fewer has a hole it could never otherwise detect. *)
let maybe_seal t =
  match t.epoch_seal with
  | None -> ()
  | Some g ->
      if t.last_rev / g > t.last_seal_rev / g then begin
        t.last_seal_rev <- t.last_rev;
        Streams.seal t.streams ~upto_rev:t.last_rev
      end

let clear_volatile_state t =
  Streams.clear t.streams;
  t.cache <- History.State.empty;
  t.last_rev <- 0;
  History.Window.clear t.window;
  t.window_start <- 0;
  t.ready <- false;
  t.generation <- t.generation + 1

let trim_window t =
  let excess = History.Window.length t.window - t.window_size in
  if excess > 0 then begin
    History.Window.drop_oldest t.window excess;
    match History.Window.oldest t.window with
    | Some oldest -> t.window_start <- oldest.History.Event.rev - 1
    | None -> ()
  end

let observe_event t (e : Resource.value History.Event.t) =
  t.cache <- History.State.apply t.cache e;
  t.last_rev <- max t.last_rev e.History.Event.rev;
  History.Window.push t.window e;
  trim_window t;
  t.last_heartbeat <- Dsim.Engine.now (engine t);
  (match t.tap with Some tap -> tap.Tap.on_event (tap_view t) e | None -> ());
  Streams.publish t.streams ~replica:None e;
  maybe_seal t

let on_stream_item t gen item =
  if gen = t.generation && Dsim.Network.peer_is_up t.self then
    match item with
    | Pipe.Event e -> observe_event t e
    | Pipe.Bookmark rev ->
        (* FIFO on the etcd pipe guarantees every event <= rev was already
           delivered (or deliberately dropped by the interceptor), so it is
           safe — and is what the real watch cache does — to advance. *)
        t.last_rev <- max t.last_rev rev;
        t.last_heartbeat <- Dsim.Engine.now (engine t);
        (match t.tap with Some tap -> tap.Tap.on_advance (tap_view t) rev | None -> ());
        maybe_seal t
    | Pipe.Seal _ -> ()

let rec bootstrap t gen =
  if gen = t.generation && Dsim.Network.peer_is_up t.self then
    Messages.Store.call ~src:t.self ~dst:t.etcd (Messages.List { prefix = ""; quorum = true })
      (function
      | Ok (Ok { Messages.items; rev }) when gen = t.generation -> begin
          (* Rebuilding the watch cache breaks continuity for subscribers:
             events between their last revision and the fresh list are not
             in the (reset) window. Break their streams so they re-list,
             as the real apiserver's "too old resource version" does. *)
          Streams.clear t.streams;
          t.cache <- Messages.items_to_state items;
          t.last_rev <- rev;
          History.Window.clear t.window;
          t.window_start <- rev;
          t.last_heartbeat <- Dsim.Engine.now (engine t);
          Dsim.Engine.record (engine t) ~actor:t.name ~kind:"api.list"
            (Printf.sprintf "listed %d items at rev %d" (List.length items) rev);
          (match t.tap with Some tap -> tap.Tap.on_reset (tap_view t) | None -> ());
          let watch =
            Messages.Watch
              {
                prefix = None;
                start_rev = rev;
                subscriber = t.name;
                stream_id = t.name;
                deliver = (fun item -> on_stream_item t gen item);
              }
          in
          Messages.Store.call ~src:t.self ~dst:t.etcd watch (function
            | Ok (Ok Messages.Watching) when gen = t.generation -> t.ready <- true
            | Ok (Ok (Messages.Watching | Messages.Compacted _) | Error `Unavailable) | Error _ ->
                retry t gen)
        end
      | Ok (Ok _ | Error `Unavailable) | Error _ -> retry t gen)

and retry t gen =
  if gen = t.generation then
    ignore (Dsim.Engine.schedule (engine t) ~delay:retry_delay (fun () -> bootstrap t gen))

let list_from_cache t prefix =
  History.State.bindings_with_prefix t.cache ~prefix
  |> List.map (fun (key, (v, mod_rev)) -> (key, v, mod_rev))

(* Quorum reads, transactions and leases go to etcd as they are; a
   failed call is an unavailable backend. *)
let forward t request reply =
  Messages.Store.call ~src:t.self ~dst:t.etcd request (function
    | Ok response -> reply response
    | Error _ -> reply (Error `Unavailable))

let handle_watch t (w : Messages.watch_request) reply =
  if not t.ready then reply (Error `Unavailable)
  else if w.Messages.start_rev < t.window_start then
    reply (Ok (Messages.Compacted t.window_start))
  else begin
    Streams.subscribe t.streams w ~replica:None ~backlog:(fun push ->
        History.Window.iter push t.window);
    reply (Ok Messages.Watching)
  end

let serve : type a. t -> a Messages.request -> (a Messages.reply -> unit) -> unit =
 fun t request reply ->
  Dsim.Metrics.Counter.incr t.rpc;
  match request with
  | Messages.List { prefix; quorum = false } ->
      if not t.ready then reply (Error `Unavailable)
      else reply (Ok { Messages.items = list_from_cache t prefix; rev = t.last_rev })
  | Messages.Get { key; quorum = false } ->
      if not t.ready then reply (Error `Unavailable)
      else reply (Ok (History.State.find t.cache key))
  | Messages.Watch w -> handle_watch t w reply
  | Messages.List { quorum = true; _ }
  | Messages.Get { quorum = true; _ }
  | Messages.Txn _ | Messages.Lease_grant _ | Messages.Lease_keepalive _ | Messages.Lease_revoke _
    ->
      forward t request reply

let create ~net ~intercept ~name ~etcd ?(window_size = 1000) ?epoch_seal () =
  (match epoch_seal with
  | Some g when g <= 0 -> invalid_arg "Apiserver.create: epoch_seal must be positive"
  | _ -> ());
  {
    name;
    net;
    self = Dsim.Network.peer net name;
    etcd = Dsim.Network.peer net etcd;
    upstream = name ^ "<-" ^ etcd;
    window_size;
    cache = History.State.empty;
    last_rev = 0;
    window = History.Window.create ();
    window_start = 0;
    streams = Streams.create ~net ~intercept ~src:name;
    ready = false;
    generation = 0;
    last_heartbeat = 0;
    epoch_seal;
    last_seal_rev = 0;
    tap = None;
    rpc = Dsim.Metrics.Counter.resolve (Dsim.Engine.metrics (Dsim.Network.engine net)) ("rpc." ^ name);
  }

let start t =
  Messages.Store.register t.net t.name
    { serve = (fun ~src:_ request reply -> serve t request reply) };
  Dsim.Network.set_lifecycle t.net t.name
    ~on_crash:(fun () -> clear_volatile_state t)
    ~on_restart:(fun () -> bootstrap t t.generation);
  bootstrap t t.generation;
  (* Watchdog: a stream that stopped carrying events *and* bookmarks is
     dead (broken TCP connection / partitioned upstream); re-list then. A
     stream whose events are being silently dropped still carries
     bookmarks and is NOT detected — that asymmetry is the point. *)
  Dsim.Engine.every (engine t) ~period:(heartbeat_timeout / 2) (fun () ->
      (if
         t.ready
         && Dsim.Network.peer_is_up t.self
         && Dsim.Engine.now (engine t) - t.last_heartbeat > heartbeat_timeout
       then begin
         Dsim.Engine.record (engine t) ~actor:t.name ~kind:"api.resync"
           "etcd stream silent; re-listing";
         bootstrap t t.generation
       end);
      true);
  (* Bookmarks toward our own subscribers — and, under the epoch
     protocol, a time-based close of the current partial epoch, so that a
     hole in a quiet stream is still detected within one period. *)
  let frontier _ = t.last_rev in
  Dsim.Engine.every (engine t) ~period:bookmark_period (fun () ->
      if t.ready && Dsim.Network.peer_is_up t.self then
        Streams.heartbeat t.streams ~frontier ~seal:(t.epoch_seal <> None);
      true)
