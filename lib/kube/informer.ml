type t = {
  net : Dsim.Network.t;
  owner : string;
  self : Dsim.Network.peer;  (* the owner's node *)
  endpoints : Dsim.Network.peer array;
  prefix : string;
  stream : string;  (* owner#prefix: the watch stream id and the tap's stream name *)
  on_event : Resource.value History.Event.t -> unit;
  on_reset : Resource.value History.State.t -> unit;
  monotonic : bool;
  mutable endpoint_index : int;
  mutable store : Resource.value History.State.t;
  mutable last_rev : int;
  mutable generation : int;
  mutable last_heartbeat : int;
  mutable running : bool;
  mutable watchdog_installed : bool;
  mutable relists : int;
  mutable consecutive_failures : int;
  same_endpoint_retries : int;
  mutable since_seal : int;  (* events received since the last seal *)
  mutable gaps_detected : int;
  mutable tap : Tap.t option;  (* conformance observation point, read-only *)
}

let engine t = Dsim.Network.engine t.net

(* A stream silent for 1 s is dead; failed list/watch attempts retry
   after 300 ms. *)
let heartbeat_timeout = 1_000_000
let retry_delay = 300_000

let create ~net ~owner ~endpoints ~prefix ?(on_event = fun _ -> ()) ?(on_reset = fun _ -> ())
    ?(monotonic = false) () =
  if endpoints = [] then invalid_arg "Informer.create: no endpoints";
  {
    net;
    owner;
    self = Dsim.Network.peer net owner;
    endpoints = Array.of_list (List.map (Dsim.Network.peer net) endpoints);
    prefix;
    stream = owner ^ "#" ^ prefix;
    on_event;
    on_reset;
    monotonic;
    endpoint_index = 0;
    store = History.State.empty;
    last_rev = 0;
    generation = 0;
    last_heartbeat = 0;
    running = false;
    watchdog_installed = false;
    relists = 0;
    consecutive_failures = 0;
    same_endpoint_retries = 2;
    since_seal = 0;
    gaps_detected = 0;
    tap = None;
  }

let running t = t.running

let owner t = t.owner

let prefix t = t.prefix

let store t = t.store

let rev t = t.last_rev

let endpoint t = t.endpoints.(t.endpoint_index mod Array.length t.endpoints)

let current_endpoint t = Dsim.Network.address (endpoint t)

let relists t = t.relists

let gaps_detected t = t.gaps_detected

let alive t gen = t.running && gen = t.generation && Dsim.Network.peer_is_up t.self

let tap_view t =
  {
    Tap.component = t.owner;
    stream = t.stream;
    generation = t.generation;
    rev = t.last_rev;
    prefix = Some t.prefix;
    state = t.store;
  }

(* Installing a tap on an informer that already adopted a list replays
   the adoption as a reset, so the observer's frontier starts at the
   list revision rather than zero. *)
let set_tap t tap =
  t.tap <- tap;
  match tap with
  | Some tp when t.running && t.last_rev > 0 -> tp.Tap.on_reset (tap_view t)
  | _ -> ()

let rotate t =
  t.endpoint_index <- t.endpoint_index + 1;
  t.consecutive_failures <- 0

(* Transient failures (endpoint still booting, lost packet) retry the same
   endpoint; only repeated failure rotates. This keeps components homed on
   their configured apiserver, as behind a session-sticky LB. *)
let note_failure_and_maybe_rotate t =
  t.consecutive_failures <- t.consecutive_failures + 1;
  if t.consecutive_failures >= t.same_endpoint_retries then rotate t

let rec on_stream_item t gen item =
  if alive t gen then
    match item with
    | Pipe.Event e ->
        t.store <- History.State.apply t.store e;
        t.last_rev <- max t.last_rev e.History.Event.rev;
        t.last_heartbeat <- Dsim.Engine.now (engine t);
        t.since_seal <- t.since_seal + 1;
        (match t.tap with Some tap -> tap.Tap.on_event (tap_view t) e | None -> ());
        t.on_event e
    | Pipe.Bookmark rev ->
        t.last_rev <- max t.last_rev rev;
        t.last_heartbeat <- Dsim.Engine.now (engine t);
        (match t.tap with Some tap -> tap.Tap.on_advance (tap_view t) rev | None -> ())
    | Pipe.Seal { upto_rev; sent } ->
        t.last_heartbeat <- Dsim.Engine.now (engine t);
        (* The epoch protocol's payoff: the counts either agree — and the
           view provably holds every matching event up to [upto_rev] — or
           an event was silently lost and we re-list right now. *)
        if t.since_seal = sent then begin
          t.since_seal <- 0;
          t.last_rev <- max t.last_rev upto_rev;
          (match t.tap with Some tap -> tap.Tap.on_advance (tap_view t) upto_rev | None -> ())
        end
        else begin
          t.gaps_detected <- t.gaps_detected + 1;
          Dsim.Metrics.incr (Dsim.Engine.metrics (engine t)) "informer.gaps";
          Dsim.Engine.record (engine t) ~actor:t.owner ~kind:"informer.gap-detected"
            (Printf.sprintf "seal says %d events up to rev %d, received %d; re-listing" sent
               upto_rev t.since_seal);
          t.generation <- t.generation + 1;
          t.since_seal <- 0;
          bootstrap t t.generation
        end

and bootstrap t gen =
  if alive t gen then begin
    let endpoint = endpoint t in
    Messages.Store.call ~src:t.self ~dst:endpoint
      (Messages.List { prefix = t.prefix; quorum = false })
      (function
      | Ok (Ok { Messages.items; rev }) when alive t gen ->
          if t.monotonic && rev < t.last_rev then begin
            (* The 59848 fix: never adopt a list older than what we have
               already observed; some other apiserver must be fresher. *)
            Dsim.Engine.record (engine t) ~actor:t.owner ~kind:"informer.reject-stale"
              (Printf.sprintf "%s served rev %d < frontier %d" (Dsim.Network.address endpoint) rev
                 t.last_rev);
            rotate t;
            retry t gen
          end
          else begin
            t.consecutive_failures <- 0;
            t.store <- Messages.items_to_state items;
            t.last_rev <- rev;
            t.last_heartbeat <- Dsim.Engine.now (engine t);
            t.relists <- t.relists + 1;
            Dsim.Metrics.incr (Dsim.Engine.metrics (engine t)) "informer.relists";
            t.since_seal <- 0;
            Dsim.Engine.record (engine t) ~actor:t.owner ~kind:"informer.list"
              (Printf.sprintf "%s %s: %d items at rev %d" (Dsim.Network.address endpoint) t.prefix
                 (List.length items) rev);
            (match t.tap with Some tap -> tap.Tap.on_reset (tap_view t) | None -> ());
            t.on_reset t.store;
            let watch =
              Messages.Watch
                {
                  prefix = Some t.prefix;
                  start_rev = rev;
                  subscriber = t.owner;
                  stream_id = t.stream;
                  deliver = (fun item -> on_stream_item t gen item);
                }
            in
            Messages.Store.call ~src:t.self ~dst:endpoint watch (function
              | Ok (Ok Messages.Watching) -> ()
              | Ok (Ok (Messages.Compacted _)) ->
                  (* Our revision fell out of the apiserver's window; the
                     only recovery is another (gap-leaving) re-list, and
                     the endpoint did nothing wrong. *)
                  retry t gen
              | Ok (Error `Unavailable) | Error _ ->
                  if alive t gen then begin
                    note_failure_and_maybe_rotate t;
                    retry t gen
                  end)
          end
      | Ok (Ok _ | Error `Unavailable) | Error _ ->
          if alive t gen then begin
            note_failure_and_maybe_rotate t;
            retry t gen
          end)
  end

and retry t gen =
  if alive t gen then
    ignore (Dsim.Engine.schedule (engine t) ~delay:retry_delay (fun () -> bootstrap t gen))

let install_watchdog t =
  if not t.watchdog_installed then begin
    t.watchdog_installed <- true;
    Dsim.Engine.every (engine t) ~period:(heartbeat_timeout / 2) (fun () ->
        (if
           t.running
           && Dsim.Network.peer_is_up t.self
           && Dsim.Engine.now (engine t) - t.last_heartbeat > heartbeat_timeout
         then begin
           Dsim.Metrics.incr (Dsim.Engine.metrics (engine t)) "informer.stream-dead";
           Dsim.Engine.record (engine t) ~actor:t.owner ~kind:"informer.stream-dead"
             (Printf.sprintf "no traffic from %s; rotating" (current_endpoint t));
           rotate t;
           t.generation <- t.generation + 1;
           bootstrap t t.generation
         end);
        true)
  end

let start t ?endpoint () =
  (match endpoint with Some i -> t.endpoint_index <- i | None -> ());
  t.generation <- t.generation + 1;
  t.running <- true;
  t.last_heartbeat <- Dsim.Engine.now (engine t);
  install_watchdog t;
  bootstrap t t.generation

let stop t =
  t.running <- false;
  t.generation <- t.generation + 1
