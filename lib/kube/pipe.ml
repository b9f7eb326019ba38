type item =
  | Event of Resource.value History.Event.t
  | Bookmark of int
  | Seal of { upto_rev : int; sent : int }

type t = {
  net : Dsim.Network.t;
  intercept : Resource.value History.Intercept.t;
  edge : History.Intercept.edge;
  deliver : item -> unit;
  dst_peer : Dsim.Network.peer;
  dst_incarnation : int;
  inflight : Dsim.Metrics.Gauge.t;
  latency : Dsim.Metrics.Histogram.t;
  delivered : Dsim.Metrics.Counter.t;
  mutable closed : bool;
  mutable last_due : int;  (* FIFO frontier: delivery time of the previous item *)
}

let create ~net ~intercept ~edge ~deliver () =
  let metrics = Dsim.Engine.metrics (Dsim.Network.engine net) in
  let dst_peer = Dsim.Network.peer net edge.History.Intercept.dst in
  {
    net;
    intercept;
    edge;
    deliver;
    dst_peer;
    dst_incarnation = Dsim.Network.peer_incarnation dst_peer;
    inflight = Dsim.Metrics.Gauge.resolve metrics ("pipe.inflight." ^ edge.dst);
    latency = Dsim.Metrics.Histogram.resolve metrics ("watch.latency." ^ edge.dst);
    delivered = Dsim.Metrics.Counter.resolve metrics "pipe.delivered";
    closed = false;
    last_due = 0;
  }

(* The edge as trace details name it. *)
let label edge = Format.asprintf "%a" History.Intercept.pp_edge edge

let close t = t.closed <- true

let is_closed t = t.closed

let deliverable t =
  (not t.closed)
  && (not (Dsim.Network.partitioned t.net t.edge.src t.edge.dst))
  && Dsim.Network.peer_is_up t.dst_peer
  && Dsim.Network.peer_incarnation t.dst_peer = t.dst_incarnation

let arrive t ~sent item =
  let engine = Dsim.Network.engine t.net in
  Dsim.Metrics.Gauge.add t.inflight (-1.0);
  if deliverable t then begin
    Dsim.Metrics.Histogram.observe t.latency (float_of_int (Dsim.Engine.now engine - sent));
    (* Events become trace entries so the commit -> delivery ->
       reconcile chain is walkable; bookmarks and seals are
       transport metadata and stay out of the trace. *)
    (match item with
    | Event event ->
        Dsim.Metrics.Counter.incr t.delivered;
        let edge = t.edge in
        ignore
          (Dsim.Engine.emit_deferred engine ~actor:edge.dst ~kind:"pipe.deliver" (fun () ->
               label edge ^ " " ^ History.Event.describe event))
    | Bookmark _ | Seal _ -> ());
    t.deliver item
  end
  else if not t.closed then begin
    (* A TCP stream does not lose one segment and carry on: a
       blocked delivery kills the whole stream. The subscriber
       notices the silence (no bookmarks) and re-lists. *)
    t.closed <- true;
    Dsim.Metrics.incr (Dsim.Engine.metrics engine) "pipe.broken";
    Dsim.Engine.record engine ~actor:t.edge.dst ~kind:"pipe.broken" (label t.edge)
  end

let enqueue t ~extra item =
  let engine = Dsim.Network.engine t.net in
  let sent = Dsim.Engine.now engine in
  let due = max (sent + Dsim.Network.sample_latency t.net + extra) t.last_due in
  t.last_due <- due;
  Dsim.Metrics.Gauge.add t.inflight 1.0;
  ignore (Dsim.Engine.schedule_at engine ~time:due (fun () -> arrive t ~sent item))

let send t item =
  if not t.closed then
    match item with
    | Bookmark _ | Seal _ -> enqueue t ~extra:0 item
    | Event event -> (
        match History.Intercept.decide t.intercept t.edge event with
        | History.Intercept.Pass -> enqueue t ~extra:0 item
        | History.Intercept.Drop ->
            let engine = Dsim.Network.engine t.net in
            Dsim.Metrics.incr (Dsim.Engine.metrics engine) "pipe.dropped";
            Dsim.Engine.record engine ~actor:t.edge.dst ~kind:"pipe.drop"
              (label t.edge ^ " " ^ History.Event.describe event)
        | History.Intercept.Delay extra -> enqueue t ~extra item)
