type item =
  | Event of Resource.value History.Event.t
  | Bookmark of int
  | Seal of { upto_rev : int; sent : int }

type t = {
  net : Dsim.Network.t;
  intercept : Resource.value History.Intercept.t;
  edge : History.Intercept.edge;
  label : string;  (* the edge as [History.Intercept.pp_edge] prints it, for trace details *)
  deliver : item -> unit;
  dst_incarnation : int;
  inflight : Dsim.Metrics.Gauge.t;
  latency : Dsim.Metrics.Histogram.t;
  delivered : Dsim.Metrics.Counter.t;
  mutable closed : bool;
  mutable last_due : int;  (* FIFO frontier: delivery time of the previous item *)
}

let create ~net ~intercept ~edge ~deliver () =
  let metrics = Dsim.Engine.metrics (Dsim.Network.engine net) in
  {
    net;
    intercept;
    edge;
    label = Format.asprintf "%a" History.Intercept.pp_edge edge;
    deliver;
    dst_incarnation = Dsim.Network.incarnation net edge.dst;
    inflight = Dsim.Metrics.Gauge.resolve metrics ("pipe.inflight." ^ edge.dst);
    latency = Dsim.Metrics.Histogram.resolve metrics ("watch.latency." ^ edge.dst);
    delivered = Dsim.Metrics.Counter.resolve metrics "pipe.delivered";
    closed = false;
    last_due = 0;
  }

let close t = t.closed <- true

let is_closed t = t.closed

let deliverable t =
  (not t.closed)
  && (not (Dsim.Network.partitioned t.net t.edge.src t.edge.dst))
  && Dsim.Network.is_up t.net t.edge.dst
  && Dsim.Network.incarnation t.net t.edge.dst = t.dst_incarnation

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
        ignore
          (Dsim.Engine.emit engine ~actor:t.edge.dst ~kind:"pipe.deliver"
             (t.label ^ " " ^ History.Event.describe event))
    | Bookmark _ | Seal _ -> ());
    t.deliver item
  end
  else if not t.closed then begin
    (* A TCP stream does not lose one segment and carry on: a
       blocked delivery kills the whole stream. The subscriber
       notices the silence (no bookmarks) and re-lists. *)
    t.closed <- true;
    Dsim.Metrics.incr (Dsim.Engine.metrics engine) "pipe.broken";
    Dsim.Engine.record engine ~actor:t.edge.dst ~kind:"pipe.broken" t.label
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
              (t.label ^ " " ^ History.Event.describe event)
        | History.Intercept.Delay extra -> enqueue t ~extra item)
