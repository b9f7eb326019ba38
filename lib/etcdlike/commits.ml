type 'v t = {
  engine : Dsim.Engine.t;
  actor : string;
  kind : string;
  counter : Dsim.Metrics.Counter.t;
  mutable rev : int;  (* the frontier *)
  (* Indexed by revision: revisions are dense, so arrays, not tables. *)
  mutable anchors : int array;  (* trace ids *)
  mutable times : int array;
  mutable origins : string array;
  key_anchors : (string, int) Hashtbl.t;  (* key -> anchor of its last commit *)
  mutable listeners : ('v History.Event.t -> unit) list;  (* registration order *)
}

let create engine ~actor ~kind =
  {
    engine;
    actor;
    kind;
    counter = Dsim.Metrics.Counter.resolve (Dsim.Engine.metrics engine) (kind ^ "s");
    rev = 0;
    anchors = Array.make 32 Dsim.Trace.no_cause;
    times = Array.make 32 0;
    origins = Array.make 32 "boot";
    key_anchors = Hashtbl.create 64;
    listeners = [];
  }

let grow a size fill =
  let next = Array.make size fill in
  Array.blit a 0 next 0 (Array.length a);
  next

let reserve t rev =
  if rev >= Array.length t.anchors then begin
    let size = max (2 * Array.length t.anchors) (rev + 1) in
    t.anchors <- grow t.anchors size Dsim.Trace.no_cause;
    t.times <- grow t.times size 0;
    t.origins <- grow t.origins size "boot"
  end

let rec run e = function
  | [] -> ()
  | listener :: rest ->
      listener e;
      run e rest

let commit t (e : 'v History.Event.t) =
  let rev = e.History.Event.rev in
  let id =
    Dsim.Engine.emit_deferred t.engine ~actor:t.actor ~kind:t.kind (fun () ->
        Printf.sprintf "rev %d %s" e.History.Event.rev (History.Event.describe e))
  in
  Dsim.Metrics.Counter.incr t.counter;
  reserve t rev;
  t.anchors.(rev) <- id;
  t.times.(rev) <- Dsim.Engine.now t.engine;
  Hashtbl.replace t.key_anchors e.History.Event.key id;
  t.rev <- rev;
  run e t.listeners

let on_commit t listener = t.listeners <- t.listeners @ [ listener ]

let boot t seed =
  let cause = Dsim.Engine.current_cause t.engine in
  Dsim.Engine.set_cause t.engine None;
  seed ();
  Dsim.Engine.set_cause t.engine cause

let label t ~rev origin = t.origins.(rev) <- origin

type view = View : 'v t -> view [@@unboxed]

let view t = View t

let rev (View t) = t.rev

let anchor (View t) ~rev = if rev >= 1 && rev <= t.rev then Some t.anchors.(rev) else None

let time (View t) ~rev = if rev >= 1 && rev <= t.rev then Some t.times.(rev) else None

let origin (View t) ~rev = if rev < Array.length t.origins then t.origins.(rev) else "boot"

let key_anchor (View t) key = Hashtbl.find_opt t.key_anchors key

let anchored (View t) (entry : Dsim.Trace.entry) = String.equal entry.Dsim.Trace.kind t.kind

let on_revision (View t) f =
  on_commit t (fun (e : _ History.Event.t) ->
      f ~rev:e.History.Event.rev ~key:e.History.Event.key ~op:e.History.Event.op)

let lag_sampler (View t) probes =
  let metrics = Dsim.Engine.metrics t.engine in
  let probes =
    List.map
      (fun (name, view_rev) ->
        ( Dsim.Metrics.Gauge.resolve metrics ("lag." ^ name),
          Dsim.Metrics.Series.resolve metrics ("lag." ^ name),
          view_rev ))
      probes
  in
  let rec sample now = function
    | [] -> ()
    | (gauge, series, view_rev) :: rest ->
        let lag = Int.max 0 (t.rev - view_rev ()) in
        Dsim.Metrics.Gauge.set_int gauge lag;
        Dsim.Metrics.Series.sample_int series ~time:now lag;
        sample now rest
  in
  fun () -> sample (Dsim.Engine.now t.engine) probes
