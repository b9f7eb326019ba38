type address = string
type request = ..
type response = ..
type cast = ..

type error = Timeout | Unreachable

type latency_model =
  | Uniform of { min : int; max : int }
  | Exponential of { mean : float; floor : int }

type node = {
  mutable serve : src:address -> request -> (response -> unit) -> unit;
  mutable on_cast : src:address -> cast -> unit;
  mutable on_crash : unit -> unit;
  mutable on_restart : unit -> unit;
  mutable up : bool;
  mutable incarnation : int;
}

module Link = struct
  type t = address * address

  (* Normalize so the pair is order-independent. *)
  let make a b = if String.compare a b <= 0 then (a, b) else (b, a)
end

type t = {
  engine : Engine.t;
  rng : Rng.t;
  mutable latency_model : latency_model;
  nodes : (address, node) Hashtbl.t;
  mutable cuts : Link.t list;
  mutable liveness_changes : int;  (* node creations, crashes and restarts *)
  calls : Metrics.Counter.t;
  timeouts : Metrics.Counter.t;
  casts : Metrics.Counter.t;
}

let create ?(min_latency = 500) ?(max_latency = 2000) engine =
  let metrics = Engine.metrics engine in
  {
    engine;
    rng = Rng.split (Engine.rng engine);
    latency_model = Uniform { min = min_latency; max = max_latency };
    nodes = Hashtbl.create 16;
    cuts = [];
    liveness_changes = 0;
    calls = Metrics.Counter.resolve metrics "net.calls";
    timeouts = Metrics.Counter.resolve metrics "net.timeouts";
    casts = Metrics.Counter.resolve metrics "net.casts";
  }

let engine t = t.engine

let latency t =
  match t.latency_model with
  | Uniform { min; max } ->
      if max <= min then min else min + Rng.int t.rng (max - min + 1)
  | Exponential { mean; floor } -> floor + int_of_float (Rng.exponential t.rng ~mean)

let set_latency_model t model = t.latency_model <- model

let fresh_node () =
  {
    serve = (fun ~src:_ _ _ -> ());
    on_cast = (fun ~src:_ _ -> ());
    on_crash = (fun () -> ());
    on_restart = (fun () -> ());
    up = true;
    incarnation = 0;
  }

let node t addr =
  match Hashtbl.find_opt t.nodes addr with
  | Some n -> n
  | None ->
      let n = fresh_node () in
      Hashtbl.replace t.nodes addr n;
      t.liveness_changes <- t.liveness_changes + 1;
      n

let register t addr ~serve ?on_cast () =
  let n = node t addr in
  n.serve <- serve;
  (match on_cast with Some f -> n.on_cast <- f | None -> ())

let set_lifecycle t addr ~on_crash ~on_restart =
  let n = node t addr in
  n.on_crash <- on_crash;
  n.on_restart <- on_restart

let liveness_changes t = t.liveness_changes

let is_up t addr =
  match Hashtbl.find_opt t.nodes addr with Some n -> n.up | None -> false

let incarnation t addr =
  match Hashtbl.find_opt t.nodes addr with Some n -> n.incarnation | None -> 0

let crash t addr =
  let n = node t addr in
  if n.up then begin
    n.up <- false;
    t.liveness_changes <- t.liveness_changes + 1;
    n.incarnation <- n.incarnation + 1;
    Engine.record t.engine ~actor:addr ~kind:"node.crash" "";
    n.on_crash ()
  end

let restart t addr =
  let n = node t addr in
  if not n.up then begin
    n.up <- true;
    t.liveness_changes <- t.liveness_changes + 1;
    Engine.record t.engine ~actor:addr ~kind:"node.restart" "";
    n.on_restart ()
  end

let partitioned t a b = match t.cuts with [] -> false | cuts -> List.mem (Link.make a b) cuts

let partition t a b =
  let link = Link.make a b in
  if not (List.mem link t.cuts) then begin
    t.cuts <- link :: t.cuts;
    Engine.record t.engine ~actor:a ~kind:"net.partition" (Printf.sprintf "%s <-/-> %s" a b)
  end

let heal t a b =
  let link = Link.make a b in
  if List.mem link t.cuts then begin
    t.cuts <- List.filter (fun l -> l <> link) t.cuts;
    Engine.record t.engine ~actor:a ~kind:"net.heal" (Printf.sprintf "%s <---> %s" a b)
  end

let heal_all t =
  if t.cuts <> [] then begin
    t.cuts <- [];
    Engine.record t.engine ~actor:"net" ~kind:"net.heal" "all links"
  end

let default_timeout = 1_000_000

(* One record per call, shared by its request, reply and timeout
   events; the continuation runs at most once. *)
type call = {
  net : t;
  src : address;
  dst : address;
  src_incarnation : int;
  k : (response, error) result -> unit;
  mutable completed : bool;
}

let finish c result =
  if not c.completed then begin
    c.completed <- true;
    (match result with Error Timeout -> Metrics.Counter.incr c.net.timeouts | _ -> ());
    c.k result
  end

(* The reply is lost if the link is now cut, the caller died, or the
   caller restarted into a new incarnation. *)
let reply_arrives c timeout resp =
  let t = c.net in
  if
    (not (partitioned t c.src c.dst))
    && is_up t c.src
    && incarnation t c.src = c.src_incarnation
  then begin
    Engine.cancel timeout;
    finish c (Ok resp)
  end

let call t ~src ~dst ?(timeout = default_timeout) req k =
  Metrics.Counter.incr t.calls;
  match Hashtbl.find_opt t.nodes dst with
  | None -> k (Error Unreachable)
  | Some dst_node ->
      let c = { net = t; src; dst; src_incarnation = incarnation t src; k; completed = false } in
      let timeout = Engine.schedule t.engine ~delay:timeout (fun () -> finish c (Error Timeout)) in
      let reply resp =
        ignore
          (Engine.schedule t.engine ~delay:(latency t) (fun () -> reply_arrives c timeout resp))
      in
      ignore
        (Engine.schedule t.engine ~delay:(latency t) (fun () ->
             if (not (partitioned t src dst)) && dst_node.up then dst_node.serve ~src req reply))

let cast t ~src ~dst payload =
  Metrics.Counter.incr t.casts;
  match Hashtbl.find_opt t.nodes dst with
  | None -> ()
  | Some dst_node ->
      ignore
        (Engine.schedule t.engine ~delay:(latency t) (fun () ->
             if (not (partitioned t src dst)) && dst_node.up then
               dst_node.on_cast ~src payload))

let sample_latency t = latency t
