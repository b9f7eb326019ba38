type address = string

type error = Timeout | Unreachable

type latency_model =
  | Uniform of { min : int; max : int }
  | Exponential of { mean : float; floor : int }

(* A node's handler, under the identity of the service it serves. *)
type binding = Binding : 'h Type.Id.t * 'h -> binding

type node = {
  absent : bool;  (* only [absent] itself: see there *)
  mutable service : binding option;
  mutable on_crash : unit -> unit;
  mutable on_restart : unit -> unit;
  mutable up : bool;
  mutable incarnation : int;
}

type t = {
  engine : Engine.t;
  rng : Rng.t;
  mutable latency_model : latency_model;
  nodes : (address, node) Hashtbl.t;
  mutable cuts : (address * address) list;  (* each cut once, in either orientation *)
  mutable liveness_changes : int;  (* node creations, crashes and restarts *)
  calls : Metrics.Counter.t;
  timeouts : Metrics.Counter.t;
  casts : Metrics.Counter.t;
}

let create engine =
  let metrics = Engine.metrics engine in
  {
    engine;
    rng = Rng.split (Engine.rng engine);
    latency_model = Uniform { min = 500; max = 2000 };
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
    absent = false;
    service = None;
    on_crash = (fun () -> ());
    on_restart = (fun () -> ());
    up = true;
    incarnation = 0;
  }

(* What a lookup of an address that never joined reads: down, at
   incarnation 0. Never stored in [nodes] and never mutated. A peer
   that has not resolved yet holds it, so a snapshot of a network
   ({!Snapshot}) holds a copy of it: it is recognised by its field,
   never by [==]. *)
let absent = { (fresh_node ()) with absent = true; up = false }

(* Nodes are never removed or replaced, so a record found here stays the
   address's node for good. *)
let find t addr = match Hashtbl.find t.nodes addr with n -> n | exception Not_found -> absent

let node t addr =
  match find t addr with
  | n when not n.absent -> n
  | _ ->
      let n = fresh_node () in
      Hashtbl.replace t.nodes addr n;
      t.liveness_changes <- t.liveness_changes + 1;
      n

let join t addr = ignore (node t addr)

let bind t addr id handler = (node t addr).service <- Some (Binding (id, handler))

(* [n]'s handler if it serves the service [id] names; [Not_found] if not. *)
let handler : type h. h Type.Id.t -> node -> h =
 fun id n ->
  match n.service with
  | Some (Binding (id', h)) -> (
      match Type.Id.provably_equal id id' with Some Type.Equal -> h | None -> raise Not_found)
  | None -> raise Not_found

let set_lifecycle t addr ~on_crash ~on_restart =
  let n = node t addr in
  n.on_crash <- on_crash;
  n.on_restart <- on_restart

let liveness_changes t = t.liveness_changes

let is_up t addr = (find t addr).up

let incarnation t addr = (find t addr).incarnation

type peer = { net : t; addr : address; mutable resolved : node }

let peer net addr = { net; addr; resolved = absent }

let address p = p.addr

(* Looks the address up until it has joined, then never again. *)
let resolve p =
  if p.resolved.absent then p.resolved <- find p.net p.addr;
  p.resolved

let peer_is_up p = (resolve p).up

let peer_incarnation p = (resolve p).incarnation

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

(* Whether a cut is the link between [a] and [b], either way round. The
   strings are compared in place, so a check allocates nothing. *)
let links a b (x, y) =
  (String.equal x a && String.equal y b) || (String.equal x b && String.equal y a)

let rec cut a b = function [] -> false | link :: rest -> links a b link || cut a b rest

let partitioned t a b = match t.cuts with [] -> false | cuts -> cut a b cuts

let partition t a b =
  if not (cut a b t.cuts) then begin
    t.cuts <- (a, b) :: t.cuts;
    Engine.record t.engine ~actor:a ~kind:"net.partition" (Printf.sprintf "%s <-/-> %s" a b)
  end

let heal t a b =
  if cut a b t.cuts then begin
    t.cuts <- List.filter (fun link -> not (links a b link)) t.cuts;
    Engine.record t.engine ~actor:a ~kind:"net.heal" (Printf.sprintf "%s <---> %s" a b)
  end

let heal_all t =
  if t.cuts <> [] then begin
    t.cuts <- [];
    Engine.record t.engine ~actor:"net" ~kind:"net.heal" "all links"
  end

let default_timeout = 1_000_000

(* A request reached a live node that does not serve its service: traced
   and counted at the destination, never silently dropped. The counter
   is resolved here, so it joins a snapshot only once it fires. *)
let unhandled ~src ~dst what =
  let engine = dst.net.engine in
  Metrics.incr (Engine.metrics engine) "net.unhandled";
  Engine.record engine ~actor:dst.addr ~kind:"net.unhandled"
    (Printf.sprintf "%s from %s" what src.addr)

(* One record per call, shared by its request, reply and timeout
   events; the continuation runs at most once. *)
type 'r call = {
  src : peer;
  dst : peer;
  src_incarnation : int;  (* the caller's, when it called *)
  k : ('r, error) result -> unit;
  mutable completed : bool;
}

let finish c result =
  if not c.completed then begin
    c.completed <- true;
    (match result with Error Timeout -> Metrics.Counter.incr c.dst.net.timeouts | _ -> ());
    c.k result
  end

(* The reply is lost if the link is now cut, the caller died, or the
   caller restarted into a new incarnation. *)
let reply_arrives c timeout resp =
  let t = c.dst.net in
  let src = resolve c.src in
  if (not (partitioned t c.src.addr c.dst.addr)) && src.up && src.incarnation = c.src_incarnation
  then begin
    Engine.cancel t.engine timeout;
    finish c (Ok resp)
  end

let send_reply c timeout resp =
  let t = c.dst.net in
  ignore (Engine.schedule t.engine ~delay:(latency t) (fun () -> reply_arrives c timeout resp))

(* A request or cast that has crossed the network: [serve] applies the
   destination's handler under [id], unless the link is cut or the
   destination is down by now; [what] names the request if the
   destination serves another service. [dst] has joined, so its node is
   resolved. *)
let deliver id what serve ~src ~dst req reply =
  if (not (partitioned dst.net src.addr dst.addr)) && dst.resolved.up then
    match handler id dst.resolved with
    | h -> serve h ~src req reply
    | exception Not_found -> unhandled ~src ~dst what

(* The one transport every service shares. Both ends are peers, so
   neither the call nor its delivery looks an address up once both have
   joined; the events close over the call record rather than its
   fields. *)
let call id what serve ~src ~dst ?(timeout = default_timeout) req k =
  let t = dst.net in
  Metrics.Counter.incr t.calls;
  if (resolve dst).absent then k (Error Unreachable)
  else begin
    let c = { src; dst; src_incarnation = peer_incarnation src; k; completed = false } in
    let timeout = Engine.schedule t.engine ~delay:timeout (fun () -> finish c (Error Timeout)) in
    ignore
      (Engine.schedule t.engine ~delay:(latency t) (fun () ->
           deliver id what serve ~src:c.src ~dst:c.dst req (fun resp -> send_reply c timeout resp)))
  end

let cast id what serve ~src ~dst req =
  let t = dst.net in
  Metrics.Counter.incr t.casts;
  if not (resolve dst).absent then
    ignore
      (Engine.schedule t.engine ~delay:(latency t) (fun () ->
           deliver id what serve ~src ~dst req ignore))

module type SERVICE = sig
  type 'a request
  type 'a reply
  type handler = { serve : 'a. src:peer -> 'a request -> ('a reply -> unit) -> unit }
  val register : t -> address -> handler -> unit
  val call :
    src:peer -> dst:peer -> ?timeout:int -> 'a request -> (('a reply, error) result -> unit) -> unit
  val cast : src:peer -> dst:peer -> unit request -> unit
end

module Service (S : sig
  type 'a request
  type 'a reply
  val name : string
end) =
struct
  type 'a request = 'a S.request
  type 'a reply = 'a S.reply
  type handler = { serve : 'a. src:peer -> 'a request -> ('a reply -> unit) -> unit }

  let id : handler Type.Id.t = Type.Id.make ()
  let serve h ~src req reply = h.serve ~src req reply
  let register t addr h = bind t addr id h
  let request = S.name ^ " request"
  let call ~src ~dst ?timeout req k = call id request serve ~src ~dst ?timeout req k
  let notice = S.name ^ " cast"
  let cast ~src ~dst req = cast id notice serve ~src ~dst req
end

let sample_latency t = latency t
