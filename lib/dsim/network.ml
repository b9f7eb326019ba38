type address = string

type error = Timeout | Unreachable

type latency_model =
  | Uniform of { min : int; max : int }
  | Exponential of { mean : float; floor : int }

(* A node's handler, under the identity of the service it serves. *)
type binding = Binding : 'h Type.Id.t * 'h -> binding

type node = {
  mutable service : binding option;
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
    service = None;
    on_crash = (fun () -> ());
    on_restart = (fun () -> ());
    up = true;
    incarnation = 0;
  }

(* What a lookup of an address that never joined reads: down, at
   incarnation 0. Never stored in [nodes] and never mutated. *)
let absent = { (fresh_node ()) with up = false }

(* Nodes are never removed or replaced, so a record found here stays the
   address's node for good. *)
let find t addr = match Hashtbl.find t.nodes addr with n -> n | exception Not_found -> absent

let node t addr =
  match find t addr with
  | n when n != absent -> n
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

(* A request reached a live node that does not serve its service: traced
   and counted at the destination, never silently dropped. The counter
   is resolved here, so it joins a snapshot only once it fires. *)
let unhandled t ~src ~dst what =
  Metrics.incr (Engine.metrics t.engine) "net.unhandled";
  Engine.record t.engine ~actor:dst ~kind:"net.unhandled" (Printf.sprintf "%s from %s" what src)

let set_lifecycle t addr ~on_crash ~on_restart =
  let n = node t addr in
  n.on_crash <- on_crash;
  n.on_restart <- on_restart

let liveness_changes t = t.liveness_changes

let is_up t addr = (find t addr).up

let incarnation t addr = (find t addr).incarnation

type peer = { net : t; addr : address; mutable resolved : node }

let peer net addr = { net; addr; resolved = absent }

(* Looks the address up until it has joined, then never again. *)
let resolve p =
  if p.resolved == absent then p.resolved <- find p.net p.addr;
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
   events; the continuation runs at most once. [src_node] is the
   caller's node at call time, [absent] if it had not joined. *)
type 'r call = {
  net : t;
  src : address;
  dst : address;
  src_node : node;
  src_incarnation : int;
  k : ('r, error) result -> unit;
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
  let src = if c.src_node == absent then find t c.src else c.src_node in
  if (not (partitioned t c.src c.dst)) && src.up && src.incarnation = c.src_incarnation then begin
    Engine.cancel t.engine timeout;
    finish c (Ok resp)
  end

(* The one transport every service shares: [serve] applies the
   destination's handler under [id] to the request; [what] names the
   request if the destination has none. *)
let call t id what serve ~src ~dst ?(timeout = default_timeout) req k =
  Metrics.Counter.incr t.calls;
  match find t dst with
  | dst_node when dst_node == absent -> k (Error Unreachable)
  | dst_node ->
      let src_node = find t src in
      let src_incarnation = src_node.incarnation in
      let c = { net = t; src; dst; src_node; src_incarnation; k; completed = false } in
      let timeout = Engine.schedule t.engine ~delay:timeout (fun () -> finish c (Error Timeout)) in
      let reply resp =
        ignore
          (Engine.schedule t.engine ~delay:(latency t) (fun () -> reply_arrives c timeout resp))
      in
      ignore
        (Engine.schedule t.engine ~delay:(latency t) (fun () ->
             if (not (partitioned t src dst)) && dst_node.up then
               match handler id dst_node with
               | h -> serve h ~src req reply
               | exception Not_found -> unhandled t ~src ~dst what))

let cast t id what serve ~src ~dst req =
  Metrics.Counter.incr t.casts;
  match find t dst with
  | dst_node when dst_node == absent -> ()
  | dst_node ->
      ignore
        (Engine.schedule t.engine ~delay:(latency t) (fun () ->
             if (not (partitioned t src dst)) && dst_node.up then
               match handler id dst_node with
               | h -> serve h ~src req ignore
               | exception Not_found -> unhandled t ~src ~dst what))

module type SERVICE = sig
  type 'a request
  type 'a reply
  type handler = { serve : 'a. src:address -> 'a request -> ('a reply -> unit) -> unit }
  val register : t -> address -> handler -> unit
  val call :
    t -> src:address -> dst:address -> ?timeout:int -> 'a request ->
    (('a reply, error) result -> unit) -> unit
  val cast : t -> src:address -> dst:address -> unit request -> unit
end

module Service (S : sig
  type 'a request
  type 'a reply
  val name : string
end) =
struct
  type 'a request = 'a S.request
  type 'a reply = 'a S.reply
  type handler = { serve : 'a. src:address -> 'a request -> ('a reply -> unit) -> unit }

  let id : handler Type.Id.t = Type.Id.make ()
  let serve h ~src req reply = h.serve ~src req reply
  let register t addr h = bind t addr id h
  let request = S.name ^ " request"
  let call t ~src ~dst ?timeout req k = call t id request serve ~src ~dst ?timeout req k
  let notice = S.name ^ " cast"
  let cast t ~src ~dst req = cast t id notice serve ~src ~dst req
end

let sample_latency t = latency t
