type subscription = {
  pipe : Pipe.t;
  prefix : string option;
  replica : string option;  (* store replica the stream is served from *)
  mutable last_sent : int;
  mutable epoch_sent : int;  (* matching events sent since the last seal *)
}

type t = {
  net : Dsim.Network.t;
  intercept : Resource.value History.Intercept.t;
  src : string;
  subs : subscription History.Dispatch.t;
  by_id : (string, int) Hashtbl.t;  (* stream id -> dispatch handle; its order is the pin *)
  mutable order_dirty : bool;
}

let create ~net ~intercept ~src =
  {
    net;
    intercept;
    src;
    subs = History.Dispatch.create ();
    by_id = Hashtbl.create 8;
    order_dirty = false;
  }

let count t = Hashtbl.length t.by_id

let ids t = Hashtbl.fold (fun id _ acc -> id :: acc) t.by_id [] |> List.sort String.compare

(* Dispatch order keys follow [by_id]'s iteration order (see the
   interface). Recomputed lazily: only when the stream set changed
   since the last fan-out. *)
let repin t =
  if t.order_dirty then begin
    t.order_dirty <- false;
    let i = ref 0 in
    Hashtbl.iter
      (fun _ handle ->
        History.Dispatch.set_order t.subs handle ~order:!i;
        incr i)
      t.by_id
  end

let push sub (e : Resource.value History.Event.t) =
  if e.History.Event.rev > sub.last_sent && History.Event.matches_prefix sub.prefix e then begin
    sub.last_sent <- e.History.Event.rev;
    sub.epoch_sent <- sub.epoch_sent + 1;
    Pipe.send sub.pipe (Pipe.Event e)
  end

let remove t id =
  match Hashtbl.find_opt t.by_id id with
  | Some handle ->
      (match History.Dispatch.find t.subs handle with
      | Some sub -> Pipe.close sub.pipe
      | None -> ());
      ignore (History.Dispatch.remove t.subs handle);
      Hashtbl.remove t.by_id id;
      t.order_dirty <- true
  | None -> ()

let subscribe t (w : Messages.watch_request) ~replica ~backlog =
  remove t w.Messages.stream_id;
  let edge = History.Intercept.{ src = t.src; dst = w.Messages.subscriber } in
  let pipe = Pipe.create ~net:t.net ~intercept:t.intercept ~edge ~deliver:w.Messages.deliver () in
  let sub =
    { pipe; prefix = w.Messages.prefix; replica; last_sent = w.Messages.start_rev; epoch_sent = 0 }
  in
  Hashtbl.replace t.by_id w.Messages.stream_id
    (History.Dispatch.add t.subs ?prefix:w.Messages.prefix sub);
  t.order_dirty <- true;
  backlog (push sub)

(* The dispatch trie visits only the streams whose prefix matches the
   key; [push] re-checks the prefix because backlog replay calls it
   directly. The walk is a snapshot, so a stream replaced or cleared
   from inside a callback is skipped, not corrupted. *)
let publish t ~replica (e : Resource.value History.Event.t) =
  repin t;
  History.Dispatch.iter_matching t.subs ~key:e.History.Event.key (fun _ sub ->
      if Option.equal String.equal sub.replica replica then push sub e)

let send_seal sub ~upto_rev =
  Pipe.send sub.pipe (Pipe.Seal { upto_rev; sent = sub.epoch_sent });
  sub.epoch_sent <- 0

let heartbeat t ~frontier ~seal =
  repin t;
  History.Dispatch.iter_all t.subs (fun _ sub ->
      let serving =
        match sub.replica with Some rid -> Dsim.Network.is_up t.net rid | None -> true
      in
      if serving then begin
        let rev = frontier sub.replica in
        Pipe.send sub.pipe (Pipe.Bookmark rev);
        if seal then send_seal sub ~upto_rev:rev
      end)

let seal t ~upto_rev =
  repin t;
  History.Dispatch.iter_all t.subs (fun _ sub -> send_seal sub ~upto_rev)

let clear t =
  History.Dispatch.iter_all t.subs (fun _ sub -> Pipe.close sub.pipe);
  History.Dispatch.clear t.subs;
  Hashtbl.reset t.by_id;
  t.order_dirty <- true
