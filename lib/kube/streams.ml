type subscription = {
  pipe : Pipe.t;
  prefix : string option;
  replica : string option;  (* store replica the stream is served from *)
  replica_node : Dsim.Network.peer option;  (* that replica's node *)
  mutable last_sent : int;
  mutable epoch_sent : int;  (* matching events sent since the last seal *)
}

type t = {
  net : Dsim.Network.t;
  intercept : Resource.value History.Intercept.t;
  src : string;
  by_id : (string, subscription) Hashtbl.t;  (* its iteration order is the pin *)
}

let create ~net ~intercept ~src = { net; intercept; src; by_id = Hashtbl.create 8 }

let count t = Hashtbl.length t.by_id

let ids t = Hashtbl.fold (fun id _ acc -> id :: acc) t.by_id [] |> List.sort String.compare

let push sub (e : Resource.value History.Event.t) =
  if e.History.Event.rev > sub.last_sent && History.Event.matches_prefix sub.prefix e then begin
    sub.last_sent <- e.History.Event.rev;
    sub.epoch_sent <- sub.epoch_sent + 1;
    Pipe.send sub.pipe (Pipe.Event e)
  end

(* A replaced stream is removed and then added, never replaced in
   place: that moves it within its hashtable bucket exactly as the
   journals' order pin expects. *)
let subscribe t (w : Messages.watch_request) ~replica ~backlog =
  (match Hashtbl.find_opt t.by_id w.Messages.stream_id with
  | Some old ->
      Pipe.close old.pipe;
      Hashtbl.remove t.by_id w.Messages.stream_id
  | None -> ());
  let edge = History.Intercept.{ src = t.src; dst = w.Messages.subscriber } in
  let pipe = Pipe.create ~net:t.net ~intercept:t.intercept ~edge ~deliver:w.Messages.deliver () in
  let sub =
    {
      pipe;
      prefix = w.Messages.prefix;
      replica;
      replica_node = Option.map (Dsim.Network.peer t.net) replica;
      last_sent = w.Messages.start_rev;
      epoch_sent = 0;
    }
  in
  Hashtbl.replace t.by_id w.Messages.stream_id sub;
  backlog (push sub)

(* Every walk below is a plain [Hashtbl.iter]: the callbacks only
   [Pipe.send] or [Pipe.close], and neither delivers synchronously, so
   nothing can change the table mid-walk (see the interface). *)
let publish t ~replica (e : Resource.value History.Event.t) =
  Hashtbl.iter
    (fun _ sub -> if Option.equal String.equal sub.replica replica then push sub e)
    t.by_id

let send_seal sub ~upto_rev =
  Pipe.send sub.pipe (Pipe.Seal { upto_rev; sent = sub.epoch_sent });
  sub.epoch_sent <- 0

let heartbeat t ~frontier ~seal =
  Hashtbl.iter
    (fun _ sub ->
      let serving =
        match sub.replica_node with Some node -> Dsim.Network.peer_is_up node | None -> true
      in
      if serving then begin
        let rev = frontier sub.replica in
        Pipe.send sub.pipe (Pipe.Bookmark rev);
        if seal then send_seal sub ~upto_rev:rev
      end)
    t.by_id

let seal t ~upto_rev = Hashtbl.iter (fun _ sub -> send_seal sub ~upto_rev) t.by_id

let clear t =
  Hashtbl.iter (fun _ sub -> Pipe.close sub.pipe) t.by_id;
  Hashtbl.reset t.by_id
