type 'v watcher = {
  prefix : string option;
  deliver : 'v History.Event.t -> unit;
  mutable last_sent : int;
}

type handle = int

type 'v t = { kv : 'v Kv.t; index : 'v watcher History.Dispatch.t }

let push w (e : 'v History.Event.t) =
  if e.History.Event.rev > w.last_sent && History.Event.matches_prefix w.prefix e then begin
    w.last_sent <- e.History.Event.rev;
    w.deliver e
  end

(* The trie routes by key prefix, so only matching watchers are even
   visited; [push] re-checks [matches_prefix] because backlog replay
   calls it directly, outside the index. Cancellation mid-fan-out is
   honoured by the index itself: a removed handle is skipped by the
   in-flight iteration (see {!History.Dispatch}). *)
let fan_out t event =
  History.Dispatch.iter_matching t.index ~key:event.History.Event.key (fun _ w -> push w event)

let create kv =
  let t = { kv; index = History.Dispatch.create () } in
  Kv.on_commit kv (fun event -> fan_out t event);
  t

let watch t ?prefix ~start_rev ~deliver () =
  match Kv.since t.kv ~rev:start_rev with
  | Error (`Compacted rev) -> Error (`Compacted rev)
  | Ok backlog ->
      let watcher = { prefix; deliver; last_sent = start_rev } in
      let handle = History.Dispatch.add t.index ?prefix watcher in
      List.iter (fun event -> push watcher event) backlog;
      Ok handle

let cancel t handle = ignore (History.Dispatch.remove t.index handle)

let active t = History.Dispatch.size t.index
