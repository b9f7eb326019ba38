type 'v t = {
  history : 'v History.Log.t;
  (* Listeners in registration order (a commit feed, the replicated
     store's canonical advance, ZK's replication and watch notifier); a
     growable array keeps each registration O(1) instead of re-walking
     a list with [@]. *)
  mutable listeners : ('v History.Event.t -> unit) array;
  mutable n_listeners : int;
}

let create () = { history = History.Log.create (); listeners = [||]; n_listeners = 0 }

let rev t = History.Log.rev t.history

let compacted_rev t = History.Log.compacted_rev t.history

let state t = History.Log.state t.history

let history t = t.history

let get t key = History.State.find (state t) key

let range t ~prefix =
  (* One ordered-map range scan yields key, value and mod-revision
     together — no per-key re-lookup after the prefix walk. *)
  History.State.bindings_with_prefix (state t) ~prefix
  |> List.map (fun (key, (v, mod_rev)) -> (key, v, mod_rev))

let commit t ~key ~op value =
  let event = History.Log.append t.history ~key ~op value in
  for i = 0 to t.n_listeners - 1 do
    t.listeners.(i) event
  done;
  event

let put t key value =
  let op = if History.State.mem (state t) key then History.Event.Update else History.Event.Create in
  commit t ~key ~op (Some value)

let delete t key =
  if History.State.mem (state t) key then Some (commit t ~key ~op:History.Event.Delete None) else None

let since t ~rev = History.Log.since t.history ~rev

let compact t ~before = History.Log.compact t.history ~before

let compact_keep_last t n = History.Log.compact_keep_last t.history n

let on_commit t listener =
  let capacity = Array.length t.listeners in
  if t.n_listeners = capacity then begin
    let next = Array.make (max 4 (2 * capacity)) listener in
    Array.blit t.listeners 0 next 0 t.n_listeners;
    t.listeners <- next
  end;
  t.listeners.(t.n_listeners) <- listener;
  t.n_listeners <- t.n_listeners + 1
