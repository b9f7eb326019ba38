type id = int

type lease = { ttl : int; mutable deadline : int; mutable keys : string list }

type t = { mutable next_id : int; table : (id, lease) Hashtbl.t }

let create () = { next_id = 0; table = Hashtbl.create 16 }

let grant t ~ttl ~now =
  t.next_id <- t.next_id + 1;
  Hashtbl.replace t.table t.next_id { ttl; deadline = now + ttl; keys = [] };
  t.next_id

let attach t ~lease ~key =
  match Hashtbl.find_opt t.table lease with
  | Some l -> if not (List.mem key l.keys) then l.keys <- key :: l.keys
  | None -> ()

let keys t ~lease =
  match Hashtbl.find_opt t.table lease with Some l -> List.rev l.keys | None -> []

let keepalive t ~lease ~now =
  match Hashtbl.find_opt t.table lease with
  | Some l ->
      l.deadline <- now + l.ttl;
      true
  | None -> false

let revoke t ~lease =
  let keys = keys t ~lease in
  Hashtbl.remove t.table lease;
  keys

let expired t ~now =
  Hashtbl.fold (fun id l acc -> if l.deadline <= now then (id, List.rev l.keys) :: acc else acc)
    t.table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let ttl_remaining t ~lease ~now =
  match Hashtbl.find_opt t.table lease with
  | Some l -> Some (max 0 (l.deadline - now))
  | None -> None

let active t = Hashtbl.length t.table
