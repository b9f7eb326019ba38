type t = {
  nodes : Node.t list;
  applied : (string, string list ref) Hashtbl.t;  (* id -> applied commands, newest first *)
}

let create ~net ~n ?(prefix = "raft") ?favored ?on_apply () =
  let names = List.init n (fun i -> Printf.sprintf "%s-%d" prefix (i + 1)) in
  let applied = Hashtbl.create 8 in
  let nodes =
    List.map
      (fun id ->
        let log = ref [] in
        Hashtbl.replace applied id log;
        let peers = List.filter (fun p -> not (String.equal p id)) names in
        (* The favored replica runs with the minimum election timeout and
           no jitter, so it deterministically wins the first election on a
           quiet network — scenario authors get a known initial leader
           without losing determinism for later (faulted) elections. *)
        Node.create ~net ~id ~peers
          ?election_timeout_max:(if favored = Some id then Some 150_000 else None)
          ~on_apply:(fun ~index ~command ->
            log := command :: !log;
            match on_apply with Some f -> f ~id ~index ~command | None -> ())
          ())
      names
  in
  { nodes; applied }

let start t = List.iter Node.start t.nodes

let nodes t = t.nodes

let names t = List.map Node.id t.nodes

let leaders t = List.filter Node.is_leader t.nodes

let leader t =
  leaders t
  |> List.fold_left
       (fun acc n ->
         match acc with
         | Some best when Node.term best >= Node.term n -> acc
         | _ -> Some n)
       None

let propose_via_leader t command =
  match leader t with Some n -> Node.propose n command | None -> false

let applied t id =
  match Hashtbl.find_opt t.applied id with Some log -> List.rev !log | None -> []

let committed_prefix_of_logs logs =
  match logs with
  | [] -> []
  | (first_id, first) :: rest ->
      let reference_id, shortest =
        List.fold_left
          (fun (best_id, best) (id, l) ->
            if List.length l < List.length best then (id, l) else (best_id, best))
          (first_id, first) rest
      in
      List.iteri
        (fun i command ->
          List.iter
            (fun (id, l) ->
              if List.length l > i && not (String.equal (List.nth l i) command) then
                invalid_arg
                  (Printf.sprintf
                     "Raft safety violated: replicas disagree at index %d: %s applied %S, %s \
                      applied %S"
                     (i + 1) reference_id command id (List.nth l i)))
            logs)
        shortest;
      shortest

let committed_prefix t =
  committed_prefix_of_logs (List.map (fun n -> (Node.id n, applied t (Node.id n))) t.nodes)
