type action =
  | Crash of Network.address
  | Restart of Network.address
  | Partition of Network.address * Network.address
  | Heal of Network.address * Network.address
  | Heal_all

let pp_action ppf = function
  | Crash a -> Format.fprintf ppf "crash %s" a
  | Restart a -> Format.fprintf ppf "restart %s" a
  | Partition (a, b) -> Format.fprintf ppf "partition %s %s" a b
  | Heal (a, b) -> Format.fprintf ppf "heal %s %s" a b
  | Heal_all -> Format.pp_print_string ppf "heal-all"

type plan = (int * action) list

let pp_plan ppf plan =
  List.iter (fun (time, action) -> Format.fprintf ppf "@[%8d us: %a@]@." time pp_action action) plan

let run_action net = function
  | Crash a -> Network.crash net a
  | Restart a -> Network.restart net a
  | Partition (a, b) -> Network.partition net a b
  | Heal (a, b) -> Network.heal net a b
  | Heal_all -> Network.heal_all net

let apply net plan =
  let engine = Network.engine net in
  List.iter
    (fun (time, action) ->
      ignore (Engine.schedule_first engine ~time (fun () -> run_action net action)))
    plan

let random_plan rng ~nodes ~horizon ?(crashes = 1) ?(partitions = 1) ?(min_downtime = 50_000)
    ?(max_downtime = 500_000) () =
  let nodes = Array.of_list nodes in
  if Array.length nodes = 0 then []
  else begin
    let downtime () =
      if max_downtime <= min_downtime then min_downtime
      else min_downtime + Rng.int rng (max_downtime - min_downtime + 1)
    in
    let events = ref [] in
    for _ = 1 to crashes do
      let victim = Rng.pick rng nodes in
      let at = Rng.int rng (max 1 horizon) in
      events := (at, Crash victim) :: (at + downtime (), Restart victim) :: !events
    done;
    if Array.length nodes >= 2 then
      for _ = 1 to partitions do
        let a = Rng.pick rng nodes in
        let b = Rng.pick rng nodes in
        if not (String.equal a b) then begin
          let at = Rng.int rng (max 1 horizon) in
          events := (at, Partition (a, b)) :: (at + downtime (), Heal (a, b)) :: !events
        end
      done;
    List.sort (fun (t1, _) (t2, _) -> compare t1 t2) !events
  end
