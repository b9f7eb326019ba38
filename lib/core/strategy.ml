type event_match = {
  key_prefix : string option;
  op : History.Event.op option;
  limit : int option;
}

let match_event ?key_prefix () = { key_prefix; op = None; limit = None }

type t =
  | No_perturbation
  | Delay_stream of {
      src : string option;
      dst : string option;
      matching : event_match;
      from : int;
      until : int;
      extra : int;
    }
  | Drop_events of {
      src : string option;
      dst : string option;
      matching : event_match;
      from : int;
      until : int;
    }
  | Crash_restart of { victim : string; at : int; downtime : int }
  | Partition_window of { a : string; b : string; from : int; until : int }
  | Combo of t list

let pp_opt ppf = function None -> Format.pp_print_string ppf "*" | Some s -> Format.pp_print_string ppf s

let pp_match ppf m =
  Format.fprintf ppf "%a/%s%s"
    pp_opt m.key_prefix
    (match m.op with Some op -> History.Event.op_to_string op | None -> "*")
    (match m.limit with Some l -> Printf.sprintf " (first %d)" l | None -> "")

let rec pp ppf = function
  | No_perturbation -> Format.pp_print_string ppf "none"
  | Delay_stream { src; dst; matching; from; until; extra } ->
      Format.fprintf ppf "delay %a->%a %a by %dms in [%d,%d]ms" pp_opt src pp_opt dst pp_match
        matching (extra / 1000) (from / 1000) (until / 1000)
  | Drop_events { src; dst; matching; from; until } ->
      Format.fprintf ppf "drop %a->%a %a in [%d,%d]ms" pp_opt src pp_opt dst pp_match matching
        (from / 1000) (until / 1000)
  | Crash_restart { victim; at; downtime } ->
      Format.fprintf ppf "crash %s at %dms for %dms" victim (at / 1000) (downtime / 1000)
  | Partition_window { a; b; from; until } ->
      if until = max_int then
        Format.fprintf ppf "partition %s|%s from %dms (never healed)" a b (from / 1000)
      else Format.fprintf ppf "partition %s|%s in [%d,%d]ms" a b (from / 1000) (until / 1000)
  | Combo parts ->
      Format.fprintf ppf "[%a]" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp) parts

let describe t = Format.asprintf "%a" pp t

let rec components = function
  | No_perturbation -> []
  | Delay_stream { dst; _ } | Drop_events { dst; _ } -> Option.to_list dst
  | Crash_restart { victim; _ } -> [ victim ]
  | Partition_window { a; b; _ } -> [ a; b ]
  | Combo parts -> List.sort_uniq String.compare (List.concat_map components parts)

let rec pattern = function
  | No_perturbation -> `None
  | Delay_stream _ | Partition_window _ -> `Staleness
  | Drop_events _ -> `Obs_gap
  | Crash_restart _ -> `Time_travel
  | Combo parts -> (
      let patterns = List.sort_uniq compare (List.map pattern parts) in
      match patterns with
      | [] -> `None
      | [ p ] -> p
      | _ when List.mem `Time_travel patterns -> `Time_travel
      | _ -> `Mixed)

(* Interceptor rules compiled from the strategy. Each rule carries a
   mutable hit budget so "first N matching events" strategies work. *)
type rule = {
  r_src : string option;
  r_dst : string option;
  r_match : event_match;
  r_from : int;
  r_until : int;
  mutable r_hits : int;
  r_decision : History.Intercept.decision;
}

(* Rules only inspect the edge endpoints, the event's key/op and the
   clock — all substrate-independent — so one compiled rule set drives
   any ['v History.Intercept.t]. *)
let rule_matches engine rule (edge : History.Intercept.edge) (e : _ History.Event.t) =
  let now = Dsim.Engine.now engine in
  let within = now >= rule.r_from && now <= rule.r_until in
  let src_ok =
    match rule.r_src with None -> true | Some s -> String.equal s edge.History.Intercept.src
  in
  let dst_ok =
    match rule.r_dst with None -> true | Some d -> String.equal d edge.History.Intercept.dst
  in
  let key_ok =
    match rule.r_match.key_prefix with
    | None -> true
    | Some p ->
        String.length e.History.Event.key >= String.length p
        && String.equal (String.sub e.History.Event.key 0 (String.length p)) p
  in
  let op_ok = match rule.r_match.op with None -> true | Some op -> op = e.History.Event.op in
  let budget_ok = match rule.r_match.limit with None -> true | Some l -> rule.r_hits < l in
  within && src_ok && dst_ok && key_ok && op_ok && budget_ok

let rec collect_rules acc = function
  | No_perturbation -> acc
  | Delay_stream { src; dst; matching; from; until; extra } ->
      {
        r_src = src;
        r_dst = dst;
        r_match = matching;
        r_from = from;
        r_until = until;
        r_hits = 0;
        r_decision = History.Intercept.Delay extra;
      }
      :: acc
  | Drop_events { src; dst; matching; from; until } ->
      {
        r_src = src;
        r_dst = dst;
        r_match = matching;
        r_from = from;
        r_until = until;
        r_hits = 0;
        r_decision = History.Intercept.Drop;
      }
      :: acc
  | Crash_restart _ | Partition_window _ -> acc
  | Combo parts -> List.fold_left collect_rules acc parts

let rec fault_plan = function
  | No_perturbation | Delay_stream _ | Drop_events _ -> []
  | Crash_restart { victim; at; downtime } ->
      [ (at, Dsim.Fault.Crash victim); (at + downtime, Dsim.Fault.Restart victim) ]
  | Partition_window { a; b; from; until } ->
      [ (from, Dsim.Fault.Partition (a, b)); (until, Dsim.Fault.Heal (a, b)) ]
  | Combo parts -> List.concat_map fault_plan parts

let first_perturbation strategy =
  let first = List.fold_left (fun m (time, _) -> min m time) max_int (fault_plan strategy) in
  List.fold_left (fun m rule -> min m rule.r_from) first (collect_rules [] strategy)

let install ~engine ~net intercept strategy =
  let rules = List.rev (collect_rules [] strategy) in
  if rules <> [] then
    History.Intercept.set_policy intercept (fun edge event ->
        match List.find_opt (fun rule -> rule_matches engine rule edge event) rules with
        | Some rule ->
            rule.r_hits <- rule.r_hits + 1;
            rule.r_decision
        | None -> History.Intercept.Pass);
  Dsim.Fault.apply net (fault_plan strategy)

let apply cluster strategy =
  install ~engine:(Kube.Cluster.engine cluster) ~net:(Kube.Cluster.net cluster)
    (Kube.Cluster.intercept cluster) strategy

let apply_hbase cluster strategy =
  install ~engine:(Hbaselike.Cluster.engine cluster) ~net:(Hbaselike.Cluster.net cluster)
    (Hbaselike.Cluster.intercept cluster) strategy

let staleness ?src ?key_prefix ~dst ~from ~until ~extra () =
  Delay_stream
    { src; dst = Some dst; matching = match_event ?key_prefix (); from; until; extra }

let observability_gap ?src ~dst ?key_prefix ?op ?limit ~from ~until () =
  Drop_events
    { src; dst = Some dst; matching = { key_prefix; op; limit }; from; until }

let time_travel ~stale_api ~victim ~stale_from ~crash_at ?(downtime = 150_000) ?heal_at () =
  let heal_at = Option.value heal_at ~default:max_int in
  Combo
    [
      Partition_window { a = "etcd"; b = stale_api; from = stale_from; until = heal_at };
      Crash_restart { victim; at = crash_at; downtime };
    ]
