type op = Create | Update | Delete

let op_to_string = function Create -> "create" | Update -> "update" | Delete -> "delete"

type 'v t = { rev : int; key : string; op : op; value : 'v option }

let make ~rev ~key ~op value = { rev; key; op; value }

let describe e = Printf.sprintf "@%d %s %s" e.rev (op_to_string e.op) e.key

(* Compares in place: [String.starts_with] allocates its inner loop's
   closure on every call without flambda, and watch fan-out and the
   monitor's scans call this once per event. *)
let rec same_from prefix key i n =
  i >= n || (String.unsafe_get prefix i = String.unsafe_get key i && same_from prefix key (i + 1) n)

let[@inline] has_prefix prefix key =
  let n = String.length prefix in
  String.length key >= n && same_from prefix key 0 n

let matches_key prefix key = match prefix with None -> true | Some p -> has_prefix p key

let matches_prefix prefix e = matches_key prefix e.key
