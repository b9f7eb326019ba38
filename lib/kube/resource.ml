type pod_phase = Pending | Running | Succeeded | Failed

let pp_pod_phase ppf phase =
  Format.pp_print_string ppf
    (match phase with
    | Pending -> "Pending"
    | Running -> "Running"
    | Succeeded -> "Succeeded"
    | Failed -> "Failed")

type pod = {
  pod_name : string;
  node : string option;
  phase : pod_phase;
  deletion_timestamp : int option;
  pvc : string option;
  owner : string option;
  ordinal : int option;
}

type node = { node_name : string; ready : bool }

type pvc = { pvc_name : string; owner_pod : string option }

type cassdc = { dc_name : string; replicas : int }

type rset = { rs_name : string; rs_replicas : int }

type lock = { lock_name : string; holder : string }

type deployment = { dep_name : string; dep_replicas : int; template : int }

type value =
  | Pod of pod
  | Node of node
  | Pvc of pvc
  | Cassdc of cassdc
  | Rset of rset
  | Lock of lock
  | Deployment of deployment

let pp ppf = function
  | Pod p ->
      Format.fprintf ppf "pod{%s node=%s phase=%a%s%s}" p.pod_name
        (Option.value p.node ~default:"-")
        pp_pod_phase p.phase
        (match p.deletion_timestamp with Some ts -> Printf.sprintf " deleting@%d" ts | None -> "")
        (match p.pvc with Some c -> " pvc=" ^ c | None -> "")
  | Node n -> Format.fprintf ppf "node{%s %s}" n.node_name (if n.ready then "ready" else "not-ready")
  | Pvc c ->
      Format.fprintf ppf "pvc{%s owner=%s}" c.pvc_name (Option.value c.owner_pod ~default:"-")
  | Cassdc d -> Format.fprintf ppf "cassdc{%s replicas=%d}" d.dc_name d.replicas
  | Rset r -> Format.fprintf ppf "rset{%s replicas=%d}" r.rs_name r.rs_replicas
  | Lock l -> Format.fprintf ppf "lock{%s held by %s}" l.lock_name l.holder
  | Deployment d ->
      Format.fprintf ppf "deployment{%s replicas=%d template=g%d}" d.dep_name d.dep_replicas
        d.template

let to_string v = Format.asprintf "%a" pp v

let pods_prefix = "pods/"
let nodes_prefix = "nodes/"
let pvcs_prefix = "pvcs/"
let cassdcs_prefix = "cassdcs/"
let rsets_prefix = "rsets/"
let locks_prefix = "locks/"
let deployments_prefix = "deployments/"

let pod_key name = pods_prefix ^ name
let node_key name = nodes_prefix ^ name
let pvc_key name = pvcs_prefix ^ name
let cassdc_key name = cassdcs_prefix ^ name
let rset_key name = rsets_prefix ^ name
let lock_key name = locks_prefix ^ name
let deployment_key name = deployments_prefix ^ name

(* Allocates nothing: the oracle calls it on every commit and the kubelet
   on every pod event. *)
let kind_of_key key =
  let open History.Event in
  if has_prefix pods_prefix key then `Pod
  else if has_prefix nodes_prefix key then `Node
  else if has_prefix pvcs_prefix key then `Pvc
  else if has_prefix cassdcs_prefix key then `Cassdc
  else if has_prefix rsets_prefix key then `Rset
  else if has_prefix locks_prefix key then `Lock
  else if has_prefix deployments_prefix key then `Deployment
  else `Other

let name_of_key key =
  match String.index_opt key '/' with
  | Some i -> String.sub key (i + 1) (String.length key - i - 1)
  | None -> key

let owned_by key p = match p.owner with Some owner -> String.equal owner key | None -> false

let make_pod ?node ?(phase = Pending) ?deletion_timestamp ?pvc ?owner ?ordinal pod_name =
  Pod { pod_name; node; phase; deletion_timestamp; pvc; owner; ordinal }

let make_node ?(ready = true) node_name = Node { node_name; ready }

let make_pvc ?owner_pod pvc_name = Pvc { pvc_name; owner_pod }

let make_cassdc ~replicas dc_name = Cassdc { dc_name; replicas }

let make_rset ~replicas rs_name = Rset { rs_name; rs_replicas = replicas }

let make_lock ~holder lock_name = Lock { lock_name; holder }

let make_deployment ~replicas ~template dep_name =
  Deployment { dep_name; dep_replicas = replicas; template }
