(* Typed cluster objects and their key scheme. *)

let key_construction () =
  Alcotest.(check string) "pod" "pods/web-0" (Kube.Resource.pod_key "web-0");
  Alcotest.(check string) "node" "nodes/n1" (Kube.Resource.node_key "n1");
  Alcotest.(check string) "pvc" "pvcs/data" (Kube.Resource.pvc_key "data");
  Alcotest.(check string) "cassdc" "cassdcs/dc1" (Kube.Resource.cassdc_key "dc1")

let kind_dispatch () =
  let kind key =
    match Kube.Resource.kind_of_key key with
    | `Pod -> "pod"
    | `Node -> "node"
    | `Pvc -> "pvc"
    | `Cassdc -> "cassdc"
    | `Rset -> "rset"
    | `Lock -> "lock"
    | `Deployment -> "deployment"
    | `Other -> "other"
  in
  Alcotest.(check string) "pod" "pod" (kind "pods/a");
  Alcotest.(check string) "node" "node" (kind "nodes/a");
  Alcotest.(check string) "pvc" "pvc" (kind "pvcs/a");
  Alcotest.(check string) "cassdc" "cassdc" (kind "cassdcs/a");
  Alcotest.(check string) "rset" "rset" (kind "rsets/a");
  Alcotest.(check string) "lock" "lock" (kind "locks/a");
  Alcotest.(check string) "deployment" "deployment" (kind "deployments/a");
  Alcotest.(check string) "other" "other" (kind "leases/a")

let name_extraction () =
  Alcotest.(check string) "strips kind" "web-0" (Kube.Resource.name_of_key "pods/web-0");
  Alcotest.(check string) "no slash" "raw" (Kube.Resource.name_of_key "raw")

let pod_constructor_defaults () =
  match Kube.Resource.make_pod "p" with
  | Kube.Resource.Pod p ->
      Alcotest.(check (option string)) "unbound" None p.Kube.Resource.node;
      Alcotest.(check bool) "pending" true (p.Kube.Resource.phase = Kube.Resource.Pending);
      Alcotest.(check (option int)) "no mark" None p.Kube.Resource.deletion_timestamp
  | _ -> Alcotest.fail "expected pod"

let pod_constructor_options () =
  match
    Kube.Resource.make_pod ~node:"n" ~phase:Kube.Resource.Running ~deletion_timestamp:9
      ~pvc:"c" ~owner:"cassdcs/dc" ~ordinal:3 "p"
  with
  | Kube.Resource.Pod p ->
      Alcotest.(check (option string)) "node" (Some "n") p.Kube.Resource.node;
      Alcotest.(check (option int)) "marked" (Some 9) p.Kube.Resource.deletion_timestamp;
      Alcotest.(check (option string)) "claim" (Some "c") p.Kube.Resource.pvc;
      Alcotest.(check (option int)) "ordinal" (Some 3) p.Kube.Resource.ordinal
  | _ -> Alcotest.fail "expected pod"

let printing_is_total () =
  let values =
    [
      Kube.Resource.make_pod ~node:"n" ~deletion_timestamp:5 ~pvc:"c" "p";
      Kube.Resource.make_node ~ready:false "n";
      Kube.Resource.make_pvc ~owner_pod:"p" "c";
      Kube.Resource.make_cassdc ~replicas:2 "d";
    ]
  in
  List.iter (fun v -> Alcotest.(check bool) "non-empty" true (Kube.Resource.to_string v <> ""))
    values

let suites =
  [
    ( "resource",
      [
        Alcotest.test_case "key construction" `Quick key_construction;
        Alcotest.test_case "kind dispatch" `Quick kind_dispatch;
        Alcotest.test_case "name extraction" `Quick name_extraction;
        Alcotest.test_case "pod constructor defaults" `Quick pod_constructor_defaults;
        Alcotest.test_case "pod constructor options" `Quick pod_constructor_options;
        Alcotest.test_case "printing is total" `Quick printing_is_total;
      ] );
  ]
