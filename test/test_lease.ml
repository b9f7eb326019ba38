(* Leases: TTLs against the virtual clock. *)

(* What the store does on an expiry tick once the deletes commit: forget
   every expired lease. *)
let expire l ~now =
  let out = Etcdlike.Lease.expired l ~now in
  List.iter (fun (id, _) -> ignore (Etcdlike.Lease.revoke l ~lease:id)) out;
  out

let grant_and_expire () =
  let l = Etcdlike.Lease.create () in
  let id = Etcdlike.Lease.grant l ~ttl:100 ~now:0 in
  Etcdlike.Lease.attach l ~lease:id ~key:"locks/a";
  Etcdlike.Lease.attach l ~lease:id ~key:"locks/b";
  Alcotest.(check int) "one lease" 1 (Etcdlike.Lease.active l);
  Alcotest.(check (list (pair int (list string)))) "expired keys"
    [ (id, [ "locks/a"; "locks/b" ]) ]
    (Etcdlike.Lease.expired l ~now:100);
  Alcotest.(check int) "kept until the store revokes it" 1 (Etcdlike.Lease.active l);
  ignore (Etcdlike.Lease.revoke l ~lease:id);
  Alcotest.(check int) "lease gone" 0 (Etcdlike.Lease.active l)

let keepalive_extends () =
  let l = Etcdlike.Lease.create () in
  let id = Etcdlike.Lease.grant l ~ttl:100 ~now:0 in
  Alcotest.(check bool) "keepalive ok" true (Etcdlike.Lease.keepalive l ~lease:id ~now:80);
  Alcotest.(check int) "not expired at 150" 0 (List.length (Etcdlike.Lease.expired l ~now:150));
  Alcotest.(check int) "expired at 180" 1 (List.length (Etcdlike.Lease.expired l ~now:180))

let keepalive_after_expiry_fails () =
  let l = Etcdlike.Lease.create () in
  let id = Etcdlike.Lease.grant l ~ttl:10 ~now:0 in
  ignore (expire l ~now:50);
  Alcotest.(check bool) "dead lease" false (Etcdlike.Lease.keepalive l ~lease:id ~now:60)

let revoke_returns_keys () =
  let l = Etcdlike.Lease.create () in
  let id = Etcdlike.Lease.grant l ~ttl:1000 ~now:0 in
  Etcdlike.Lease.attach l ~lease:id ~key:"k";
  Alcotest.(check (list string)) "keys back" [ "k" ] (Etcdlike.Lease.revoke l ~lease:id);
  Alcotest.(check int) "gone" 0 (Etcdlike.Lease.active l)

let attach_unknown_ignored () =
  let l = Etcdlike.Lease.create () in
  Etcdlike.Lease.attach l ~lease:42 ~key:"k";
  Alcotest.(check (list string)) "nothing attached" [] (Etcdlike.Lease.keys l ~lease:42)

let attach_is_idempotent () =
  let l = Etcdlike.Lease.create () in
  let id = Etcdlike.Lease.grant l ~ttl:10 ~now:0 in
  Etcdlike.Lease.attach l ~lease:id ~key:"k";
  Etcdlike.Lease.attach l ~lease:id ~key:"k";
  Alcotest.(check (list string)) "single binding" [ "k" ] (Etcdlike.Lease.keys l ~lease:id)

let ttl_remaining_reports () =
  let l = Etcdlike.Lease.create () in
  let id = Etcdlike.Lease.grant l ~ttl:100 ~now:0 in
  Alcotest.(check (option int)) "75 left" (Some 75) (Etcdlike.Lease.ttl_remaining l ~lease:id ~now:25);
  Alcotest.(check (option int)) "clamped" (Some 0)
    (Etcdlike.Lease.ttl_remaining l ~lease:id ~now:500);
  Alcotest.(check (option int)) "unknown lease" None
    (Etcdlike.Lease.ttl_remaining l ~lease:999 ~now:0)

let distinct_ids () =
  let l = Etcdlike.Lease.create () in
  let a = Etcdlike.Lease.grant l ~ttl:10 ~now:0 in
  let b = Etcdlike.Lease.grant l ~ttl:10 ~now:0 in
  Alcotest.(check bool) "fresh ids" true (a <> b)

(* Model-based: random grant/attach/keepalive/revoke/expire schedules
   against the sequential reference model — ids, key lists, deadlines
   and expiry batches must all agree. *)
let qcheck_lease_agrees_with_model =
  let key_of i = Printf.sprintf "locks/l%d" i in
  (* (kind, a, b): 0 grant ttl=(1+a) | 1 attach slot a key b |
     2 keepalive slot a | 3 revoke slot a | 4 tick +(1+a) | 5 expire *)
  let gen_step = QCheck.Gen.(triple (int_bound 5) (int_bound 5) (int_bound 5)) in
  QCheck.Test.make ~name:"lease agrees with the sequential model" ~count:300
    (QCheck.make
       ~print:(fun steps ->
         String.concat "; "
           (List.map (fun (k, a, b) -> Printf.sprintf "(%d,%d,%d)" k a b) steps))
       QCheck.Gen.(list_size (0 -- 40) gen_step))
    (fun steps ->
      let lease = Etcdlike.Lease.create () in
      let model = ref Conformance.Model.empty in
      let granted = ref [] in
      let now = ref 0 in
      let ok = ref true in
      let slot a = match !granted with [] -> 999 | ids -> List.nth ids (a mod List.length ids) in
      List.iter
        (fun (kind, a, b) ->
          (match kind with
          | 0 ->
              let id = Etcdlike.Lease.grant lease ~ttl:(1 + a) ~now:!now in
              let m', id' = Conformance.Model.grant !model ~ttl:(1 + a) ~now:!now in
              model := m';
              ok := !ok && id = id';
              granted := !granted @ [ id ]
          | 1 ->
              let id = slot a in
              Etcdlike.Lease.attach lease ~lease:id ~key:(key_of b);
              model := Conformance.Model.attach !model ~lease:id ~key:(key_of b)
          | 2 ->
              let id = slot a in
              let alive = Etcdlike.Lease.keepalive lease ~lease:id ~now:!now in
              let m', alive' = Conformance.Model.keepalive !model ~lease:id ~now:!now in
              model := m';
              ok := !ok && alive = alive'
          | 3 ->
              let id = slot a in
              let keys = Etcdlike.Lease.revoke lease ~lease:id in
              let m', keys' = Conformance.Model.revoke !model ~lease:id in
              model := m';
              granted := List.filter (fun g -> g <> id) !granted;
              ok := !ok && keys = keys'
          | 4 -> now := !now + 1 + a
          | _ ->
              let out = expire lease ~now:!now in
              let m', out' = Conformance.Model.expire !model ~now:!now in
              model := m';
              granted := List.filter (fun g -> not (List.mem_assoc g out)) !granted;
              ok := !ok && out = out');
          ok := !ok && Etcdlike.Lease.active lease = Conformance.Model.active_leases !model;
          List.iter
            (fun id ->
              ok :=
                !ok
                && Etcdlike.Lease.keys lease ~lease:id
                   = Conformance.Model.lease_keys !model ~lease:id
                && Etcdlike.Lease.ttl_remaining lease ~lease:id ~now:!now
                   = Conformance.Model.ttl_remaining !model ~lease:id ~now:!now)
            !granted)
        steps;
      !ok)

let suites =
  [
    ( "lease",
      [
        Alcotest.test_case "grant and expire" `Quick grant_and_expire;
        Alcotest.test_case "keepalive extends" `Quick keepalive_extends;
        Alcotest.test_case "keepalive after expiry fails" `Quick keepalive_after_expiry_fails;
        Alcotest.test_case "revoke returns keys" `Quick revoke_returns_keys;
        Alcotest.test_case "attach unknown ignored" `Quick attach_unknown_ignored;
        Alcotest.test_case "attach is idempotent" `Quick attach_is_idempotent;
        Alcotest.test_case "ttl remaining reports" `Quick ttl_remaining_reports;
        Alcotest.test_case "distinct ids" `Quick distinct_ids;
        Qcheck_util.to_alcotest qcheck_lease_agrees_with_model;
      ] );
  ]
