(* Machines and clusters (section 7.0.2). *)

let test_machine_case_insensitive () =
  let t = Fix.create () in
  let rows =
    Fix.expect_ok "gmac" (Fix.as_user t "bob" "get_machine" [ "charon*" ])
  in
  Alcotest.(check string) "stored uppercase" "CHARON.MIT.EDU"
    (Fix.first_field rows);
  ignore (Fix.must t "add_cluster" [ "c1"; "d"; "l" ]);
  ignore (Fix.must t "add_machine_to_cluster" [ "CHARON.MIT.EDU"; "c1" ]);
  ignore
    (Fix.must t "add_server_info"
       [ "nfs"; "360"; "/tmp/nfs"; "nfs.sh"; "UNIQUE"; "1"; "LIST";
         "moira-admins" ]);
  ignore
    (Fix.must t "add_server_host_info"
       [ "NFS"; "NFS-1.MIT.EDU"; "1"; "5"; "10"; "extra" ]);
  ignore
    (Fix.must t "add_server_host_access" [ "CHARON.MIT.EDU"; "USER"; "ann" ]);
  (* every case variant of a machine argument, exact or wildcard,
     answers the same rows as the upper-case argument *)
  let same name upper variants =
    let expected = Fix.expect_ok name (Fix.as_admin t name upper) in
    Alcotest.(check bool) (name ^ " finds rows") true (expected <> []);
    List.iter
      (fun args ->
        Alcotest.(check (list (list string)))
          (Printf.sprintf "%s(%s)" name (String.concat "," args))
          expected
          (Fix.expect_ok name (Fix.as_admin t name args)))
      variants
  in
  same "get_machine" [ "CHARON.MIT.EDU" ]
    [ [ "charon.mit.edu" ]; [ "Charon.MIT.edu" ] ];
  same "get_machine" [ "CHARON*" ] [ [ "charon*" ]; [ "Charon.?IT*" ] ];
  same "get_machine_to_cluster_map" [ "CHARON*"; "*" ]
    [ [ "charon*"; "*" ]; [ "charon.mit.edu"; "c1" ] ];
  same "get_server_host_info" [ "NFS"; "NFS-1*" ]
    [ [ "NFS"; "nfs-1*" ]; [ "NFS"; "Nfs-1.mit.edu" ] ];
  same "get_server_host_access" [ "CHARON*" ]
    [ [ "charon*" ]; [ "charon.mit.edu" ] ];
  (* what makes upper-casing the argument enough: every stored machine
     name is already canonical, in the fixture and in a built campus *)
  let all_canonical what mdb =
    let machines = Moira.Mdb.table mdb "machine" in
    Alcotest.(check bool) (what ^ " has machines") true
      (Relation.Table.cardinal machines > 0);
    Relation.Table.iter machines (fun _ row ->
        let name =
          Relation.Value.str (Relation.Table.field machines row "name")
        in
        Alcotest.(check string) (what ^ " machine canonical")
          (Moira.Lookup.canon_host name) name)
  in
  all_canonical "fixture" t.Fix.mdb;
  let clock () = 568_000_000 in
  let mdb = Moira.Mdb.create ~clock in
  let kdc = Krb.Kdc.create ~clock () in
  let glue = Moira.Glue.create ~mdb ~registry:(Moira.Catalog.make ()) () in
  ignore (Workload.Population.build ~glue ~kdc Workload.Population.small);
  all_canonical "Population.small" mdb

let test_machine_anyone_may_read () =
  let t = Fix.create () in
  match Fix.as_user t "" "get_machine" [ "*" ] with
  | Ok rows -> Alcotest.(check bool) "several" true (List.length rows >= 5)
  | Error c -> Alcotest.fail (Comerr.Com_err.error_message c)

let test_add_machine_validation () =
  let t = Fix.create () in
  Fix.expect_err "bad type" Moira.Mr_err.typ
    (Fix.as_admin t "add_machine" [ "NEW.MIT.EDU"; "CRAY" ]);
  ignore (Fix.must t "add_machine" [ "new.mit.edu"; "VAX" ]);
  (* canonicalized to uppercase, so re-adding in other case collides *)
  Fix.expect_err "dup" Moira.Mr_err.not_unique
    (Fix.as_admin t "add_machine" [ "NEW.MIT.EDU"; "RT" ])

let test_update_machine () =
  let t = Fix.create () in
  ignore (Fix.must t "update_machine" [ "charon.mit.edu"; "styx.mit.edu"; "RT" ]);
  Alcotest.(check bool) "renamed" true
    (Moira.Lookup.machine_id t.Fix.mdb "STYX.MIT.EDU" <> None);
  Fix.expect_err "gone" Moira.Mr_err.machine
    (Fix.as_admin t "update_machine" [ "charon.mit.edu"; "x.mit.edu"; "RT" ])

let test_delete_machine_in_use () =
  let t = Fix.create () in
  (* NFS-1 has an nfsphys from the fixture *)
  Fix.expect_err "in use" Moira.Mr_err.in_use
    (Fix.as_admin t "delete_machine" [ "NFS-1.MIT.EDU" ]);
  ignore (Fix.must t "delete_machine" [ "W20-001.MIT.EDU" ]);
  Fix.expect_err "twice" Moira.Mr_err.machine
    (Fix.as_admin t "delete_machine" [ "W20-001.MIT.EDU" ])

let test_delete_machine_pobox_reference () =
  let t = Fix.create () in
  ignore (Fix.must t "set_pobox" [ "ann"; "POP"; "E40-PO.MIT.EDU" ]);
  Fix.expect_err "pobox machine" Moira.Mr_err.in_use
    (Fix.as_admin t "delete_machine" [ "E40-PO.MIT.EDU" ])

let test_cluster_lifecycle () =
  let t = Fix.create () in
  ignore (Fix.must t "add_cluster" [ "bldge40"; "E40 cluster"; "Bldg E40" ]);
  let rows = Fix.expect_ok "gclu" (Fix.as_user t "" "get_cluster" [ "bldg*" ]) in
  Alcotest.(check string) "desc" "E40 cluster" (List.nth (List.hd rows) 1);
  Fix.expect_err "dup" Moira.Mr_err.not_unique
    (Fix.as_admin t "add_cluster" [ "bldge40"; "x"; "y" ]);
  ignore (Fix.must t "update_cluster" [ "bldge40"; "bldge40-vs"; "d"; "l" ]);
  Alcotest.(check bool) "renamed" true
    (Moira.Lookup.cluster_id t.Fix.mdb "bldge40-vs" <> None)

let test_machine_cluster_map () =
  let t = Fix.create () in
  ignore (Fix.must t "add_cluster" [ "c1"; "d"; "l" ]);
  ignore (Fix.must t "add_machine_to_cluster" [ "W20-001.MIT.EDU"; "c1" ]);
  let rows =
    Fix.expect_ok "gmcm"
      (Fix.as_user t "" "get_machine_to_cluster_map" [ "W20*"; "*" ])
  in
  Alcotest.(check (list (list string))) "pair"
    [ [ "W20-001.MIT.EDU"; "c1" ] ]
    rows;
  Fix.expect_err "dup membership" Moira.Mr_err.exists
    (Fix.as_admin t "add_machine_to_cluster" [ "W20-001.MIT.EDU"; "c1" ]);
  (* cluster with machines cannot be deleted *)
  Fix.expect_err "cluster in use" Moira.Mr_err.in_use
    (Fix.as_admin t "delete_cluster" [ "c1" ]);
  ignore
    (Fix.must t "delete_machine_from_cluster" [ "W20-001.MIT.EDU"; "c1" ]);
  Fix.expect_err "delete twice" Moira.Mr_err.no_match
    (Fix.as_admin t "delete_machine_from_cluster" [ "W20-001.MIT.EDU"; "c1" ]);
  ignore (Fix.must t "delete_cluster" [ "c1" ])

let test_cluster_data () =
  let t = Fix.create () in
  ignore (Fix.must t "add_cluster" [ "c1"; "d"; "l" ]);
  ignore (Fix.must t "add_cluster_data" [ "c1"; "zephyr"; "Z1.MIT.EDU" ]);
  ignore (Fix.must t "add_cluster_data" [ "c1"; "syslib"; "c1-syslib" ]);
  Fix.expect_err "bad label" Moira.Mr_err.typ
    (Fix.as_admin t "add_cluster_data" [ "c1"; "nolabel"; "x" ]);
  let rows =
    Fix.expect_ok "gcld" (Fix.as_user t "" "get_cluster_data" [ "c1"; "*" ])
  in
  Alcotest.(check int) "two data" 2 (List.length rows);
  let rows =
    Fix.expect_ok "gcld by label"
      (Fix.as_user t "" "get_cluster_data" [ "*"; "zephyr" ])
  in
  Alcotest.(check int) "one zephyr" 1 (List.length rows);
  ignore (Fix.must t "delete_cluster_data" [ "c1"; "zephyr"; "Z1.MIT.EDU" ]);
  Fix.expect_err "gone" Moira.Mr_err.not_unique
    (Fix.as_admin t "delete_cluster_data" [ "c1"; "zephyr"; "Z1.MIT.EDU" ]);
  (* deleting the cluster removes its remaining data *)
  ignore (Fix.must t "delete_cluster" [ "c1" ]);
  Fix.expect_err "cluster gone" Moira.Mr_err.no_match
    (Fix.as_user t "" "get_cluster_data" [ "c1"; "*" ])

let test_cluster_requires_acl () =
  let t = Fix.create () in
  Fix.expect_err "ann can't add machines" Moira.Mr_err.perm
    (Fix.as_user t "ann" "add_machine" [ "EVIL.MIT.EDU"; "VAX" ])

let suite =
  [
    Alcotest.test_case "machine case insensitive" `Quick
      test_machine_case_insensitive;
    Alcotest.test_case "machines readable by anyone" `Quick
      test_machine_anyone_may_read;
    Alcotest.test_case "add_machine validation" `Quick
      test_add_machine_validation;
    Alcotest.test_case "update_machine" `Quick test_update_machine;
    Alcotest.test_case "delete_machine in use" `Quick
      test_delete_machine_in_use;
    Alcotest.test_case "pobox blocks machine delete" `Quick
      test_delete_machine_pobox_reference;
    Alcotest.test_case "cluster lifecycle" `Quick test_cluster_lifecycle;
    Alcotest.test_case "machine/cluster map" `Quick test_machine_cluster_map;
    Alcotest.test_case "cluster data" `Quick test_cluster_data;
    Alcotest.test_case "write needs ACL" `Quick test_cluster_requires_acl;
  ]
