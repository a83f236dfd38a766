(* The DCM file generators: content fidelity against the formats of
   paper section 5.8.2 (the example file contents). *)

(* Materialize the doc for string assertions.  [Sink.to_string] on a
   one-chunk doc returns the chunk itself, so the physical-sharing check
   below still observes the generator's own sharing. *)
let find_file files name =
  match List.assoc_opt name files with
  | Some c -> Dcm.Sink.to_string c
  | None -> Alcotest.failf "generator produced no %s" name

let lines s =
  String.split_on_char '\n' s |> List.filter (fun l -> l <> "")

let line_for prefix contents =
  match
    List.find_opt
      (fun l ->
        String.length l >= String.length prefix
        && String.sub l 0 (String.length prefix) = prefix)
      (lines contents)
  with
  | Some l -> l
  | None -> Alcotest.failf "no line starting with %S" prefix

(* a small world, built through the fixture *)
let build () =
  let t = Fix.create () in
  ignore
    (Fix.must t "add_server_info"
       [ "POP"; "0"; ""; ""; "UNIQUE"; "1"; "LIST"; "moira-admins" ]);
  ignore
    (Fix.must t "add_server_host_info"
       [ "POP"; "E40-PO.MIT.EDU"; "1"; "0"; "100"; "" ]);
  ignore (Fix.must t "set_pobox" [ "ann"; "POP"; "E40-PO.MIT.EDU" ]);
  ignore
    (Fix.must t "add_list"
       [ "video-users"; "1"; "1"; "0"; "1"; "0"; "-1"; "USER"; "ann";
         "video people" ]);
  ignore (Fix.must t "add_member_to_list" [ "video-users"; "USER"; "ann" ]);
  ignore (Fix.must t "add_member_to_list" [ "video-users"; "USER"; "bob" ]);
  ignore
    (Fix.must t "add_member_to_list"
       [ "video-users"; "STRING"; "rubin@media-lab.mit.edu" ]);
  ignore
    (Fix.must t "add_list"
       [ "annsgroup"; "1"; "0"; "0"; "0"; "1"; "10914"; "USER"; "ann"; "g" ]);
  ignore (Fix.must t "add_member_to_list" [ "annsgroup"; "USER"; "ann" ]);
  ignore
    (Fix.must t "add_printcap"
       [ "linus"; "CHARON.MIT.EDU"; "/usr/spool/printer/linus"; "linus";
         "" ]);
  ignore (Fix.must t "add_service" [ "smtp"; "TCP"; "25"; "mail" ]);
  ignore
    (Fix.must t "add_filesys"
       [ "aab"; "NFS"; "NFS-1.MIT.EDU"; "/u1/lockers/aab"; "/mit/aab"; "w";
         ""; "ann"; "annsgroup"; "1"; "PROJECT" ]);
  ignore (Fix.must t "add_nfs_quota" [ "aab"; "ann"; "300" ]);
  ignore
    (Fix.must t "add_server_info"
       [ "HESIOD"; "360"; "/tmp/h"; "h.sh"; "REPLICAT"; "1"; "LIST";
         "moira-admins" ]);
  ignore
    (Fix.must t "add_server_host_info"
       [ "HESIOD"; "SUOMI.MIT.EDU"; "1"; "0"; "0"; "" ]);
  ignore (Fix.must t "add_cluster" [ "bldge40-vs"; "d"; "E40" ]);
  ignore
    (Fix.must t "add_cluster_data"
       [ "bldge40-vs"; "zephyr"; "neskaya.mit.edu" ]);
  ignore (Fix.must t "add_cluster" [ "bldge40-rt"; "d"; "E40" ]);
  ignore (Fix.must t "add_cluster_data" [ "bldge40-rt"; "lpr"; "e40" ]);
  (* one machine in one cluster, one in two (pseudo-cluster case) *)
  ignore (Fix.must t "add_machine" [ "TOTO.MIT.EDU"; "RT" ]);
  ignore (Fix.must t "add_machine_to_cluster" [ "TOTO.MIT.EDU"; "bldge40-rt" ]);
  ignore (Fix.must t "add_machine" [ "SCARECROW.MIT.EDU"; "RT" ]);
  ignore
    (Fix.must t "add_machine_to_cluster" [ "SCARECROW.MIT.EDU"; "bldge40-rt" ]);
  ignore
    (Fix.must t "add_machine_to_cluster" [ "SCARECROW.MIT.EDU"; "bldge40-vs" ]);
  ignore
    (Fix.must t "add_zephyr_class"
       [ "message"; "LIST"; "video-users"; "NONE"; "NONE"; "NONE"; "NONE";
         "NONE"; "NONE" ]);
  t

let hesiod_files t = (Dcm.Gen_hesiod.generator.Dcm.Gen.generate t.Fix.glue).Dcm.Gen.common

let test_passwd_db_format () =
  let t = build () in
  let passwd = find_file (hesiod_files t) "passwd.db" in
  (* ann.passwd HS UNSPECA "ann:*:2001:101:Ann B Alpha,,,,:/mit/ann:/bin/csh" *)
  Alcotest.(check string) "paper format"
    "ann.passwd HS UNSPECA \"ann:*:2001:101:Ann B Alpha,,,,:/mit/ann:/bin/csh\""
    (line_for "ann.passwd" passwd)

let test_uid_db_cname () =
  let t = build () in
  let uid = find_file (hesiod_files t) "uid.db" in
  Alcotest.(check string) "cname to passwd entry"
    "2001.uid HS CNAME ann.passwd"
    (line_for "2001.uid" uid)

let test_pobox_db_format () =
  let t = build () in
  let pobox = find_file (hesiod_files t) "pobox.db" in
  Alcotest.(check string) "paper format"
    "ann.pobox HS UNSPECA \"POP E40-PO.MIT.EDU ann\""
    (line_for "ann.pobox" pobox)

let test_group_and_gid_db () =
  let t = build () in
  let files = hesiod_files t in
  Alcotest.(check string) "group entry"
    "annsgroup.group HS UNSPECA \"annsgroup:*:10914:\""
    (line_for "annsgroup.group" (find_file files "group.db"));
  Alcotest.(check string) "gid cname"
    "10914.gid HS CNAME annsgroup.group"
    (line_for "10914.gid" (find_file files "gid.db"))

let test_grplist_pairs () =
  let t = build () in
  let grplist = find_file (hesiod_files t) "grplist.db" in
  Alcotest.(check string) "name:gid pairs"
    "ann.grplist HS UNSPECA \"annsgroup:10914\""
    (line_for "ann.grplist" grplist)

let test_filsys_db_format () =
  let t = build () in
  let filsys = find_file (hesiod_files t) "filsys.db" in
  (* short lowercase hostname, as in the paper's "charon" example *)
  Alcotest.(check string) "paper format"
    "aab.filsys HS UNSPECA \"NFS /u1/lockers/aab nfs-1 w /mit/aab\""
    (line_for "aab.filsys" filsys)

let test_printcap_db_format () =
  let t = build () in
  let pcap = find_file (hesiod_files t) "printcap.db" in
  Alcotest.(check string) "paper format"
    "linus.pcap HS UNSPECA \"linus:rp=linus:rm=CHARON.MIT.EDU:sd=/usr/spool/printer/linus\""
    (line_for "linus.pcap" pcap)

let test_service_db_format () =
  let t = build () in
  let svc = find_file (hesiod_files t) "service.db" in
  Alcotest.(check string) "paper format"
    "smtp.service HS UNSPECA \"smtp tcp 25\""
    (line_for "smtp.service" svc)

let test_sloc_db_format () =
  let t = build () in
  let sloc = find_file (hesiod_files t) "sloc.db" in
  Alcotest.(check string) "paper format"
    "HESIOD.sloc HS UNSPECA SUOMI.MIT.EDU"
    (line_for "HESIOD.sloc" sloc)

let test_cluster_db_pseudo_cluster () =
  let t = build () in
  let cluster = find_file (hesiod_files t) "cluster.db" in
  (* single-cluster machine: CNAME straight to the cluster *)
  Alcotest.(check string) "plain cname"
    "TOTO.MIT.EDU.cluster HS CNAME bldge40-rt.cluster"
    (line_for "TOTO.MIT.EDU.cluster" cluster);
  (* dual-cluster machine: CNAME to a pseudo-cluster holding the union *)
  Alcotest.(check string) "pseudo cname"
    "SCARECROW.MIT.EDU.cluster HS CNAME scarecrow.mit.edu-pseudo.cluster"
    (line_for "SCARECROW.MIT.EDU.cluster" cluster);
  let pseudo_lines =
    List.filter
      (fun l ->
        String.length l > 30
        && String.sub l 0 30 = "scarecrow.mit.edu-pseudo.clust")
      (lines cluster)
  in
  Alcotest.(check int) "union of both clusters' data" 2
    (List.length pseudo_lines);
  (* and the parsed resolution sees the union *)
  let db = Hesiod.Hes_db.parse cluster in
  Alcotest.(check int) "resolve through pseudo" 2
    (List.length
       (Hesiod.Hes_db.resolve db ~name:"SCARECROW.MIT.EDU" ~ty:"cluster"))

let test_inactive_excluded () =
  let t = build () in
  (* deactivate bob: he must vanish from passwd/pobox extracts *)
  ignore (Fix.must t "update_user_status" [ "bob"; "3" ]);
  let files = hesiod_files t in
  let passwd = find_file files "passwd.db" in
  Alcotest.(check bool) "bob gone from passwd" false
    (List.exists
       (fun l -> String.length l > 3 && String.sub l 0 3 = "bob")
       (lines passwd));
  (* inactive list excluded from group.db *)
  ignore
    (Fix.must t "update_list"
       [ "annsgroup"; "annsgroup"; "0"; "0"; "0"; "0"; "1"; "10914"; "USER";
         "ann"; "g" ]);
  let files = hesiod_files t in
  let group = find_file files "group.db" in
  Alcotest.(check bool) "inactive group gone" false
    (List.exists
       (fun l ->
         String.length l > 9 && String.sub l 0 9 = "annsgroup")
       (lines group))

let test_mail_aliases_format () =
  let t = build () in
  let out = Dcm.Gen_mail.generator.Dcm.Gen.generate t.Fix.glue in
  let aliases = find_file out.Dcm.Gen.common "aliases" in
  Alcotest.(check string) "owner line"
    "owner-video-users: ann"
    (line_for "owner-video-users:" aliases);
  Alcotest.(check string) "membership line, sorted"
    "video-users: ann, bob, rubin@media-lab.mit.edu"
    (line_for "video-users:" aliases);
  Alcotest.(check string) "pobox forwarding"
    "ann: ann@E40-PO.LOCAL"
    (line_for "ann:" aliases)

let test_nfs_files () =
  let t = build () in
  let out = Dcm.Gen_nfs.generator.Dcm.Gen.generate t.Fix.glue in
  (* the fixture has no NFS serverhosts: nothing to build *)
  Alcotest.(check int) "no hosts, no files" 0
    (List.length out.Dcm.Gen.per_host);
  ignore
    (Fix.must t "add_server_info"
       [ "NFS"; "720"; "/t"; "nfs.sh"; "UNIQUE"; "1"; "LIST";
         "moira-admins" ]);
  ignore
    (Fix.must t "add_server_host_info"
       [ "NFS"; "NFS-1.MIT.EDU"; "1"; "0"; "0"; "" ]);
  let out = Dcm.Gen_nfs.generator.Dcm.Gen.generate t.Fix.glue in
  match out.Dcm.Gen.per_host with
  | [ (machine, files) ] ->
      Alcotest.(check string) "host" "NFS-1.MIT.EDU" machine;
      let creds = find_file files "credentials" in
      Alcotest.(check string) "login:uid:gids" "ann:2001:10914"
        (line_for "ann:" creds);
      let quotas = find_file files "u1_lockers.quotas" in
      Alcotest.(check string) "uid quota" "2001 300" (line_for "2001" quotas);
      let dirs = find_file files "u1_lockers.dirs" in
      Alcotest.(check string) "dir uid gid type"
        "/u1/lockers/aab 2001 10914 PROJECT"
        (line_for "/u1/lockers/aab" dirs)
  | _ -> Alcotest.fail "expected one host"

let test_nfs_credentials_restricted_by_value3 () =
  let t = build () in
  ignore
    (Fix.must t "add_server_info"
       [ "NFS"; "720"; "/t"; "nfs.sh"; "UNIQUE"; "1"; "LIST";
         "moira-admins" ]);
  (* value3 names a list: only its (recursive) members get credentials *)
  ignore
    (Fix.must t "add_server_host_info"
       [ "NFS"; "NFS-1.MIT.EDU"; "1"; "0"; "0"; "annsgroup" ]);
  let out = Dcm.Gen_nfs.generator.Dcm.Gen.generate t.Fix.glue in
  match out.Dcm.Gen.per_host with
  | [ (_, files) ] ->
      let creds = find_file files "credentials" in
      let ls = lines creds in
      Alcotest.(check int) "only ann" 1 (List.length ls);
      Alcotest.(check bool) "it is ann" true
        (String.sub (List.hd ls) 0 4 = "ann:")
  | _ -> Alcotest.fail "expected one host"

(* Hosts with an empty value3 all want the same all-active-users file;
   the generator must build it once per generation and hand every such
   host the very same string — while a value3-restricted host still gets
   its own. *)
let test_nfs_credentials_shared_across_hosts () =
  let t = build () in
  ignore
    (Fix.must t "add_server_info"
       [ "NFS"; "720"; "/t"; "nfs.sh"; "UNIQUE"; "1"; "LIST";
         "moira-admins" ]);
  ignore
    (Fix.must t "add_server_host_info"
       [ "NFS"; "NFS-1.MIT.EDU"; "1"; "0"; "0"; "" ]);
  ignore
    (Fix.must t "add_server_host_info"
       [ "NFS"; "SUOMI.MIT.EDU"; "1"; "0"; "0"; "" ]);
  ignore
    (Fix.must t "add_server_host_info"
       [ "NFS"; "CHARON.MIT.EDU"; "1"; "0"; "0"; "annsgroup" ]);
  let out = Dcm.Gen_nfs.generator.Dcm.Gen.generate t.Fix.glue in
  let creds machine =
    find_file (List.assoc machine out.Dcm.Gen.per_host) "credentials"
  in
  let a = creds "NFS-1.MIT.EDU" and b = creds "SUOMI.MIT.EDU" in
  Alcotest.(check string) "byte-identical across empty-value3 hosts" a b;
  Alcotest.(check bool) "built once, physically shared" true (a == b);
  (* and it really is the unrestricted build, not the restricted one *)
  Alcotest.(check string) "all active users present" "ann:2001:10914"
    (line_for "ann:" a);
  Alcotest.(check bool) "bob included" true
    (List.exists
       (fun l -> String.length l >= 4 && String.sub l 0 4 = "bob:")
       (lines a));
  let restricted = creds "CHARON.MIT.EDU" in
  Alcotest.(check bool) "value3 host keeps its own file" true
    (restricted <> a);
  Alcotest.(check int) "restricted to annsgroup" 1
    (List.length (lines restricted))

let test_zephyr_acl_files () =
  let t = build () in
  let out = Dcm.Gen_zephyr.generator.Dcm.Gen.generate t.Fix.glue in
  let acl = find_file out.Dcm.Gen.common "message.acl" in
  Alcotest.(check string) "expanded membership" "ann\nbob\n" acl;
  (* a NONE xmt ACL becomes the wildcard, as in the paper's example *)
  ignore
    (Fix.must t "add_zephyr_class"
       [ "open"; "NONE"; "NONE"; "NONE"; "NONE"; "NONE"; "NONE"; "NONE";
         "NONE" ]);
  let out = Dcm.Gen_zephyr.generator.Dcm.Gen.generate t.Fix.glue in
  Alcotest.(check string) "wildcard for NONE" "*.*@*\n"
    (find_file out.Dcm.Gen.common "open.acl")

let test_generated_files_parse_as_hesiod () =
  let t = build () in
  let files = hesiod_files t in
  List.iter
    (fun (name, contents) ->
      let contents = Dcm.Sink.to_string contents in
      let db = Hesiod.Hes_db.parse contents in
      let expected = List.length (lines contents) in
      (* every generated line must parse into a record *)
      let total =
        List.fold_left
          (fun acc l ->
            acc
            + (match Hesiod.Hes_db.parse l with
              | db -> Hesiod.Hes_db.size db))
          0 (lines contents)
      in
      Alcotest.(check int) (name ^ " all lines parse") expected total;
      ignore db)
    files

(* grplist.db and every NFS credentials file against lines built from
   [Gen_util.group_pairs_naive], on random membership graphs: nested
   lists and cycles, inactive and non-group lists, lists named after a
   user (own groups), shared gids, inactive users and users in no group,
   and an NFS host restricted to a value3 list. *)
type world = {
  w_active : bool array;  (* users u0..u5 *)
  w_lists : (bool * bool * bool * int) array;
      (* per list: named after its user, active, group, gid *)
  w_nested : (int * int) list;  (* list contains list *)
  w_users : (int * int) list;  (* list contains user: u0..u5, ann, bob *)
  w_value3 : int;
}

let n_users = 6
let n_lists = 8
let user_name i = if i < n_users then Printf.sprintf "u%d" i else if i = n_users then "ann" else "bob"
let list_name w i =
  let named, _, _, _ = w.w_lists.(i) in
  if named && i < n_users then user_name i else Printf.sprintf "l%d" i

let world_gen =
  QCheck.Gen.(
    let* w_active = array_repeat n_users (frequency [ (4, return true); (1, return false) ]) in
    let* w_lists =
      array_repeat n_lists
        (quad bool (frequency [ (4, return true); (1, return false) ])
           (frequency [ (3, return true); (1, return false) ])
           (int_range 500 503))
    in
    let* w_nested =
      list_size (int_range 0 10) (pair (int_range 0 (n_lists - 1)) (int_range 0 (n_lists - 1)))
    in
    let* w_users =
      list_size (int_range 0 16) (pair (int_range 0 (n_lists - 1)) (int_range 0 (n_users + 1)))
    in
    let* w_value3 = int_range 0 (n_lists - 1) in
    return { w_active; w_lists; w_nested; w_users; w_value3 })

let print_world w =
  let b = Buffer.create 256 in
  Array.iteri (fun i a -> Printf.bprintf b "u%d%s " i (if a then "" else "(inactive)")) w.w_active;
  Array.iteri
    (fun i (_, active, group, gid) ->
      Printf.bprintf b "\n%s active=%b group=%b gid=%d" (list_name w i) active group gid)
    w.w_lists;
  List.iter (fun (a, c) -> Printf.bprintf b "\n%s > %s" (list_name w a) (list_name w c)) w.w_nested;
  List.iter (fun (a, u) -> Printf.bprintf b "\n%s > %s" (list_name w a) (user_name u)) w.w_users;
  Printf.bprintf b "\nvalue3 %s" (list_name w w.w_value3);
  Buffer.contents b

let build_world w =
  let t = Fix.create () in
  let one v = if v then "1" else "0" in
  Array.iteri
    (fun i active ->
      ignore
        (Fix.must t "add_user"
           [ user_name i; string_of_int (3000 + i); "/bin/sh"; "L"; "F"; "";
             (if active then "1" else "3"); "x"; "1990" ]))
    w.w_active;
  Array.iteri
    (fun i (_, active, group, gid) ->
      ignore
        (Fix.must t "add_list"
           [ list_name w i; one active; "0"; "0"; "0"; one group;
             (if group then string_of_int gid else "-1"); "NONE"; "NONE"; "d" ]))
    w.w_lists;
  (* an edge the query layer refuses (a duplicate) is simply not made *)
  let add l ty m = ignore (Moira.Glue.query t.Fix.glue ~name:"add_member_to_list" [ l; ty; m ]) in
  List.iter (fun (a, c) -> add (list_name w a) "LIST" (list_name w c)) w.w_nested;
  List.iter (fun (a, u) -> add (list_name w a) "USER" (user_name u)) w.w_users;
  ignore
    (Fix.must t "add_server_info"
       [ "NFS"; "720"; "/t"; "nfs.sh"; "UNIQUE"; "1"; "LIST"; "moira-admins" ]);
  ignore
    (Fix.must t "add_server_host_info" [ "NFS"; "NFS-1.MIT.EDU"; "1"; "0"; "0"; "" ]);
  ignore
    (Fix.must t "add_server_host_info"
       [ "NFS"; "CHARON.MIT.EDU"; "1"; "0"; "0"; list_name w w.w_value3 ]);
  t

(* (login, uid, naive pairs) for every active user, in login order *)
let naive_groups t =
  let utbl = Moira.Mdb.table t.Fix.mdb "users" in
  Relation.Table.select utbl (Relation.Pred.eq_int "status" 1)
  |> List.map (fun (_, row) ->
         let f c = Relation.Table.field utbl row c in
         let login = Relation.Value.str (f "login") in
         ( login,
           Relation.Value.int (f "uid"),
           Dcm.Gen_util.group_pairs_naive t.Fix.mdb
             ~users_id:(Relation.Value.int (f "users_id")) ~login ))
  |> List.sort compare

let join lines = String.concat "" (List.map (fun l -> l ^ "\n") lines)

let prop_group_files_match_naive =
  QCheck.Test.make ~name:"grplist.db and credentials match the naive walk" ~count:60
    (QCheck.make ~print:print_world world_gen)
    (fun w ->
      let t = build_world w in
      let naive = naive_groups t in
      let grplist =
        List.filter_map
          (fun (login, _, pairs) ->
            if pairs = [] then None
            else
              Some
                (Hesiod.Hes_db.format_unspeca ~key:(login ^ ".grplist")
                   (String.concat ":"
                      (List.map (fun (n, g) -> Printf.sprintf "%s:%d" n g) pairs))))
          naive
        |> List.sort String.compare |> join
      in
      let credentials admitted =
        List.filter_map
          (fun (login, uid, pairs) ->
            if admitted login then
              Some
                (String.concat ":"
                   (login :: string_of_int uid
                   :: List.map (fun (_, g) -> string_of_int g) pairs))
            else None)
          naive
        |> List.sort String.compare |> join
      in
      let members =
        Moira.Acl.expand_users_naive t.Fix.mdb
          ~list_id:(Option.get (Moira.Lookup.list_id t.Fix.mdb (list_name w w.w_value3)))
      in
      let part =
        List.find
          (fun p -> p.Dcm.Gen.pname = "grplist")
          Dcm.Gen_hesiod.generator.Dcm.Gen.parts
      in
      let keyed, _ = (Option.get part.Dcm.Gen.pincr) t.Fix.glue None in
      let nfs = Dcm.Gen_nfs.generator.Dcm.Gen.generate t.Fix.glue in
      let creds machine = find_file (List.assoc machine nfs.Dcm.Gen.per_host) "credentials" in
      let check what want got =
        want = got || QCheck.Test.fail_reportf "%s:\nwant\n%s\ngot\n%s" what want got
      in
      check "grplist.db (keyed)" grplist (find_file keyed.Dcm.Gen.common "grplist.db")
      && check "credentials" (credentials (fun _ -> true)) (creds "NFS-1.MIT.EDU")
      && check "credentials (value3)"
           (credentials (fun l -> List.mem l members))
           (creds "CHARON.MIT.EDU"))

let suite =
  [
    Alcotest.test_case "passwd.db format" `Quick test_passwd_db_format;
    Alcotest.test_case "uid.db cname" `Quick test_uid_db_cname;
    Alcotest.test_case "pobox.db format" `Quick test_pobox_db_format;
    Alcotest.test_case "group/gid.db" `Quick test_group_and_gid_db;
    Alcotest.test_case "grplist pairs" `Quick test_grplist_pairs;
    Alcotest.test_case "filsys.db format" `Quick test_filsys_db_format;
    Alcotest.test_case "printcap.db format" `Quick test_printcap_db_format;
    Alcotest.test_case "service.db format" `Quick test_service_db_format;
    Alcotest.test_case "sloc.db format" `Quick test_sloc_db_format;
    Alcotest.test_case "pseudo-clusters" `Quick
      test_cluster_db_pseudo_cluster;
    Alcotest.test_case "inactive excluded" `Quick test_inactive_excluded;
    Alcotest.test_case "aliases format" `Quick test_mail_aliases_format;
    Alcotest.test_case "NFS files" `Quick test_nfs_files;
    Alcotest.test_case "credentials via value3" `Quick
      test_nfs_credentials_restricted_by_value3;
    Alcotest.test_case "credentials shared across hosts" `Quick
      test_nfs_credentials_shared_across_hosts;
    Alcotest.test_case "zephyr acl files" `Quick test_zephyr_acl_files;
    Alcotest.test_case "all hesiod lines parse" `Quick
      test_generated_files_parse_as_hesiod;
    QCheck_alcotest.to_alcotest prop_group_files_match_naive;
  ]
