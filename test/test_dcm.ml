(* The Data Control Manager (section 5.7): scheduling, incremental
   generation, propagation, error handling, notifications. *)

open Workload

let find_service report name =
  List.find
    (fun s -> s.Dcm.Manager.service = name)
    report.Dcm.Manager.services

let gen_of report name = (find_service report name).Dcm.Manager.gen

(* Byte comparison of generator outputs, not structural: docs carry
   caching fields (chunk layout, checksum memos) that legitimately
   differ between a spliced and a fresh build of the same bytes. *)
let files_equal fa fb =
  List.length fa = List.length fb
  && List.for_all2
       (fun (na, da) (nb, db) -> na = nb && Dcm.Sink.equal da db)
       fa fb

let outputs_equal a b =
  files_equal a.Dcm.Gen.common b.Dcm.Gen.common
  && List.length a.Dcm.Gen.per_host = List.length b.Dcm.Gen.per_host
  && List.for_all2
       (fun (ma, fa) (mb, fb) -> ma = mb && files_equal fa fb)
       a.Dcm.Gen.per_host b.Dcm.Gen.per_host

let test_first_run_generates_everything () =
  let tb = Testbed.create () in
  let report = Dcm.Manager.run tb.Testbed.dcm in
  Alcotest.(check bool) "not disabled" false report.Dcm.Manager.disabled;
  List.iter
    (fun svc ->
      match gen_of report svc with
      | Dcm.Manager.Generated bytes ->
          Alcotest.(check bool) (svc ^ " nonempty") true (bytes > 0)
      | _ -> Alcotest.failf "%s not generated on first run" svc)
    [ "HESIOD"; "NFS"; "MAIL"; "ZEPHYR" ];
  (* every enabled host updated *)
  let hesiod = find_service report "HESIOD" in
  Alcotest.(check int) "hesiod hosts" 1 (List.length hesiod.Dcm.Manager.hosts)

let test_no_change_suppression () =
  let tb = Testbed.create () in
  ignore (Dcm.Manager.run tb.Testbed.dcm);
  (* advance past every interval with no data changes (move the clock
     directly so the cron does not run in between) *)
  Sim.Engine.advance tb.Testbed.engine (49 * 3600 * 1000);
  let report = Dcm.Manager.run tb.Testbed.dcm in
  List.iter
    (fun svc ->
      match gen_of report svc with
      | Dcm.Manager.No_change -> ()
      | Dcm.Manager.Generated _ -> Alcotest.failf "%s regenerated" svc
      | _ -> Alcotest.failf "%s unexpected result" svc)
    [ "HESIOD"; "NFS"; "MAIL"; "ZEPHYR" ]

let test_interval_respected () =
  let tb = Testbed.create () in
  ignore (Dcm.Manager.run tb.Testbed.dcm);
  (* make a change (in a later clock second than the generation), but
     call the DCM again immediately: hesiod's 6 hour interval has not
     elapsed *)
  Sim.Engine.advance tb.Testbed.engine 60_000;
  ignore
    (Moira.Glue.query tb.Testbed.glue ~name:"update_user_shell"
       [ tb.Testbed.built.Population.logins.(0); "/bin/newsh" ]);
  let report = Dcm.Manager.run tb.Testbed.dcm in
  (match gen_of report "HESIOD" with
  | Dcm.Manager.Not_due -> ()
  | _ -> Alcotest.fail "ran before the interval elapsed");
  (* after 6+ hours it is due and sees the change *)
  Sim.Engine.advance tb.Testbed.engine (7 * 3600 * 1000);
  let report = Dcm.Manager.run tb.Testbed.dcm in
  match gen_of report "HESIOD" with
  | Dcm.Manager.Generated _ -> ()
  | _ -> Alcotest.fail "change not picked up when due"

let test_change_in_one_service_only () =
  let tb = Testbed.create () in
  ignore (Dcm.Manager.run tb.Testbed.dcm);
  Sim.Engine.advance tb.Testbed.engine (30 * 3600 * 1000);
  (* a zephyr-only change: add a class *)
  ignore
    (Moira.Glue.query tb.Testbed.glue ~name:"add_zephyr_class"
       [ "newclass"; "NONE"; "NONE"; "NONE"; "NONE"; "NONE"; "NONE"; "NONE";
         "NONE" ]);
  Sim.Engine.advance tb.Testbed.engine 3_600_000;
  let report = Dcm.Manager.run tb.Testbed.dcm in
  (match gen_of report "ZEPHYR" with
  | Dcm.Manager.Generated _ -> ()
  | _ -> Alcotest.fail "zephyr change missed");
  (* NFS and MAIL untouched by a zephyr class *)
  match gen_of report "NFS" with
  | Dcm.Manager.No_change -> ()
  | _ -> Alcotest.fail "NFS rebuilt for a zephyr change"

let test_hesiod_end_to_end () =
  let tb = Testbed.create () in
  Testbed.run_hours tb 7;
  (* every active user resolvable through the hesiod server *)
  let hes_machine, _ = Testbed.first_hesiod tb in
  let login = tb.Testbed.built.Population.logins.(7) in
  let ws = tb.Testbed.built.Population.workstation_machines.(0) in
  match
    Hesiod.Hes_server.resolve tb.Testbed.net ~src:ws ~server:hes_machine
      ~name:login ~ty:"passwd"
  with
  | Ok [ line ] ->
      Alcotest.(check bool) "passwd line" true
        (String.length line > String.length login
        && String.sub line 0 (String.length login) = login)
  | _ -> Alcotest.fail "user not resolvable in hesiod"

let test_change_propagates_to_hesiod () =
  let tb = Testbed.create () in
  Testbed.run_hours tb 7;
  let login = tb.Testbed.built.Population.logins.(0) in
  ignore
    (Moira.Glue.query tb.Testbed.glue ~name:"update_user_shell"
       [ login; "/bin/distinctive" ]);
  Testbed.run_hours tb 7;
  let _, hes = Testbed.first_hesiod tb in
  match Hesiod.Hes_server.resolve_local hes ~name:login ~ty:"passwd" with
  | [ line ] ->
      let suffix = "/bin/distinctive" in
      let n = String.length line and m = String.length suffix in
      Alcotest.(check string) "new shell visible" suffix
        (String.sub line (n - m) m)
  | _ -> Alcotest.fail "resolve"

let test_host_down_soft_fail_and_retry () =
  let tb = Testbed.create () in
  let hes_machine, _ = Testbed.first_hesiod tb in
  Netsim.Host.crash (Testbed.host tb hes_machine);
  Sim.Engine.advance tb.Testbed.engine (7 * 3600 * 1000);
  let report = Dcm.Manager.run tb.Testbed.dcm in
  let hesiod = find_service report "HESIOD" in
  (match hesiod.Dcm.Manager.hosts with
  | [ (m, Dcm.Manager.Soft_failed _) ] ->
      Alcotest.(check string) "the hesiod host" hes_machine m
  | _ -> Alcotest.fail "expected one soft failure");
  (* recovery: host boots, next DCM run retries and succeeds with NO new
     generation *)
  Netsim.Host.boot (Testbed.host tb hes_machine);
  Sim.Engine.advance tb.Testbed.engine (7 * 3600 * 1000);
  let report = Dcm.Manager.run tb.Testbed.dcm in
  let hesiod = find_service report "HESIOD" in
  match hesiod.Dcm.Manager.hosts with
  | [ (_, Dcm.Manager.Updated _) ] -> ()
  | _ -> Alcotest.fail "retry did not update"

let test_hard_error_disables_and_notifies () =
  let tb = Testbed.create () in
  (* one full day so the aliases file reaches the mail hub and the
     failure mail below can be routed *)
  Testbed.run_hours tb 25;
  (* break the install script on the hesiod host: unregister and replace
     with nothing, making EXEC fail hard *)
  let hes_machine, _ = Testbed.first_hesiod tb in
  let host = Testbed.host tb hes_machine in
  Netsim.Host.register host ~service:"moira_update" (fun ~src:_ _ ->
      Gdb.Wire.encode_reply
        {
          Gdb.Wire.rversion = Gdb.Wire.protocol_version;
          code = Moira.Mr_err.update_script;
          tuples = [ [ "exec format error" ] ];
        });
  (* the host is already current after the initial day: force a push *)
  ignore
    (Moira.Glue.query tb.Testbed.glue ~name:"set_server_host_override"
       [ "HESIOD"; hes_machine ]);
  Sim.Engine.advance tb.Testbed.engine (7 * 3600 * 1000);
  let report = Dcm.Manager.run tb.Testbed.dcm in
  let hesiod = find_service report "HESIOD" in
  (match hesiod.Dcm.Manager.hosts with
  | [ (_, Dcm.Manager.Hard_failed _) ] -> ()
  | _ -> Alcotest.fail "expected hard failure");
  (* hosterror recorded in the database *)
  let rows =
    match
      Moira.Glue.query tb.Testbed.glue ~name:"get_server_host_info"
        [ "HESIOD"; "*" ]
    with
    | Ok rows -> rows
    | Error c -> Alcotest.fail (Comerr.Com_err.error_message c)
  in
  Alcotest.(check bool) "hosterror set" true
    (int_of_string (List.nth (List.hd rows) 6) <> 0);
  (* HESIOD is replicated: the hard error also stops the service *)
  let srows =
    match
      Moira.Glue.query tb.Testbed.glue ~name:"get_server_info" [ "HESIOD" ]
    with
    | Ok rows -> rows
    | Error c -> Alcotest.fail (Comerr.Com_err.error_message c)
  in
  Alcotest.(check bool) "service harderror set" true
    (int_of_string (List.nth (List.hd srows) 9) <> 0);
  (* a zephyrgram reached class MOIRA instance DCM *)
  let _, z = List.hd tb.Testbed.zephyrs in
  let notices = Zephyr.notices_for z ~cls:"MOIRA" in
  Alcotest.(check bool) "zephyr notification" true (List.length notices >= 1);
  (match notices with
  | n :: _ -> Alcotest.(check string) "instance DCM" "DCM" n.Zephyr.instance
  | [] -> ());
  (* ...and the mail copy reached the maintainers' list member *)
  let ws0 = tb.Testbed.built.Population.workstation_machines.(0) in
  (match
     Testbed.read_mail tb ~ws:ws0 ~login:tb.Testbed.built.Population.admin
   with
  | Ok msgs ->
      Alcotest.(check bool) "failure mail delivered" true
        (List.exists
           (fun m ->
             m.Pop.Pop_server.sender = "moira"
             && String.length m.Pop.Pop_server.body > 0)
           msgs)
  | Error f -> Alcotest.fail (Netsim.Net.failure_to_string f));
  (* with a hard error the service is skipped until reset *)
  Sim.Engine.advance tb.Testbed.engine (7 * 3600 * 1000);
  let report = Dcm.Manager.run tb.Testbed.dcm in
  (match gen_of report "HESIOD" with
  | Dcm.Manager.Not_due -> ()
  | _ -> Alcotest.fail "hard-errored service not skipped");
  (* operator resets; service resumes *)
  ignore
    (Moira.Glue.query tb.Testbed.glue ~name:"reset_server_error" [ "HESIOD" ]);
  ignore
    (Moira.Glue.query tb.Testbed.glue ~name:"reset_server_host_error"
       [ "HESIOD"; hes_machine ]);
  (* restore a working update server *)
  let up = Dcm.Update.serve host in
  Dcm.Update.register_script up ~name:"hesiod.sh"
    (Dcm.Update.install_files host ~dir:"/etc/hesiod" ());
  Sim.Engine.advance tb.Testbed.engine (7 * 3600 * 1000);
  let report = Dcm.Manager.run tb.Testbed.dcm in
  let hesiod = find_service report "HESIOD" in
  match hesiod.Dcm.Manager.hosts with
  | [ (_, Dcm.Manager.Updated _) ] -> ()
  | _ -> Alcotest.fail "service did not resume after reset"

let test_override_forces_update () =
  let tb = Testbed.create () in
  Testbed.run_hours tb 7;
  (* all up to date; an override pushes anyway on the next run *)
  let hes_machine, _ = Testbed.first_hesiod tb in
  ignore
    (Moira.Glue.query tb.Testbed.glue ~name:"set_server_host_override"
       [ "HESIOD"; hes_machine ]);
  let report = Dcm.Manager.run tb.Testbed.dcm in
  let hesiod = find_service report "HESIOD" in
  (match hesiod.Dcm.Manager.hosts with
  | [ (_, Dcm.Manager.Updated _) ] -> ()
  | _ -> Alcotest.fail "override ignored");
  (* override cleared after success *)
  let rows =
    match
      Moira.Glue.query tb.Testbed.glue ~name:"get_server_host_info"
        [ "HESIOD"; "*" ]
    with
    | Ok rows -> rows
    | Error c -> Alcotest.fail (Comerr.Com_err.error_message c)
  in
  Alcotest.(check string) "override cleared" "0" (List.nth (List.hd rows) 3)

let test_nodcm_file_disables () =
  let tb = Testbed.create () in
  let moira = Testbed.host tb tb.Testbed.built.Population.moira_machine in
  Netsim.Vfs.write (Netsim.Host.fs moira) ~path:"/etc/nodcm" "";
  let report = Dcm.Manager.run tb.Testbed.dcm in
  Alcotest.(check bool) "disabled" true report.Dcm.Manager.disabled;
  Alcotest.(check int) "nothing done" 0
    (List.length report.Dcm.Manager.services)

let test_moira_host_down_stops_dcm () =
  let tb = Testbed.create () in
  Netsim.Host.crash
    (Testbed.host tb tb.Testbed.built.Population.moira_machine);
  let report = Dcm.Manager.run tb.Testbed.dcm in
  Alcotest.(check bool) "no DCM while the host is down" true
    report.Dcm.Manager.disabled

let test_dcm_enable_value () =
  let tb = Testbed.create () in
  Moira.Mdb.set_value tb.Testbed.mdb "dcm_enable" 0;
  let report = Dcm.Manager.run tb.Testbed.dcm in
  Alcotest.(check bool) "disabled by value" true report.Dcm.Manager.disabled

let test_disabled_service_skipped () =
  let tb = Testbed.create () in
  ignore
    (Moira.Glue.query tb.Testbed.glue ~name:"update_server_info"
       [ "MAIL"; "1440"; "/tmp/mail.out"; "mail.sh"; "UNIQUE"; "0"; "LIST";
         "moira-admins" ]);
  let report = Dcm.Manager.run tb.Testbed.dcm in
  match gen_of report "MAIL" with
  | Dcm.Manager.Not_due -> ()
  | _ -> Alcotest.fail "disabled service ran"

let test_trigger_dcm_via_rpc () =
  let tb = Testbed.create () in
  let ws = tb.Testbed.built.Population.workstation_machines.(0) in
  let c = Testbed.admin_client tb ~src:ws in
  let before = List.length (Dcm.Manager.reports tb.Testbed.dcm) in
  (match
     Moira.Mr_client.mr_query c ~name:"trigger_dcm" [] ~callback:(fun _ -> ())
   with
  | 0 -> ()
  | code -> Alcotest.fail (Comerr.Com_err.error_message code));
  Alcotest.(check int) "a run happened" (before + 1)
    (List.length (Dcm.Manager.reports tb.Testbed.dcm))

let test_nfs_per_host_files () =
  let tb = Testbed.create () in
  Testbed.run_hours tb 13;
  (* each NFS server received credentials + per-partition files *)
  Array.iter
    (fun m ->
      let fs = Netsim.Host.fs (Testbed.host tb m) in
      Alcotest.(check bool) (m ^ " credentials") true
        (Netsim.Vfs.exists fs ~path:"/var/moira/credentials");
      Alcotest.(check bool) (m ^ " quotas") true
        (Netsim.Vfs.exists fs ~path:"/var/moira/u1_lockers.quotas"))
    tb.Testbed.built.Population.nfs_machines

(* NFS files are keyed by machine name: renaming an NFS server must
   regenerate them under the new name, not report MR_NO_CHANGE. *)
let test_nfs_machine_rename () =
  let tb = Testbed.create () in
  ignore (Dcm.Manager.run tb.Testbed.dcm);
  Sim.Engine.advance tb.Testbed.engine 60_000;
  let old_name = tb.Testbed.built.Population.nfs_machines.(0) in
  (match
     Moira.Glue.query tb.Testbed.glue ~name:"update_machine"
       [ old_name; old_name ^ "X"; "VAX" ]
   with
  | Ok _ -> ()
  | Error c -> Alcotest.failf "update_machine: %s" (Comerr.Com_err.error_message c));
  Sim.Engine.advance tb.Testbed.engine (13 * 3600 * 1000);
  ignore (Dcm.Manager.run tb.Testbed.dcm);
  let last = Option.get (Dcm.Manager.last_output tb.Testbed.dcm ~service:"NFS") in
  let fresh = Dcm.Gen_nfs.generator.Dcm.Gen.generate tb.Testbed.glue in
  Alcotest.(check bool) "renamed host keyed by its new name" true
    (List.mem_assoc (old_name ^ "X") fresh.Dcm.Gen.per_host);
  Alcotest.(check bool) "last output = full extraction" true
    (outputs_equal last fresh)

let test_nfs_lockers_created () =
  let tb = Testbed.create () in
  Testbed.run_hours tb 13;
  (* every active user's homedir locker was created on some NFS server *)
  let login = tb.Testbed.built.Population.logins.(0) in
  let created =
    Array.exists
      (fun m ->
        let fs = Netsim.Host.fs (Testbed.host tb m) in
        List.exists
          (fun path ->
            Filename.basename (Filename.dirname path) = login
            && Filename.basename path = ".dirinfo")
          (Netsim.Vfs.list fs))
      tb.Testbed.built.Population.nfs_machines
  in
  Alcotest.(check bool) "locker created" true created

let test_mail_aliases_on_hub () =
  let tb = Testbed.create () in
  Testbed.run_hours tb 25;
  let hub = Testbed.host tb tb.Testbed.built.Population.mail_hub in
  match Netsim.Vfs.read (Netsim.Host.fs hub) ~path:"/usr/lib/aliases" with
  | Some contents ->
      let ml = tb.Testbed.built.Population.maillist_names.(0) in
      let contains needle hay =
        let n = String.length needle and h = String.length hay in
        let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "maillist present" true
        (contains (ml ^ ":") contents);
      Alcotest.(check bool) "pobox forwarding present" true
        (contains (tb.Testbed.built.Population.logins.(0) ^ ":") contents)
  | None -> Alcotest.fail "aliases not delivered"

let test_zephyr_acls_installed () =
  let tb = Testbed.create () in
  Testbed.run_hours tb 25;
  List.iter
    (fun (_, z) ->
      Alcotest.(check bool) "classes loaded" true
        (List.length (Zephyr.acl_classes z)
        >= tb.Testbed.built.Population.spec.Population.zephyr_classes))
    tb.Testbed.zephyrs

(* Section 5.9 case C: the Moira machine (and so the DCM) crashes; a
   restarted DCM finds the data files of earlier generations on disk and
   resumes pushing stale hosts without regenerating. *)
let test_dcm_restart_resumes_from_spool () =
  let tb = Testbed.create () in
  Sim.Engine.advance tb.Testbed.engine (7 * 3600 * 1000);
  (* a host misses the first round *)
  let hes_machine, _ = Testbed.first_hesiod tb in
  Netsim.Host.crash (Testbed.host tb hes_machine);
  ignore (Dcm.Manager.run tb.Testbed.dcm);
  Netsim.Host.boot (Testbed.host tb hes_machine);
  (* the DCM "crashes": a brand-new manager over the same host + db *)
  let dcm2 =
    Dcm.Manager.create ~net:tb.Testbed.net
      ~moira_host:tb.Testbed.built.Population.moira_machine
      ~glue:tb.Testbed.glue ()
  in
  Sim.Engine.advance tb.Testbed.engine (10 * 60 * 1000);
  let report = Dcm.Manager.run dcm2 in
  let hesiod = find_service report "HESIOD" in
  (* generation was NOT due (interval not elapsed, and nothing changed),
     yet the retry still succeeded using the spooled files *)
  (match hesiod.Dcm.Manager.gen with
  | Dcm.Manager.Not_due | Dcm.Manager.No_change -> ()
  | _ -> Alcotest.fail "restarted DCM regenerated unnecessarily");
  match hesiod.Dcm.Manager.hosts with
  | [ (_, Dcm.Manager.Updated _) ] -> ()
  | _ -> Alcotest.fail "restarted DCM did not resume the push"

(* The spool holds each member as its doc's chunks: a restarted DCM
   reads the output back byte for byte, and after a generation whose
   docs have fewer chunks the spool holds exactly the chunk files its
   index names.  HESIOD's output is cut into [piece]-byte chunks, so
   every member spans several. *)
let test_spool_chunks_round_trip () =
  let tb = Testbed.create () in
  let piece = ref 100 in
  let rechunk d =
    let s = Dcm.Sink.to_string d in
    Dcm.Sink.concat
      (List.init
         ((String.length s + !piece - 1) / !piece)
         (fun i ->
           Dcm.Sink.of_string
             (String.sub s (i * !piece) (min !piece (String.length s - (i * !piece))))))
  in
  let hesiod =
    {
      Dcm.Gen_hesiod.generator with
      Dcm.Gen.generate =
        (fun glue ->
          let out = Dcm.Gen_hesiod.generator.Dcm.Gen.generate glue in
          { out with Dcm.Gen.common = List.map (fun (n, d) -> (n, rechunk d)) out.Dcm.Gen.common });
      parts = [];
    }
  in
  let dcm () =
    Dcm.Manager.create ~net:tb.Testbed.net
      ~moira_host:tb.Testbed.built.Population.moira_machine
      ~glue:tb.Testbed.glue ~generators:[ hesiod ] ()
  in
  let dcm1 = dcm () in
  ignore (Dcm.Manager.run dcm1);
  Sim.Engine.advance tb.Testbed.engine 60_000;
  ignore
    (Moira.Glue.query tb.Testbed.glue ~name:"update_user_shell"
       [ tb.Testbed.built.Population.logins.(0); "/bin/spooled" ]);
  Sim.Engine.advance tb.Testbed.engine (7 * 3600 * 1000);
  piece := 1000;
  ignore (Dcm.Manager.run dcm1);
  let before = Option.get (Dcm.Manager.last_output dcm1 ~service:"HESIOD") in
  let after = Option.get (Dcm.Manager.last_output (dcm ()) ~service:"HESIOD") in
  Alcotest.(check bool) "read back from the spool" true (outputs_equal before after);
  let fs = Netsim.Host.fs (Testbed.host tb tb.Testbed.built.Population.moira_machine) in
  let dir = "/u1/sms/dcm/HESIOD.d/" in
  let index =
    Option.get (Netsim.Vfs.read fs ~path:(dir ^ "_index"))
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l -> Scanf.sscanf l "%d %s" (fun c n -> (n, c)))
  in
  Alcotest.(check bool) "members span several chunks" true
    (List.exists (fun (_, c) -> c > 1) index);
  let expected =
    (dir ^ "_index")
    :: List.concat_map
         (fun (n, c) -> List.init c (fun k -> Printf.sprintf "%s%s/%d" dir n k))
         index
  in
  Alcotest.(check (list string)) "spool files = the index's chunks"
    (List.sort compare expected)
    (List.sort compare
       (List.filter (String.starts_with ~prefix:dir) (Netsim.Vfs.list fs)))

(* File-grain MR_NO_CHANGE: one user's shell change must rebuild only
   the HESIOD parts that watch the users relation, splice the rest from
   the previous generation, leave the merged output byte-identical to a
   fresh full extraction — and ship only a delta on the wire. *)
let test_file_grain_single_user_change () =
  let tb = Testbed.create () in
  let report0 = Dcm.Manager.run tb.Testbed.dcm in
  let wire_bytes hes =
    List.fold_left
      (fun acc -> function
        | _, Dcm.Manager.Updated { bytes; _ } -> acc + bytes
        | _ -> acc)
      0 hes.Dcm.Manager.hosts
  in
  let full_bytes = wire_bytes (find_service report0 "HESIOD") in
  Alcotest.(check bool) "initial push nonempty" true (full_bytes > 0);
  Sim.Engine.advance tb.Testbed.engine 60_000;
  ignore
    (Moira.Glue.query tb.Testbed.glue ~name:"update_user_shell"
       [ tb.Testbed.built.Population.logins.(0); "/bin/grain" ]);
  Sim.Engine.advance tb.Testbed.engine (7 * 3600 * 1000);
  let report = Dcm.Manager.run tb.Testbed.dcm in
  let hes = find_service report "HESIOD" in
  (match hes.Dcm.Manager.gen with
  | Dcm.Manager.Generated _ -> ()
  | _ -> Alcotest.fail "HESIOD not regenerated");
  (* only the user-watching files rebuilt; the rest spliced *)
  Alcotest.(check bool) "something rebuilt" true
    (hes.Dcm.Manager.rebuilt <> []);
  List.iter
    (fun p ->
      Alcotest.(check bool) (p ^ " watches users") true
        (List.mem p [ "passwd"; "pobox"; "grplist" ]))
    hes.Dcm.Manager.rebuilt;
  Alcotest.(check bool) "most parts spliced" true (hes.Dcm.Manager.spliced >= 6);
  (* splicing is invisible in the output: merged equals a fresh full run *)
  let merged =
    Option.get (Dcm.Manager.last_output tb.Testbed.dcm ~service:"HESIOD")
  in
  let fresh = Dcm.Gen_hesiod.generator.Dcm.Gen.generate tb.Testbed.glue in
  Alcotest.(check bool) "merged output = full extraction" true
    (outputs_equal merged fresh);
  (* and the wire carried a delta, not the archive *)
  let delta_bytes = wire_bytes hes in
  Alcotest.(check bool)
    (Printf.sprintf "delta %d < 10%% of full %d" delta_bytes full_bytes)
    true
    (delta_bytes > 0 && delta_bytes * 10 < full_bytes)

(* A keyed state splices only under a spec with its table and file
   names, compared by value: an equal spec made afresh splices, and a
   spec for other files over the same table builds in full. *)
let test_keyed_state_owner () =
  let tb = Testbed.create () in
  let counter name =
    Option.value (Obs.find_counter Obs.default name) ~default:0
  in
  let users () = Moira.Mdb.table tb.Testbed.mdb "users" in
  let line row =
    Relation.Value.str (Relation.Table.field (users ()) row "login")
  in
  let spec files =
    {
      Dcm.Keyed.sk_table = "users";
      sk_files = files;
      sk_full =
        (fun _ ~emit ->
          Relation.Table.iter (users ()) (fun rowid row ->
              let l = line row in
              emit ~rowid 0 l (l ^ "\n")));
      sk_row =
        (fun _ ~rowid ->
          match Relation.Table.get (users ()) rowid with
          | Some row ->
              let l = line row in
              [ (0, l, l ^ "\n") ]
          | None -> []);
      sk_deps = (fun _ -> "");
      sk_aux = None;
    }
  in
  let pincr files =
    Option.get (Dcm.Keyed.part ~name:"logins" ~watches:[] (spec files)).Dcm.Gen.pincr
  in
  let _, st = pincr [| "logins" |] tb.Testbed.glue None in
  let full0 = counter "dcm.keyed.full" in
  let splice0 = counter "dcm.keyed.splice" in
  let out, _ = pincr [| "logins" |] tb.Testbed.glue (Some st) in
  Alcotest.(check int) "equal spec splices" 1
    (counter "dcm.keyed.splice" - splice0);
  Alcotest.(check (list string)) "its file" [ "logins" ]
    (List.map fst out.Dcm.Gen.common);
  let out, _ = pincr [| "other" |] tb.Testbed.glue (Some st) in
  Alcotest.(check int) "other files build in full" 1
    (counter "dcm.keyed.full" - full0);
  Alcotest.(check (list string)) "the new spec's file" [ "other" ]
    (List.map fst out.Dcm.Gen.common)

(* A keyed part's [pbuild] is its full build, but the reference
   extraction counts nothing: [dcm.keyed.*] count the DCM's builds
   alone, so a benchmark's per-cycle figures are not inflated by its own
   checks. *)
let test_keyed_generate_uncounted () =
  let tb = Testbed.create () in
  let names = [ "dcm.keyed.full"; "dcm.keyed.splice"; "dcm.keyed.fallback" ] in
  let counts () =
    List.map
      (fun name -> Option.value (Obs.find_counter Obs.default name) ~default:0)
      names
  in
  let before = counts () in
  let out = Dcm.Gen_hesiod.generator.Dcm.Gen.generate tb.Testbed.glue in
  Alcotest.(check bool) "passwd.db built" true
    (List.mem_assoc "passwd.db" out.Dcm.Gen.common);
  Alcotest.(check (list int)) "keyed counters unchanged" before (counts ())

(* The keyed incremental builders behind passwd/pobox/group/grplist: a
   varied edit sequence over several DCM cycles must stay byte-identical
   to a fresh full extraction every cycle.  User-row edits and USER
   membership edits splice (the latter through the closure's delta);
   a LIST member or a change to the active group lists themselves forces
   a clean full rebuild. *)
let test_keyed_incremental_cycles () =
  let tb = Testbed.create () in
  let mdb = tb.Testbed.mdb in
  let q name args =
    match Moira.Glue.query tb.Testbed.glue ~name args with
    | Ok _ -> ()
    | Error c ->
        Alcotest.failf "%s: %s" name (Comerr.Com_err.error_message c)
  in
  let counter name =
    Option.value (Obs.find_counter Obs.default name) ~default:0
  in
  let check_cycle label =
    Sim.Engine.advance tb.Testbed.engine (7 * 3600 * 1000);
    ignore (Dcm.Manager.run tb.Testbed.dcm);
    let merged =
      Option.get (Dcm.Manager.last_output tb.Testbed.dcm ~service:"HESIOD")
    in
    let fresh = Dcm.Gen_hesiod.generator.Dcm.Gen.generate tb.Testbed.glue in
    Alcotest.(check bool) (label ^ ": merged = full extraction") true
      (outputs_equal merged fresh)
  in
  ignore (Dcm.Manager.run tb.Testbed.dcm);
  let splice0 = counter "dcm.keyed.splice" in
  (* edits land a minute after the previous generation, so their modtime
     stamps are strictly newer than dfgen *)
  let tick () = Sim.Engine.advance tb.Testbed.engine 60_000 in
  let logins = tb.Testbed.built.Population.logins in
  (* a field edit: lines replaced in place *)
  tick ();
  q "update_user_shell" [ logins.(1); "/bin/keyedsh" ];
  check_cycle "shell edit";
  (* a deactivation: the user's lines disappear *)
  tick ();
  q "update_user_status" [ logins.(2); "0" ];
  check_cycle "deactivate";
  (* a new user: lines appear *)
  tick ();
  q "add_user"
    [ Moira.Mrconst.unique_login; "61999"; "/bin/sh"; "Keyed"; "Kay"; "";
      "0"; "hash61999"; "1992" ];
  q "register_user" [ "61999"; "kayk"; "1" ];
  q "update_user_status" [ "kayk"; "1" ];
  check_cycle "new user";
  Alcotest.(check bool) "user edits spliced" true
    (counter "dcm.keyed.splice" - splice0 >= 3);
  let groups = tb.Testbed.built.Population.group_names in
  let user = logins.(3) in
  let users_id = Option.get (Moira.Lookup.user_id mdb user) in
  let rec add_somewhere i =
    if i >= Array.length groups then
      Alcotest.fail "no group accepted a new member"
    else
      match
        Moira.Glue.query tb.Testbed.glue ~name:"add_member_to_list"
          [ groups.(i); "USER"; user ]
      with
      | Ok _ -> groups.(i)
      | Error _ -> add_somewhere (i + 1)
  in
  (* USER membership edits: the closure applies them as deltas and
     grplist.db re-renders just that user — no fallback anywhere *)
  let splice_step label edit =
    let fallback = counter "dcm.keyed.fallback" in
    let full = counter "closure.build.full" in
    tick ();
    let r = edit () in
    check_cycle label;
    Alcotest.(check int) (label ^ ": no keyed fallback") fallback
      (counter "dcm.keyed.fallback");
    Alcotest.(check int) (label ^ ": closure not rebuilt") full
      (counter "closure.build.full");
    Alcotest.(check (list int)) (label ^ ": closure = fresh build")
      (Moira.Closure.containing_lists (Moira.Closure.build mdb)
         ~mtype:"USER" ~mid:users_id)
      (Moira.Closure.containing_lists (Moira.Closure.get mdb)
         ~mtype:"USER" ~mid:users_id);
    r
  in
  let group = splice_step "USER add" (fun () -> add_somewhere 0) in
  splice_step "USER delete" (fun () ->
      q "delete_member_from_list" [ group; "USER"; user ]);
  (* edits that change what grplist.db's lines are made of: each must
     take the full-rebuild fallback, still byte-exact *)
  let fallback_step label edit =
    let fallback = counter "dcm.keyed.fallback" in
    tick ();
    edit ();
    check_cycle label;
    Alcotest.(check bool) (label ^ ": fell back") true
      (counter "dcm.keyed.fallback" > fallback)
  in
  fallback_step "LIST member" (fun () ->
      q "add_member_to_list" [ group; "LIST"; groups.(0) ]);
  let update_list name f =
    match
      Moira.Glue.query tb.Testbed.glue ~name:"get_list_info" [ name ]
    with
    | Ok [ name :: active :: public :: hidden :: maillist :: grouplist :: gid
           :: ace_type :: ace_name :: desc :: _ ] ->
        let grouplist, gid = f (grouplist, gid) in
        q "update_list"
          [ name; name; active; public; hidden; maillist; grouplist; gid;
            ace_type; ace_name; desc ]
    | _ -> Alcotest.failf "get_list_info %s" name
  in
  fallback_step "gid change" (fun () ->
      update_list group (fun (g, _) -> (g, "61777")));
  fallback_step "grouplist flip" (fun () ->
      update_list group (fun (g, gid) -> ((if g = "1" then "0" else "1"), gid)))

let test_cron_schedule_drives_dcm () =
  let tb = Testbed.create () in
  (* don't call run manually: let the 15-min cron do it *)
  Testbed.run_hours tb 1;
  Alcotest.(check int) "4 runs in the first hour" 4
    (List.length (Dcm.Manager.reports tb.Testbed.dcm))

(* Another DCM (or a stuck one) holds the service lock: this pass skips
   the service rather than racing it. *)
let test_locked_service_skipped () =
  let tb = Testbed.create () in
  let locks = Moira.Mdb.locks tb.Testbed.mdb in
  Alcotest.(check bool) "grab lock" true
    (Relation.Lock.acquire locks ~key:"service:HESIOD" ~owner:"other-dcm"  (* lint: allow lock-protect -- foreign dcm holds the lock so the cycle skips; released below *)
       Relation.Lock.Exclusive);
  Sim.Engine.advance tb.Testbed.engine (7 * 3600 * 1000);
  let report = Dcm.Manager.run tb.Testbed.dcm in
  (match gen_of report "HESIOD" with
  | Dcm.Manager.Locked -> ()
  | _ -> Alcotest.fail "locked service not skipped");
  (* others unaffected *)
  (match gen_of report "NFS" with
  | Dcm.Manager.Generated _ -> ()
  | _ -> Alcotest.fail "NFS should still run");
  Relation.Lock.release locks ~key:"service:HESIOD" ~owner:"other-dcm";
  let report = Dcm.Manager.run tb.Testbed.dcm in
  match gen_of report "HESIOD" with
  | Dcm.Manager.Generated _ -> ()
  | _ -> Alcotest.fail "did not recover after unlock"

let suite =
  [
    Alcotest.test_case "first run generates" `Quick
      test_first_run_generates_everything;
    Alcotest.test_case "MR_NO_CHANGE suppression" `Quick
      test_no_change_suppression;
    Alcotest.test_case "interval respected" `Quick test_interval_respected;
    Alcotest.test_case "change isolated per service" `Quick
      test_change_in_one_service_only;
    Alcotest.test_case "hesiod end to end" `Quick test_hesiod_end_to_end;
    Alcotest.test_case "change propagates" `Quick
      test_change_propagates_to_hesiod;
    Alcotest.test_case "soft fail + retry" `Quick
      test_host_down_soft_fail_and_retry;
    Alcotest.test_case "hard error path" `Quick
      test_hard_error_disables_and_notifies;
    Alcotest.test_case "override" `Quick test_override_forces_update;
    Alcotest.test_case "/etc/nodcm" `Quick test_nodcm_file_disables;
    Alcotest.test_case "dcm_enable value" `Quick test_dcm_enable_value;
    Alcotest.test_case "moira host down stops DCM" `Quick
      test_moira_host_down_stops_dcm;
    Alcotest.test_case "disabled service skipped" `Quick
      test_disabled_service_skipped;
    Alcotest.test_case "Trigger_DCM RPC" `Quick test_trigger_dcm_via_rpc;
    Alcotest.test_case "NFS per-host files" `Quick test_nfs_per_host_files;
    Alcotest.test_case "NFS lockers created" `Quick test_nfs_lockers_created;
    Alcotest.test_case "NFS files follow a machine rename" `Quick
      test_nfs_machine_rename;
    Alcotest.test_case "mail aliases on hub" `Quick test_mail_aliases_on_hub;
    Alcotest.test_case "zephyr ACLs installed" `Quick
      test_zephyr_acls_installed;
    Alcotest.test_case "file-grain rebuild + delta push" `Quick
      test_file_grain_single_user_change;
    Alcotest.test_case "keyed incremental cycles" `Quick
      test_keyed_incremental_cycles;
    Alcotest.test_case "keyed state owned by table and files" `Quick
      test_keyed_state_owner;
    Alcotest.test_case "generate counts no keyed build" `Quick
      test_keyed_generate_uncounted;
    Alcotest.test_case "cron schedule" `Quick test_cron_schedule_drives_dcm;
    Alcotest.test_case "DCM restart resumes from spool" `Quick
      test_dcm_restart_resumes_from_spool;
    Alcotest.test_case "spool holds each member's chunks" `Quick
      test_spool_chunks_round_trip;
    Alcotest.test_case "locked service skipped" `Quick
      test_locked_service_skipped;
  ]
