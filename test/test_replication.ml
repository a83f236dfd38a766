(* The replicated read path: journal-streaming replicas converge
   byte-identically, sequenced reads preserve read-your-writes across
   lagging replicas, client failover quarantines faulty replicas and
   probes them back, retention gaps fall back to snapshot catch-up, and
   reads survive the primary being down. *)

open Workload
open Relation

let counter name = Option.value (Obs.find_counter Obs.default name) ~default:0

let dump_of mdb = Backup.dump (Moira.Mdb.db mdb)

let must c ~name args =
  match Moira.Mr_client.mr_query_list c ~name args with
  | Ok tuples -> tuples
  | Error code ->
      Alcotest.failf "%s: %s" name (Comerr.Com_err.error_message code)

let shell_of tuples =
  (* get_user_by_login: login, uid, shell, ... *)
  match tuples with
  | (_ :: _ :: shell :: _) :: _ -> shell
  | _ -> Alcotest.fail "get_user_by_login: no tuple"

let some_login tb = (Testbed.(tb.built)).Population.logins.(0)

(* --- convergence: replica database == primary database, bytewise --- *)

let test_replicas_converge_byte_identical () =
  let tb = Testbed.create ~replicas:2 ~repl_poll_ms:30_000 () in
  let admin = Testbed.admin_client tb ~src:"W20-001.MIT.EDU" in
  ignore (must admin ~name:"add_machine" [ "REPL-TEST-1.MIT.EDU"; "VAX" ]);
  ignore
    (must admin ~name:"add_user"
       [ "repltest"; "4242"; "/bin/csh"; "Test"; "Repl"; "T"; "1"; "xx";
         "1991" ]);
  Testbed.run_minutes tb 5;
  ignore
    (must admin ~name:"update_user_shell" [ "repltest"; "/bin/bash" ]);
  Testbed.run_minutes tb 5;
  let primary_dump = dump_of tb.Testbed.mdb in
  let head = Journal.head_seq (Moira.Mdb.journal tb.Testbed.mdb) in
  List.iter
    (fun (machine, r) ->
      Alcotest.(check int)
        (machine ^ " applied the whole journal")
        head
        (Replicate.applied_seq (Moira.Mr_server.replica_handle r));
      Alcotest.(check bool)
        (machine ^ " database byte-identical to primary")
        true
        (dump_of (Moira.Mr_server.replica_mdb r) = primary_dump))
    tb.Testbed.replicas;
  Alcotest.(check bool) "replicas really ran" true
    (List.length tb.Testbed.replicas = 2)

(* --- read-your-writes across a lagging replica --- *)

let test_read_your_writes_on_lagging_replica () =
  (* poll period of an hour: the replica only catches up when the test
     pulls for it explicitly, so lag is deterministic *)
  let tb = Testbed.create ~replicas:1 ~repl_poll_ms:3_600_000 () in
  Testbed.run_minutes tb 1;
  let _, r = List.hd tb.Testbed.replicas in
  let handle = Moira.Mr_server.replica_handle r in
  (* bring the replica level with the primary, then stop pulling *)
  Replicate.poll handle;
  Alcotest.(check int) "replica level with primary"
    (Journal.head_seq (Moira.Mdb.journal tb.Testbed.mdb))
    (Replicate.applied_seq handle);
  let login = some_login tb in
  let admin = Testbed.admin_client tb ~src:"W20-001.MIT.EDU" in
  Moira.Mr_client.set_replicas admin (Testbed.replica_machines tb);
  (* the write goes to the primary and teaches the client its seq *)
  ignore (must admin ~name:"update_user_shell" [ login; "/bin/zsh" ]);
  Alcotest.(check bool) "write advanced the high-water mark" true
    (Moira.Mr_client.high_water admin > 0);
  let stale0 = counter "client.read.stale_bounce" in
  (* the replica has not pulled since the write: a sequenced read must
     bounce off it and still observe the write via the primary *)
  let shell = shell_of (must admin ~name:"get_user_by_login" [ login ]) in
  Alcotest.(check string) "client observes its own write" "/bin/zsh" shell;
  Alcotest.(check bool) "the stale replica was bounced off" true
    (counter "client.read.stale_bounce" > stale0);
  (* an unsequenced client talking straight to the replica still sees
     the old value — the lag the bounce protected us from *)
  let naive = Testbed.client tb ~src:"W20-002.MIT.EDU" in
  Alcotest.(check int) "connect to replica" 0
    (Moira.Mr_client.mr_connect naive ~dst:(Testbed.replica_machine 0));
  Alcotest.(check int) "auth against replica" 0
    (Moira.Mr_client.mr_auth naive ~kdc:tb.Testbed.kdc
       ~principal:tb.Testbed.built.Population.admin
       ~password:tb.Testbed.built.Population.admin_password
       ~clientname:"test");
  let old_shell =
    shell_of (must naive ~name:"get_user_by_login" [ login ])
  in
  Alcotest.(check bool) "replica really is behind" true
    (old_shell <> "/bin/zsh");
  (* once the replica catches up, sequenced reads land on it again *)
  Replicate.poll handle;
  let replica_reads0 = counter "client.read.replica" in
  let shell = shell_of (must admin ~name:"get_user_by_login" [ login ]) in
  Alcotest.(check string) "caught-up replica serves the write" "/bin/zsh"
    shell;
  Alcotest.(check bool) "read came from the replica" true
    (counter "client.read.replica" > replica_reads0)

(* --- reads spread over the replicas --- *)

(* Caught-up replicas share a client's reads round-robin and the
   primary answers none, counted as QUERY2 frames each server receives
   on the wire. *)
let test_reads_spread_over_replicas () =
  let tb = Testbed.create ~replicas:3 () in
  Testbed.run_minutes tb 1;
  let head = Journal.head_seq (Moira.Mdb.journal tb.Testbed.mdb) in
  List.iter
    (fun (machine, r) ->
      Alcotest.(check int) (machine ^ " caught up") head
        (Replicate.applied_seq (Moira.Mr_server.replica_handle r)))
    tb.Testbed.replicas;
  let admin = Testbed.admin_client tb ~src:"W20-001.MIT.EDU" in
  Moira.Mr_client.set_replicas admin (Testbed.replica_machines tb);
  let queries machine =
    let n = ref 0 in
    let host = Testbed.host tb machine in
    let service = Moira.Protocol.moira_service in
    match Netsim.Host.lookup host ~service with
    | None -> Alcotest.failf "%s serves no moira" machine
    | Some handler ->
        Netsim.Host.register host ~service (fun ~src payload ->
            (match Gdb.Wire.decode_request payload with
            | Ok req when req.Gdb.Wire.op = Moira.Protocol.op_query2 -> incr n
            | Ok _ | Error _ -> ());
            handler ~src payload);
        n
  in
  let primary = queries tb.Testbed.built.Population.moira_machine in
  let replicas = List.map (fun m -> (m, queries m)) (Testbed.replica_machines tb) in
  let logins = tb.Testbed.built.Population.logins in
  let replica_reads0 = counter "client.read.replica" in
  for i = 0 to 29 do
    ignore
      (must admin ~name:"get_user_by_login"
         [ logins.(i mod Array.length logins) ])
  done;
  List.iter
    (fun (m, n) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s answered 10 +- 1 of 30 (got %d)" m !n)
        true
        (abs (!n - 10) <= 1))
    replicas;
  Alcotest.(check int) "the primary answered none" 0 !primary;
  Alcotest.(check int) "client.read.replica grew by 30" 30
    (counter "client.read.replica" - replica_reads0)

(* --- writes bounce off replicas --- *)

let test_replica_refuses_writes () =
  let tb = Testbed.create ~replicas:1 () in
  Testbed.run_minutes tb 1;
  let c = Testbed.client tb ~src:"W20-003.MIT.EDU" in
  Alcotest.(check int) "connect to replica" 0
    (Moira.Mr_client.mr_connect c ~dst:(Testbed.replica_machine 0));
  Alcotest.(check int) "auth against replica" 0
    (Moira.Mr_client.mr_auth c ~kdc:tb.Testbed.kdc
       ~principal:tb.Testbed.built.Population.admin
       ~password:tb.Testbed.built.Population.admin_password
       ~clientname:"test");
  match
    Moira.Mr_client.mr_query_list c ~name:"add_machine"
      [ "SHOULD-FAIL.MIT.EDU"; "VAX" ]
  with
  | Ok _ -> Alcotest.fail "replica accepted a write"
  | Error code ->
      Alcotest.(check int) "read_only_replica" Moira.Mr_err.read_only_replica
        code

(* --- quarantine and probe-back --- *)

let test_quarantine_and_probe_back () =
  let tb = Testbed.create ~replicas:2 ~repl_poll_ms:5_000 () in
  Testbed.run_minutes tb 1;
  let login = some_login tb in
  let admin = Testbed.admin_client tb ~src:"W20-004.MIT.EDU" in
  Moira.Mr_client.set_replicas admin
    ~failover:
      {
        Moira.Mr_client.quarantine_after = 1;
        backoff_base_ms = 60_000;
        backoff_max_ms = 60_000;
        backoff_jitter = 0.0;
      }
    (Testbed.replica_machines tb);
  (* one warm read so both replica connections exist *)
  ignore (must admin ~name:"get_user_by_login" [ login ]);
  ignore (must admin ~name:"get_user_by_login" [ login ]);
  (* kill replica 1 for two minutes of engine time *)
  let victim = Testbed.replica_machine 0 in
  Netsim.Net.schedule_outage tb.Testbed.net ~host:victim
    ~at:(Sim.Engine.now tb.Testbed.engine + 1_000)
    ~duration_ms:120_000;
  Testbed.run_minutes tb 1;
  let q0 = counter "client.replica_quarantined" in
  (* enough reads to hit the dead replica at least once *)
  for _ = 1 to 4 do
    ignore (must admin ~name:"get_user_by_login" [ login ])
  done;
  Alcotest.(check bool) "victim got quarantined" true
    (counter "client.replica_quarantined" > q0);
  Alcotest.(check bool) "status shows the quarantine" true
    (List.assoc victim (Moira.Mr_client.replica_status admin));
  (* while quarantined, every read still succeeds *)
  for _ = 1 to 4 do
    ignore (must admin ~name:"get_user_by_login" [ login ])
  done;
  (* past the backoff and the outage, the probe read recovers it *)
  Testbed.run_minutes tb 5;
  let recovered0 = counter "client.replica_recovered" in
  for _ = 1 to 4 do
    ignore (must admin ~name:"get_user_by_login" [ login ])
  done;
  Alcotest.(check bool) "probe recovered the replica" true
    (counter "client.replica_recovered" > recovered0);
  Alcotest.(check bool) "status healthy again" true
    (not (List.assoc victim (Moira.Mr_client.replica_status admin)))

(* --- retention gap forces snapshot catch-up --- *)

let test_retention_gap_snapshot_catchup () =
  let tb =
    Testbed.create ~replicas:1 ~repl_poll_ms:600_000 ~repl_retain:5 ()
  in
  (* let the replica boot-subscribe once *)
  Testbed.run_minutes tb 15;
  let machine, r = List.hd tb.Testbed.replicas in
  let admin = Testbed.admin_client tb ~src:"W20-005.MIT.EDU" in
  (* burst far past the retention window within one poll period *)
  for i = 1 to 30 do
    ignore
      (must admin ~name:"add_machine"
         [ Printf.sprintf "BURST-%02d.MIT.EDU" i; "VAX" ])
  done;
  let snaps0 =
    counter ("repl." ^ String.lowercase_ascii machine ^ ".snapshots")
  in
  Testbed.run_minutes tb 15;
  Alcotest.(check bool) "snapshot catch-up happened" true
    (counter ("repl." ^ String.lowercase_ascii machine ^ ".snapshots")
    > snaps0);
  Alcotest.(check bool) "converged byte-identical anyway" true
    (dump_of (Moira.Mr_server.replica_mdb r) = dump_of tb.Testbed.mdb);
  Alcotest.(check int) "sequence caught up"
    (Journal.head_seq (Moira.Mdb.journal tb.Testbed.mdb))
    (Replicate.applied_seq (Moira.Mr_server.replica_handle r))

(* --- reads survive the primary being down --- *)

let test_reads_survive_primary_down () =
  let tb = Testbed.create ~replicas:1 ~repl_poll_ms:5_000 () in
  Testbed.run_minutes tb 1;
  let login = some_login tb in
  let admin = Testbed.admin_client tb ~src:"W20-006.MIT.EDU" in
  Moira.Mr_client.set_replicas admin (Testbed.replica_machines tb);
  (* a write, then let the replica apply it *)
  ignore (must admin ~name:"update_user_shell" [ login; "/bin/tcsh" ]);
  Testbed.run_minutes tb 1;
  (* primary goes down *)
  let primary = tb.Testbed.built.Population.moira_machine in
  Netsim.Net.schedule_outage tb.Testbed.net ~host:primary
    ~at:(Sim.Engine.now tb.Testbed.engine + 1_000)
    ~duration_ms:300_000;
  Testbed.run_minutes tb 1;
  (* reads keep the answer, including our own write *)
  let shell = shell_of (must admin ~name:"get_user_by_login" [ login ]) in
  Alcotest.(check string) "read served during primary outage" "/bin/tcsh"
    shell;
  (* writes fail while the primary is down *)
  (match
     Moira.Mr_client.mr_query_list admin ~name:"update_user_shell"
       [ login; "/bin/sh" ]
   with
  | Ok _ -> Alcotest.fail "write succeeded against a dead primary"
  | Error _ -> ());
  (* after reboot, writes work again and replication resumes *)
  Testbed.run_minutes tb 10;
  ignore (must admin ~name:"update_user_shell" [ login; "/bin/sh" ]);
  Testbed.run_minutes tb 1;
  let _, r = List.hd tb.Testbed.replicas in
  Alcotest.(check bool) "replica reconverged after reboot" true
    (dump_of (Moira.Mr_server.replica_mdb r) = dump_of tb.Testbed.mdb)

let suite =
  [
    Alcotest.test_case "replicas converge byte-identical" `Quick
      test_replicas_converge_byte_identical;
    Alcotest.test_case "read-your-writes on lagging replica" `Quick
      test_read_your_writes_on_lagging_replica;
    Alcotest.test_case "replica refuses writes" `Quick
      test_replica_refuses_writes;
    Alcotest.test_case "quarantine and probe-back" `Quick
      test_quarantine_and_probe_back;
    Alcotest.test_case "retention gap snapshot catch-up" `Quick
      test_retention_gap_snapshot_catchup;
    Alcotest.test_case "reads spread over the replicas" `Quick
      test_reads_spread_over_replicas;
    Alcotest.test_case "reads survive primary down" `Quick
      test_reads_survive_primary_down;
  ]
