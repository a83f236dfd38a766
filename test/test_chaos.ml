(* Fault tolerance of the update pipeline (section 5.7.1 / 5.9).
   Directed tests first: crash-recovery sweep, soft-failure quarantine
   with deduplicated notification, notification fallback, lock hygiene
   under generator exceptions.  Then the chaos configurations: seeded
   runs of the one harness, [Workload.Chaos], each held to every oracle
   of [Chaos.check]; and a planted violation per oracle, so none of
   them passes vacuously. *)

open Workload
open Relation

(* A retry policy scaled for 15-minute test cycles: quarantine after two
   consecutive failed cycles, negligible backoff. *)
let fast_quarantine =
  {
    Dcm.Manager.op_attempts = 2;
    push_attempts = 1;
    backoff_base_s = 1;
    backoff_max_s = 1;
    backoff_jitter = 0.0;
    quarantine_after = 2;
  }

let shost_field tb ~service ~machine col =
  let mdb = tb.Testbed.mdb in
  let shosts = Moira.Mdb.table mdb "serverhosts" in
  let mach_id =
    match Moira.Lookup.machine_id mdb machine with
    | Some id -> id
    | None -> Alcotest.failf "no machine %s" machine
  in
  match
    Table.select_one shosts
      (Pred.conj
         [ Pred.eq_str "service" service; Pred.eq_int "mach_id" mach_id ])
  with
  | Some (_, row) -> Table.field shosts row col
  | None -> Alcotest.failf "no serverhosts row %s/%s" service machine

(* Every generated serverhosts row except [but] has converged, by the
   chaos harness's own oracle. *)
let assert_fleet_converged ?but tb =
  match
    List.filter (fun (host, _) -> Some host <> but) (Chaos.unconverged tb ~cutoff:0)
  with
  | [] -> ()
  | ((service, machine), what) :: _ ->
      Alcotest.failf "%s on %s %s" service machine what

(* --- crash-recovery sweep ------------------------------------------- *)

let test_recovery_sweep_clears_crash_leftovers () =
  let tb = Testbed.create () in
  ignore (Dcm.Manager.run tb.Testbed.dcm);
  (* simulate a DCM that died mid-run: inprogress flags set in both
     tables, service and host locks still owned by "dcm" *)
  let mdb = tb.Testbed.mdb in
  let servers = Moira.Mdb.table mdb "servers" in
  let shosts = Moira.Mdb.table mdb "serverhosts" in
  ignore
    (Table.set_fields servers
       (Pred.eq_str "name" "HESIOD")
       [ ("inprogress", Value.Bool true) ]);
  ignore
    (Table.set_fields shosts
       (Pred.eq_str "service" "HESIOD")
       [ ("inprogress", Value.Bool true) ]);
  let locks = Moira.Mdb.locks mdb in
  let hes_machine = tb.Testbed.built.Population.hesiod_machines.(0) in
  Alcotest.(check bool) "stranded service lock taken" true
    (Lock.acquire locks ~key:"service:HESIOD" ~owner:"dcm" Lock.Exclusive);  (* lint: allow lock-protect -- seeding a stranded lock for the recovery sweep to release *)
  Alcotest.(check bool) "stranded host lock taken" true
    (Lock.acquire locks  (* lint: allow lock-protect -- seeding a stranded lock for the recovery sweep to release *)
       ~key:("host:HESIOD/" ^ hes_machine)
       ~owner:"dcm" Lock.Exclusive);
  let sweep = Dcm.Manager.recovery_sweep tb.Testbed.dcm in
  Alcotest.(check int) "servers rows cleared" 1
    sweep.Dcm.Manager.services_cleared;
  Alcotest.(check bool) "serverhosts rows cleared" true
    (sweep.Dcm.Manager.hosts_cleared >= 1);
  Alcotest.(check int) "orphaned locks released" 2
    sweep.Dcm.Manager.locks_released;
  (* flags really are gone, and the locks are free for the next cycle *)
  Alcotest.(check bool) "no inprogress servers row" true
    (Table.select servers (Pred.eq_bool "inprogress" true) = []);
  Alcotest.(check bool) "no inprogress serverhosts row" true
    (Table.select shosts (Pred.eq_bool "inprogress" true) = []);
  Alcotest.(check bool) "service lock free" true
    (Lock.acquire locks ~key:"service:HESIOD" ~owner:"probe" Lock.Exclusive);  (* lint: allow lock-protect -- probe asserts the lock is free; released on the next line *)
  Lock.release locks ~key:"service:HESIOD" ~owner:"probe";
  (* the next cycle completes unaided: a new change generates and
     propagates with no operator intervention *)
  Sim.Engine.advance tb.Testbed.engine 60_000;
  ignore
    (Moira.Glue.query tb.Testbed.glue ~name:"update_user_shell"
       [ tb.Testbed.built.Population.logins.(0); "/bin/postcrash" ]);
  Sim.Engine.advance tb.Testbed.engine (7 * 3600 * 1000);
  let report = Dcm.Manager.run tb.Testbed.dcm in
  let hes =
    List.find
      (fun s -> s.Dcm.Manager.service = "HESIOD")
      report.Dcm.Manager.services
  in
  (match hes.Dcm.Manager.gen with
  | Dcm.Manager.Generated _ -> ()
  | _ -> Alcotest.fail "HESIOD did not regenerate after the sweep");
  (match List.assoc_opt hes_machine hes.Dcm.Manager.hosts with
  | Some (Dcm.Manager.Updated _) -> ()
  | _ -> Alcotest.fail "host not updated after the sweep");
  assert_fleet_converged tb

(* --- quarantine escalation ------------------------------------------ *)

let test_quarantine_one_notification_per_incident () =
  let tb = Testbed.create ~retry:fast_quarantine () in
  let hes_machine = tb.Testbed.built.Population.hesiod_machines.(0) in
  Netsim.Host.crash (Testbed.host tb hes_machine);
  Testbed.run_hours tb 3;
  (* the host is quarantined: hosterror set, errmsg says so *)
  Alcotest.(check bool) "hosterror set" true
    (Value.int (shost_field tb ~service:"HESIOD" ~machine:hes_machine
                  "hosterror")
    <> 0);
  let errmsg =
    Value.str
      (shost_field tb ~service:"HESIOD" ~machine:hes_machine "hosterrmsg")
  in
  Alcotest.(check bool) "errmsg names the quarantine" true
    (String.length errmsg >= 11 && String.sub errmsg 0 11 = "quarantined");
  (* exactly one zephyrgram for the whole incident, however long it
     lasts *)
  let z = List.assoc tb.Testbed.built.Population.zephyr_machines.(0)
      tb.Testbed.zephyrs
  in
  let quarantine_notices () =
    Zephyr.notices_for z ~cls:"MOIRA"
    |> List.filter (fun n ->
           let msg = n.Zephyr.message in
           let needle = "quarantined" in
           let rec find i =
             if i + String.length needle > String.length msg then false
             else String.sub msg i (String.length needle) = needle || find (i + 1)
           in
           find 0)
  in
  Alcotest.(check int) "one notice for the incident" 1
    (List.length (quarantine_notices ()));
  Testbed.run_hours tb 5;
  Alcotest.(check int) "still one notice hours later" 1
    (List.length (quarantine_notices ()));
  (* the quarantined host is excluded from scans: no retries burn the
     wire, and the rest of the fleet is unaffected *)
  assert_fleet_converged ~but:("HESIOD", hes_machine) tb;
  (* operator resets the error; the host recovers on the next cycles *)
  Netsim.Host.boot (Testbed.host tb hes_machine);
  ignore
    (Moira.Glue.query tb.Testbed.glue ~name:"set_server_host_internal"
       [ "HESIOD"; hes_machine; "1"; "0"; "0"; "0"; ""; "0"; "0" ]);
  Testbed.run_hours tb 1;
  assert_fleet_converged tb

(* --- notification fallback and drop accounting ---------------------- *)

let sum_notices tb =
  List.fold_left
    (fun (s, d) r ->
      (s + r.Dcm.Manager.notices_sent, d + r.Dcm.Manager.notices_dropped))
    (0, 0)
    (Dcm.Manager.reports tb.Testbed.dcm)

let test_notify_falls_back_to_mail () =
  let tb = Testbed.create ~retry:fast_quarantine () in
  let hes_machine = tb.Testbed.built.Population.hesiod_machines.(0) in
  let zephyr_machine = tb.Testbed.built.Population.zephyr_machines.(0) in
  (* one clean cycle first, so the hub has its aliases file *)
  Testbed.run_minutes tb 20;
  Netsim.Host.crash (Testbed.host tb hes_machine);
  Netsim.Host.crash (Testbed.host tb zephyr_machine);
  (* a change the dead hesiod host will fail to receive once its
     service's interval elapses *)
  ignore
    (Moira.Glue.query tb.Testbed.glue ~name:"update_user_shell"
       [ tb.Testbed.built.Population.logins.(0); "/bin/fallback" ]);
  Testbed.run_hours tb 8;
  let sent, dropped = sum_notices tb in
  (* the zephyr host is down, but the quarantine notices still reach the
     maintainers by mail: delivered, not silently lost *)
  Alcotest.(check bool) "notices delivered via mail fallback" true (sent >= 1);
  Alcotest.(check int) "nothing dropped" 0 dropped;
  let z = List.assoc zephyr_machine tb.Testbed.zephyrs in
  Alcotest.(check int) "no zephyrgram landed (host was down)" 0
    (List.length (Zephyr.notices_for z ~cls:"MOIRA"))

let test_notify_drop_is_counted () =
  let tb = Testbed.create ~retry:fast_quarantine () in
  let hes_machine = tb.Testbed.built.Population.hesiod_machines.(0) in
  let zephyr_machine = tb.Testbed.built.Population.zephyr_machines.(0) in
  let hub = tb.Testbed.built.Population.mail_hub in
  Netsim.Host.crash (Testbed.host tb hes_machine);
  Netsim.Host.crash (Testbed.host tb zephyr_machine);
  Netsim.Host.crash (Testbed.host tb hub);
  Testbed.run_hours tb 3;
  let sent, dropped = sum_notices tb in
  Alcotest.(check int) "nothing deliverable" 0 sent;
  Alcotest.(check bool) "drops are counted, not silent" true (dropped >= 1)

(* --- lock hygiene under generator exceptions ------------------------ *)

let test_generator_exception_releases_lock () =
  let tb = Testbed.create () in
  let bad =
    Dcm.Gen.monolithic ~service:"HESIOD"
      ~watches:[ Dcm.Gen.watch "users" ]
      (fun _ -> failwith "generator exploded")
  in
  let dcm2 =
    Dcm.Manager.create ~net:tb.Testbed.net
      ~moira_host:tb.Testbed.built.Population.moira_machine
      ~glue:tb.Testbed.glue ~generators:[ bad ] ()
  in
  let report = Dcm.Manager.run dcm2 in
  (match report.Dcm.Manager.services with
  | [ { Dcm.Manager.gen = Dcm.Manager.Gen_failed msg; _ } ] ->
      Alcotest.(check bool) "failure message surfaced" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "exception did not surface as Gen_failed");
  (* neither the lock nor the inprogress flag leaked *)
  let locks = Moira.Mdb.locks tb.Testbed.mdb in
  Alcotest.(check bool) "service lock was released" true
    (Lock.acquire locks ~key:"service:HESIOD" ~owner:"probe" Lock.Exclusive);  (* lint: allow lock-protect -- probe asserts the lock is free; released on the next line *)
  Lock.release locks ~key:"service:HESIOD" ~owner:"probe";
  let servers = Moira.Mdb.table tb.Testbed.mdb "servers" in
  Alcotest.(check bool) "inprogress cleared" true
    (Table.select servers (Pred.eq_bool "inprogress" true) = [])

(* --- host-lock contention is recorded ------------------------------- *)

let test_host_lock_failure_moves_ltt () =
  let tb = Testbed.create () in
  let hes_machine = tb.Testbed.built.Population.hesiod_machines.(0) in
  let locks = Moira.Mdb.locks tb.Testbed.mdb in
  Alcotest.(check bool) "intruder holds the host lock" true
    (Lock.acquire locks  (* lint: allow lock-protect -- intruder holds the lock so the cycle must contend; released below *)
       ~key:("host:HESIOD/" ^ hes_machine)
       ~owner:"intruder" Lock.Exclusive);
  (* lint: allow lock-order -- the intruder is another owner, not a nesting: the DCM must find the host taken *)
  let report = Dcm.Manager.run tb.Testbed.dcm in
  let hes =
    List.find
      (fun s -> s.Dcm.Manager.service = "HESIOD")
      report.Dcm.Manager.services
  in
  (match List.assoc_opt hes_machine hes.Dcm.Manager.hosts with
  | Some (Dcm.Manager.Soft_failed _) -> ()
  | _ -> Alcotest.fail "locked host should soft-fail");
  (* the tuple records that the DCM tried: ltt moved, errmsg says why *)
  Alcotest.(check bool) "ltt moved" true
    (Value.int (shost_field tb ~service:"HESIOD" ~machine:hes_machine "ltt")
    > 0);
  Alcotest.(check string) "errmsg records the reason" "host locked"
    (Value.str (shost_field tb ~service:"HESIOD" ~machine:hes_machine
                  "hosterrmsg"));
  Lock.release locks ~key:("host:HESIOD/" ^ hes_machine) ~owner:"intruder"

(* --- restart resumes persisted retry state -------------------------- *)

(* The per-host failure count and backoff window live in the serverhosts
   value1/value2 columns, so a restarted DCM (a brand-new manager over
   the same database) must carry an incident forward: with
   quarantine_after = 2, one pre-restart failed cycle plus one
   post-restart failed cycle quarantines the host.  A DCM that forgot
   its state would merely soft-fail again. *)
let test_restart_resumes_retry_state () =
  let tb = Testbed.create ~retry:fast_quarantine () in
  let hes_machine = tb.Testbed.built.Population.hesiod_machines.(0) in
  Netsim.Host.crash (Testbed.host tb hes_machine);
  let report = Dcm.Manager.run tb.Testbed.dcm in
  let hes =
    List.find
      (fun s -> s.Dcm.Manager.service = "HESIOD")
      report.Dcm.Manager.services
  in
  (match List.assoc_opt hes_machine hes.Dcm.Manager.hosts with
  | Some (Dcm.Manager.Soft_failed _) -> ()
  | _ -> Alcotest.fail "dead host should soft-fail before restart");
  Alcotest.(check int) "failure count persisted" 1
    (Value.int
       (shost_field tb ~service:"HESIOD" ~machine:hes_machine "value1"));
  Alcotest.(check bool) "backoff window persisted" true
    (Value.int (shost_field tb ~service:"HESIOD" ~machine:hes_machine "value2")
    > 0);
  (* "restart": a fresh manager over the same database and network,
     created past the 1 s backoff window *)
  Sim.Engine.advance tb.Testbed.engine 5_000;
  let dcm2 =
    Dcm.Manager.create ~net:tb.Testbed.net
      ~moira_host:tb.Testbed.built.Population.moira_machine
      ~glue:tb.Testbed.glue ~retry:fast_quarantine ()
  in
  let report2 = Dcm.Manager.run dcm2 in
  let hes2 =
    List.find
      (fun s -> s.Dcm.Manager.service = "HESIOD")
      report2.Dcm.Manager.services
  in
  (match List.assoc_opt hes_machine hes2.Dcm.Manager.hosts with
  | Some (Dcm.Manager.Quarantined _) -> ()
  | Some _ | None ->
      Alcotest.fail
        "restarted DCM forgot the failure count: second failure should \
         quarantine");
  Alcotest.(check bool) "hosterror set" true
    (Value.int
       (shost_field tb ~service:"HESIOD" ~machine:hes_machine "hosterror")
    <> 0);
  (* the open incident is persisted too (negated count), so yet another
     restart stays quiet instead of re-notifying *)
  Alcotest.(check int) "notified incident persisted" (-2)
    (Value.int
       (shost_field tb ~service:"HESIOD" ~machine:hes_machine "value1"));
  (* operator reset clears the columns through the normal path *)
  Netsim.Host.boot (Testbed.host tb hes_machine);
  ignore
    (Moira.Glue.query tb.Testbed.glue ~name:"set_server_host_internal"
       [ "HESIOD"; hes_machine; "1"; "0"; "0"; "0"; ""; "0"; "0" ]);
  Sim.Engine.advance tb.Testbed.engine 5_000;
  let report3 = Dcm.Manager.run dcm2 in
  let hes3 =
    List.find
      (fun s -> s.Dcm.Manager.service = "HESIOD")
      report3.Dcm.Manager.services
  in
  (match List.assoc_opt hes_machine hes3.Dcm.Manager.hosts with
  | Some (Dcm.Manager.Updated _) -> ()
  | _ -> Alcotest.fail "host should recover after operator reset");
  Alcotest.(check int) "retry state cleared on success" 0
    (Value.int
       (shost_field tb ~service:"HESIOD" ~machine:hes_machine "value1"))

(* --- chaos configurations ------------------------------------------ *)

(* The run's observation, once every oracle holds. *)
let holds oc =
  match Chaos.check oc with
  | [] -> oc.Chaos.observed
  | vs -> Alcotest.failf "%d violations:\n%s" (List.length vs) (String.concat "\n" vs)

let ctr (o : Chaos.observation) name =
  Option.value ~default:0 (List.assoc_opt name o.Chaos.counters)

let histogram_count (o : Chaos.observation) name =
  match List.assoc_opt name o.Chaos.histograms with
  | Some s -> s.Obs.count
  | None -> 0

(* one shell write through the privileged handle *)
let trickle = { Chaos.writes = 1; every_min = 60; via = Chaos.Glue; reads = 0 }

let base =
  { Chaos.seed = 7; replicas = 0; scale = 1.0; workload = trickle;
    schedule = Chaos.calm; replay = false }

let lossy drop reply_drop = { Chaos.calm with Chaos.drop; reply_drop }

let client_writes writes every_min =
  { Chaos.writes; every_min; via = Client; reads = 0 }

(* every other machine the DCM pushes to *)
let half_the_fleet =
  Chaos.Partition Chaos.[ Managed 0; Managed 2; Managed 4; Managed 6 ]

(* Loss on the whole time and a partition cutting half the fleet off
   for 90 minutes: retries and backoff must carry the fleet to
   convergence anyway. *)
let test_converges_under_message_loss () =
  let o =
    holds @@ Chaos.run
      { base with
        schedule =
          { (lossy 0.2 0.1) with
            timed = [ { fault = half_the_fleet; at_min = 120; for_min = 90 } ] } }
  in
  Alcotest.(check bool) "losses actually happened" true
    (ctr o "net.req_dropped" > 0 && ctr o "net.reply_dropped" > 0)

(* Every send ends exactly one way — acknowledged, re-sent, or counted
   against a named failure kind — and the loss really forced retries. *)
let test_telemetry_accounts_for_every_op () =
  let o = holds (Chaos.run { base with schedule = lossy 0.2 0.1 }) in
  Alcotest.(check bool) "ops were sent" true (ctr o "update.ops.sent" > 0);
  Alcotest.(check bool) "losses forced retries" true
    (ctr o "update.ops.retried" > 0)

(* The paper's thesis as a property: random crash/reboot pairs across
   the servers for two days while changes trickle in every four hours;
   once the faults stop, every host holds what a fault-free run
   installs. *)
let test_random_crashes seed () =
  ignore @@ holds
  @@ Chaos.run
       { base with
         seed;
         workload = { trickle with writes = 10; every_min = 240 };
         schedule = Chaos.random_crashes ~seed }

(* The harshest fault level: 30% request and 20% reply loss throughout,
   half the fleet partitioned, two outages and a crash in the middle of
   an install, under a change every two hours. *)
let test_harsh_faults () =
  ignore @@ holds
  @@ Chaos.run
       { base with
         workload = { trickle with writes = 8; every_min = 120 };
         schedule =
           { (lossy 0.3 0.2) with
             timed =
               [ { fault = half_the_fleet; at_min = 300; for_min = 90 };
                 { fault = Outage (Managed 0); at_min = 480; for_min = 40 };
                 { fault = Outage (Managed 1); at_min = 660; for_min = 60 } ];
             crash_point = Some (Managed 0, "mid_install") } }

(* Three replicas under the same loss, one partitioned long enough to
   need catch-up, and the primary killed mid-propagation for 25
   minutes; reads every 30 s keep going through the kill. *)
let test_replicas_survive_primary_kill () =
  let o =
    holds @@ Chaos.run
      { base with
        replicas = 3;
        workload = { (client_writes 12 2) with reads = 4 };
        schedule =
          { (lossy 0.3 0.2) with
            timed = [ { fault = Partition [ Replica 0 ]; at_min = 2; for_min = 8 } ];
            kill_primary = Some (5, 25) } }
  in
  Alcotest.(check bool) "a read was served during the primary kill" true
    (List.exists (fun r -> r.Chaos.during_kill) o.Chaos.reads)

(* Journal-stamped commits reach the replicas and the serving hosts, at
   1x and 4x population, fault-free and under loss; the lossy 1x run
   replays byte for byte, and there the first committed write's own
   trace reaches every stage. *)
let test_commits_propagate ~scale ~schedule ~replay () =
  let o =
    holds @@ Chaos.run
      { base with
        replicas = 2; scale; workload = client_writes 4 15; schedule; replay }
  in
  Alcotest.(check bool) "a write committed" true (o.Chaos.journal <> []);
  Alcotest.(check bool) "a commit reached a replica" true
    (histogram_count o "prop.commit_to_replica_ms" > 0);
  Alcotest.(check bool) "a commit reached a serving host" true
    (histogram_count o "prop.commit_to_serving_ms" > 0);
  if replay then
    List.iter
      (fun stage ->
        Alcotest.(check bool) ("the first commit's trace reaches " ^ stage) true
          (List.exists
             (fun s -> s.Obs.sp_trace = List.hd o.Chaos.traces && s.Obs.sp_name = stage)
             o.Chaos.spans))
      [ "client.query"; "query"; "repl.apply"; "dcm.push"; "update.exec" ]

(* With a replica and lossy links, the span graph across every lane is
   well formed (the oracle), the commits crossed machines, and retried
   update ops show up under their push. *)
let test_cross_host_trace () =
  let o =
    holds @@ Chaos.run
      { base with
        replicas = 1; workload = client_writes 6 10; schedule = lossy 0.3 0.2 }
  in
  let has f = List.exists f o.Chaos.spans in
  Alcotest.(check bool) "replica applies present" true
    (has (fun s -> s.Obs.sp_name = "repl.apply"));
  Alcotest.(check bool) "loss forced visible retries" true
    (has (fun s ->
         s.Obs.sp_name = "update.op"
         && List.assoc_opt "attempt" s.Obs.sp_attrs <> Some "1"))

(* A fault-free mix of client reads and writes under the DCM cron
   leaves byte-identical telemetry in every lane when run twice. *)
let test_calm_replay () =
  ignore @@ holds
  @@ Chaos.run
       { base with workload = { (client_writes 10 8) with reads = 3 }; replay = true }

(* --- no oracle is vacuous ------------------------------------------- *)

(* One fault-free run with every oracle armed: replicas, Glue writes
   (so a fault-free baseline), reads and a rerun.  Each test below
   plants one violation in its record and expects [check] to name it. *)
let planted_base =
  lazy
    (Chaos.run
       { base with
         replicas = 2;
         workload = { trickle with writes = 3; every_min = 10; reads = 2 };
         replay = true })

let test_clean_run_holds () = ignore (holds (Lazy.force planted_base))

let caught ~needle plant () =
  let oc = Lazy.force planted_base in
  let observed = plant oc.Chaos.observed in
  match Chaos.check { oc with Chaos.observed } with
  | [] -> Alcotest.failf "no violation reported (wanted %S)" needle
  | vs ->
      Alcotest.(check bool) (Printf.sprintf "a violation names %S" needle) true
        (List.exists (fun v -> Test_obs.contains v needle) vs);
      Alcotest.(check bool) "messages name the seed" true
        (List.for_all (fun v -> Test_obs.contains v "seed 7") vs)

(* flip one byte: the first after the first line (a record's header),
   or the very first when there is one line *)
let perturb s =
  let at =
    match String.index_opt s '\n' with
    | Some i when i + 1 < String.length s -> i + 1
    | Some _ | None -> 0
  in
  String.mapi (fun i c -> if i = at then Char.chr (Char.code c lxor 1) else c) s

let tamper_installed o =
  match o.Chaos.installed with
  | (m, (path, contents) :: rest) :: machines ->
      { o with Chaos.installed = (m, (path, perturb contents) :: rest) :: machines }
  | _ -> Alcotest.fail "nothing installed"

let change_replica_row o =
  match o.Chaos.replica_dumps with
  | (m, dump) :: rest -> { o with Chaos.replica_dumps = (m, perturb dump) :: rest }
  | [] -> Alcotest.fail "no replicas"

let regress_read o =
  let login = fst (List.hd o.Chaos.acked) in
  let r v = { Chaos.login; version = v; ryw = None; during_kill = false } in
  { o with Chaos.reads = o.Chaos.reads @ [ r 1000; r 999 ] }

let drop_journal_entry o =
  let w = List.hd o.Chaos.acked in
  { o with Chaos.journal = List.filter (( <> ) w) o.Chaos.journal }

let bump_ops_sent o =
  let bump (n, v) = if n = "update.ops.sent" then (n, v + 1) else (n, v) in
  { o with Chaos.counters = List.map bump o.Chaos.counters }

let dangle_span o =
  let s = List.hd o.Chaos.spans in
  let orphan =
    { s with Obs.sp_id = s.Obs.sp_id ^ "-orphan"; sp_parent_id = Some "nowhere#1" }
  in
  { o with Chaos.spans = o.Chaos.spans @ [ orphan ] }

(* one byte of the first lane's registry dump *)
let perturb_lane_dump o = { o with Chaos.fingerprint = perturb o.Chaos.fingerprint }

let suite =
  [
    Alcotest.test_case "recovery sweep clears crash leftovers" `Quick
      test_recovery_sweep_clears_crash_leftovers;
    Alcotest.test_case "quarantine: one notification per incident" `Quick
      test_quarantine_one_notification_per_incident;
    Alcotest.test_case "notify falls back to mail" `Quick
      test_notify_falls_back_to_mail;
    Alcotest.test_case "notify drop is counted" `Quick
      test_notify_drop_is_counted;
    Alcotest.test_case "generator exception releases lock" `Quick
      test_generator_exception_releases_lock;
    Alcotest.test_case "host lock failure moves ltt" `Quick
      test_host_lock_failure_moves_ltt;
    Alcotest.test_case "restart resumes persisted retry state" `Quick
      test_restart_resumes_retry_state;
    Alcotest.test_case "telemetry accounts for every op" `Quick
      test_telemetry_accounts_for_every_op;
    Alcotest.test_case "converges under message loss" `Quick
      test_converges_under_message_loss;
  ]
  @ List.map
      (fun seed ->
        Alcotest.test_case
          (Printf.sprintf "random crashes converge (seed %d)" seed)
          `Quick (test_random_crashes seed))
      [ 11; 23; 47 ]
  @ [
      Alcotest.test_case "harsh faults: files match the fault-free run"
        `Quick test_harsh_faults;
      Alcotest.test_case "replicas survive loss and a primary kill" `Quick
        test_replicas_survive_primary_kill;
      Alcotest.test_case "commits propagate (1x)" `Quick
        (test_commits_propagate ~scale:1.0 ~schedule:Chaos.calm ~replay:false);
      Alcotest.test_case "commits propagate (4x)" `Quick
        (test_commits_propagate ~scale:4.0 ~schedule:Chaos.calm ~replay:false);
      Alcotest.test_case "commits propagate (1x, lossy, replayed)" `Quick
        (test_commits_propagate ~scale:1.0 ~schedule:(lossy 0.3 0.2)
           ~replay:true);
      Alcotest.test_case "commits propagate (4x, lossy)" `Quick
        (test_commits_propagate ~scale:4.0 ~schedule:(lossy 0.3 0.2)
           ~replay:false);
      Alcotest.test_case "cross-host trace well-formed under chaos" `Quick
        test_cross_host_trace;
      Alcotest.test_case "calm client workload replays byte-identically"
        `Quick test_calm_replay;
      Alcotest.test_case "oracles: clean run holds" `Quick
        test_clean_run_holds;
      Alcotest.test_case "oracles: tampered installed file" `Quick
        (caught ~needle:"differs from the fault-free run" tamper_installed);
      Alcotest.test_case "oracles: changed replica row" `Quick
        (caught ~needle:"differs from the primary" change_replica_row);
      Alcotest.test_case "oracles: regressed read" `Quick
        (caught ~needle:"monotonic reads" regress_read);
      Alcotest.test_case "oracles: acknowledged write not journaled" `Quick
        (caught ~needle:"is not in the journal" drop_journal_entry);
      Alcotest.test_case "oracles: bumped update.ops.sent" `Quick
        (caught ~needle:"update.ops.sent" bump_ops_sent);
      Alcotest.test_case "oracles: dangling span parent" `Quick
        (caught ~needle:"dangling parent" dangle_span);
      Alcotest.test_case "oracles: perturbed lane dump" `Quick
        (caught ~needle:"rerun with the same seed" perturb_lane_dump);
    ]
