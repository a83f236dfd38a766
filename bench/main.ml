(* The benchmark harness: one entry per table/figure/claim in the paper's
   evaluation (see DESIGN.md's experiment index and EXPERIMENTS.md for
   paper-vs-measured numbers).

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- table1  -- one experiment (table1, dcm,
                                            connect, glue, noop, backup,
                                            robust, access, dispatch)   *)

open Workload

(* BENCH_SMOKE=1 (CI): tiny populations, short quotas -- the point is to
   exercise every code path and the outputs-identical checks, not to
   produce publishable numbers. *)
let smoke = Sys.getenv_opt "BENCH_SMOKE" <> None

(* BENCH_SCALE=1 (opt-in, manual/nightly): extend the gen/qry sweeps to
   the 16x and 64x tiers and run the 1M-user headline.  Off by default
   -- a 64x campus takes minutes to build on one core. *)
let scale_tiers = (not smoke) && Sys.getenv_opt "BENCH_SCALE" <> None

let line = String.make 78 '-'

let header title =
  Printf.printf "\n%s\n%s\n%s\n%!" line title line

(* ------------------------------------------------------------------ *)
(* Bechamel plumbing for the real-time microbenchmarks.                *)

let run_bechamel ~name tests =
  let open Bechamel in
  let cfg =
    Benchmark.cfg ~limit:1000
      ~quota:(Time.second (if smoke then 0.1 else 0.5))
      ~kde:None ~stabilize:true ()
  in
  let measure = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ measure ] (Test.make_grouped ~name tests) in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols measure raw in
  let rows =
    Hashtbl.fold
      (fun key result acc ->
        match Analyze.OLS.estimates result with
        | Some (est :: _) -> (key, est) :: acc
        | _ -> acc)
      results []
  in
  List.iter
    (fun (key, est) ->
      if est >= 1_000_000.0 then
        Printf.printf "  %-46s %12.2f ms/op\n" key (est /. 1_000_000.)
      else if est >= 1_000.0 then
        Printf.printf "  %-46s %12.2f us/op\n" key (est /. 1_000.)
      else Printf.printf "  %-46s %12.1f ns/op\n" key est)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* T1: the File Organization table of section 5.1.G.                   *)

(* Paper values: service, file, size, number, propagations, interval *)
let paper_t1 =
  [
    ("HESIOD", "cluster.db", 53656, 1, 1, "6 hours");
    ("HESIOD", "filsys.db", 541482, 1, 1, "6 hours");
    ("HESIOD", "gid.db", 341012, 1, 1, "6 hours");
    ("HESIOD", "group.db", 453636, 1, 1, "6 hours");
    ("HESIOD", "grplist.db", 357662, 1, 1, "6 hours");
    ("HESIOD", "passwd.db", 712446, 1, 1, "6 hours");
    ("HESIOD", "pobox.db", 415688, 1, 1, "6 hours");
    ("HESIOD", "printcap.db", 4318, 1, 1, "6 hours");
    ("HESIOD", "service.db", 9052, 1, 1, "6 hours");
    ("HESIOD", "sloc.db", 3734, 1, 1, "6 hours");
    ("HESIOD", "uid.db", 256381, 1, 1, "6 hours");
    ("NFS", "<partition>.dirs", 2784, 20, 20, "12 hours");
    ("NFS", "<partition>.quotas", 1205, 20, 20, "12 hours");
    ("NFS", "credentials", 152648, 1, 20, "12 hours");
    ("MAIL", "/usr/lib/aliases", 445000, 1, 1, "24 hours");
    ("ZEPHYR", "class.acl", 100, 6, 18, "24 hours");
  ]

let mean = function
  | [] -> 0
  | xs -> List.fold_left ( + ) 0 xs / List.length xs

let interval_string mdb service =
  let tbl = Moira.Mdb.table mdb "servers" in
  match
    Relation.Table.select_one tbl (Relation.Pred.eq_str "name" service)
  with
  | Some (_, row) ->
      let minutes =
        Relation.Value.int (Relation.Table.field tbl row "update_int")
      in
      Printf.sprintf "%d hours" (minutes / 60)
  | None -> "?"

let bench_table1 () =
  header
    "T1 (section 5.1.G): File Organization -- synthetic 10,000-user Athena";
  Printf.printf "building paper-scale population, simulating 25 hours...\n%!";
  let tb = Testbed.create ~spec:Population.default () in
  Testbed.run_hours tb 25;
  let mdb = tb.Testbed.mdb in
  let built = tb.Testbed.built in
  let hes_hosts = Array.length built.Population.hesiod_machines in
  let nfs_hosts = Array.length built.Population.nfs_machines in
  let zep_hosts = Array.length built.Population.zephyr_machines in
  (* measured rows: (service, file, size, number, propagations) *)
  let measured = ref [] in
  let add service file size number props =
    measured := (service, file, size, number, props) :: !measured
  in
  (match Dcm.Manager.last_output tb.Testbed.dcm ~service:"HESIOD" with
  | Some out ->
      List.iter
        (fun (name, contents) ->
          add "HESIOD" name (Dcm.Sink.length contents) 1 hes_hosts)
        out.Dcm.Gen.common
  | None -> ());
  (match Dcm.Manager.last_output tb.Testbed.dcm ~service:"NFS" with
  | Some out ->
      let by_kind = Hashtbl.create 7 in
      List.iter
        (fun (_, files) ->
          List.iter
            (fun (name, contents) ->
              let kind =
                if name = "credentials" then "credentials"
                else if Filename.check_suffix name ".dirs" then
                  "<partition>.dirs"
                else "<partition>.quotas"
              in
              let sizes =
                Option.value (Hashtbl.find_opt by_kind kind) ~default:[]
              in
              Hashtbl.replace by_kind kind (Dcm.Sink.length contents :: sizes))
            files)
        out.Dcm.Gen.per_host;
      Hashtbl.iter
        (fun kind sizes ->
          let number =
            if kind = "credentials" then 1 else List.length sizes
          in
          add "NFS" kind (mean sizes) number nfs_hosts)
        by_kind
  | None -> ());
  (match Dcm.Manager.last_output tb.Testbed.dcm ~service:"MAIL" with
  | Some out ->
      List.iter
        (fun (name, contents) ->
          if name = "aliases" then
            add "MAIL" "/usr/lib/aliases" (Dcm.Sink.length contents) 1 1)
        out.Dcm.Gen.common
  | None -> ());
  (match Dcm.Manager.last_output tb.Testbed.dcm ~service:"ZEPHYR" with
  | Some out ->
      let sizes =
        List.map (fun (_, c) -> Dcm.Sink.length c) out.Dcm.Gen.common
      in
      add "ZEPHYR" "class.acl" (mean sizes) (List.length sizes)
        (List.length sizes * zep_hosts)
  | None -> ());
  let measured = List.rev !measured in
  Printf.printf "%-8s %-19s | %8s %4s %5s | %8s %4s %5s  %s\n" "Service"
    "File" "paper-sz" "num" "prop" "ours-sz" "num" "prop" "interval";
  Printf.printf "%s\n" line;
  List.iter
    (fun (svc, file, psize, pnum, pprop, _pint) ->
      let msize, mnum, mprop =
        match
          List.find_opt (fun (s, f, _, _, _) -> s = svc && f = file) measured
        with
        | Some (_, _, sz, num, prop) -> (sz, num, prop)
        | None -> (0, 0, 0)
      in
      Printf.printf "%-8s %-19s | %8d %4d %5d | %8d %4d %5d  %s\n" svc file
        psize pnum pprop msize mnum mprop
        (interval_string mdb svc))
    paper_t1;
  let files_total =
    List.fold_left (fun acc (_, _, _, n, _) -> acc + n) 0 measured
  in
  let props_total =
    List.fold_left (fun acc (_, _, _, _, p) -> acc + p) 0 measured
  in
  Printf.printf "%s\n" line;
  Printf.printf "%-28s | %8s %4d %5d | %8s %4d %5d\n" "TOTAL" "" 59 90 ""
    files_total props_total;
  Printf.printf
    "\n(our MAIL service also ships the mailhub /etc/passwd, which the\n\
    \ paper's table omits; it is excluded from the totals above)\n"

(* ------------------------------------------------------------------ *)
(* E2: incremental generation over a simulated day.                    *)

let bench_dcm () =
  header
    "E2 (section 5.1.E): files are generated/propagated only on change";
  let tb = Testbed.create ~spec:Population.small () in
  ignore
    (Sim.Engine.schedule tb.Testbed.engine
       ~at:(Sim.Engine.now tb.Testbed.engine + (9 * 3600 * 1000))
       "change"
       (fun () ->
         ignore
           (Moira.Glue.query tb.Testbed.glue ~name:"update_user_shell"
              [ tb.Testbed.built.Population.logins.(0); "/bin/changed" ])));
  Testbed.run_hours tb 26;
  let reports = Dcm.Manager.reports tb.Testbed.dcm in
  Printf.printf
    "26 simulated hours, DCM cron every 15 min (%d invocations); one\n\
     user change at t+9h.  Generation events:\n\n"
    (List.length reports);
  Printf.printf "%-10s %-8s %s\n" "t (h)" "service" "result";
  let t0 = (List.hd reports).Dcm.Manager.at in
  let shown = ref 0 in
  List.iter
    (fun r ->
      List.iter
        (fun s ->
          match s.Dcm.Manager.gen with
          | Dcm.Manager.Generated bytes ->
              incr shown;
              Printf.printf "%-10.2f %-8s generated %d bytes\n"
                (float_of_int (r.Dcm.Manager.at - t0) /. 3600.)
                s.Dcm.Manager.service bytes
          | _ -> ())
        r.Dcm.Manager.services)
    reports;
  let no_changes =
    List.fold_left
      (fun acc r ->
        acc
        + List.length
            (List.filter
               (fun s -> s.Dcm.Manager.gen = Dcm.Manager.No_change)
               r.Dcm.Manager.services))
      0 reports
  in
  Printf.printf
    "\ngeneration events: %d   MR_NO_CHANGE suppressions: %d\n\
     (first-ever builds at t+0.25h; the t+9h change regenerates each\n\
     service exactly once, at its next interval boundary)\n"
    !shown no_changes

(* ------------------------------------------------------------------ *)
(* E3: one backend per server vs one per connection (section 5.4).     *)

let session_cost ~backend n =
  let tb = Testbed.create ~backend () in
  let ws = tb.Testbed.built.Population.workstation_machines.(0) in
  let start = Sim.Engine.now tb.Testbed.engine in
  for _ = 1 to n do
    let c = Testbed.client tb ~src:ws in
    ignore
      (Moira.Mr_client.mr_connect c
         ~dst:tb.Testbed.built.Population.moira_machine);
    ignore (Moira.Mr_client.mr_query_list c ~name:"get_machine" [ "*" ]);
    ignore (Moira.Mr_client.mr_disconnect c)
  done;
  Sim.Engine.now tb.Testbed.engine - start

let bench_connect () =
  header
    "E3 (section 5.4): INGRES backend per server (Moira) vs per\n\
     connection (Athenareg), 1.5 s spawn cost -- simulated ms for N\n\
     one-query client sessions";
  Printf.printf "%6s %18s %18s %8s\n" "N" "moira (ms)" "athenareg (ms)"
    "slowdown";
  List.iter
    (fun n ->
      let m = session_cost ~backend:(Gdb.Server.Per_server 1500) n in
      let a = session_cost ~backend:(Gdb.Server.Per_connection 1500) n in
      Printf.printf "%6d %18d %18d %7.1fx\n" n m a
        (float_of_int a /. float_of_int (max 1 m)))
    [ 1; 5; 10; 20; 50 ]

(* ------------------------------------------------------------------ *)
(* E4: RPC application library vs direct glue library (section 5.6).   *)

let bench_glue () =
  header
    "E4 (section 5.6): direct \"glue\" library vs RPC application\n\
     library -- same query, real time per operation";
  let tb = Testbed.create () in
  let ws = tb.Testbed.built.Population.workstation_machines.(0) in
  let c = Testbed.admin_client tb ~src:ws in
  let login = tb.Testbed.built.Population.logins.(0) in
  run_bechamel ~name:"E4"
    [
      Bechamel.Test.make ~name:"rpc:get_user_by_login"
        (Bechamel.Staged.stage (fun () ->
             ignore
               (Moira.Mr_client.mr_query_list c ~name:"get_user_by_login"
                  [ login ])));
      Bechamel.Test.make ~name:"glue:get_user_by_login"
        (Bechamel.Staged.stage (fun () ->
             ignore
               (Moira.Glue.query tb.Testbed.glue ~name:"get_user_by_login"
                  [ login ])));
    ];
  let t0 = Sim.Engine.now tb.Testbed.engine in
  for _ = 1 to 100 do
    ignore
      (Moira.Mr_client.mr_query_list c ~name:"get_user_by_login" [ login ])
  done;
  let rpc_sim = Sim.Engine.now tb.Testbed.engine - t0 in
  let t0 = Sim.Engine.now tb.Testbed.engine in
  for _ = 1 to 100 do
    ignore
      (Moira.Glue.query tb.Testbed.glue ~name:"get_user_by_login" [ login ])
  done;
  let glue_sim = Sim.Engine.now tb.Testbed.engine - t0 in
  Printf.printf
    "\nsimulated network time for 100 queries: rpc %d ms, glue %d ms\n"
    rpc_sim glue_sim

(* ------------------------------------------------------------------ *)
(* E5: the Noop request -- RPC layer profiling (section 5.3).          *)

let bench_noop () =
  header "E5 (section 5.3): Noop round-trip and wire codec costs";
  let tb = Testbed.create () in
  let ws = tb.Testbed.built.Population.workstation_machines.(0) in
  let c = Testbed.admin_client tb ~src:ws in
  let req =
    {
      Gdb.Wire.version = Gdb.Wire.protocol_version;
      conn = 3;
      op = 18;
      args = [ "get_user_by_login"; "somebody" ];
      ctx = "";
    }
  in
  let encoded = Gdb.Wire.encode_request req in
  run_bechamel ~name:"E5"
    [
      Bechamel.Test.make ~name:"mr_noop round-trip"
        (Bechamel.Staged.stage (fun () ->
             ignore (Moira.Mr_client.mr_noop c)));
      Bechamel.Test.make ~name:"wire encode_request"
        (Bechamel.Staged.stage (fun () ->
             ignore (Gdb.Wire.encode_request req)));
      Bechamel.Test.make ~name:"wire decode_request"
        (Bechamel.Staged.stage (fun () ->
             ignore (Gdb.Wire.decode_request encoded)));
    ]

(* ------------------------------------------------------------------ *)
(* E6: the ASCII backup (section 5.2.2).                               *)

let bench_backup () =
  header
    "E6 (section 5.2.2): mrbackup dump of the full 10,000-user database\n\
     (paper: ~3.2 MB of ASCII)";
  let tb = Testbed.create ~spec:Population.default () in
  let mdb = tb.Testbed.mdb in
  Moira.Mdb.sync_tblstats mdb;
  let t0 = Unix.gettimeofday () in
  let dump = Relation.Backup.dump (Moira.Mdb.db mdb) in
  let dump_t = Unix.gettimeofday () -. t0 in
  let size =
    List.fold_left (fun acc (_, s) -> acc + String.length s) 0 dump
  in
  Printf.printf "dump: %d bytes (%.2f MB) in %.3f s real time\n" size
    (float_of_int size /. 1_048_576.)
    dump_t;
  List.iter
    (fun (name, contents) ->
      if String.length contents > 100_000 then
        Printf.printf "  %-14s %9d bytes\n" name (String.length contents))
    dump;
  let mdb2 =
    Moira.Mdb.create ~clock:(Sim.Engine.clock_sec tb.Testbed.engine)
  in
  let t0 = Unix.gettimeofday () in
  Relation.Backup.restore (Moira.Mdb.db mdb2) dump;
  Printf.printf "restore: %.3f s real time; users after restore: %d\n"
    (Unix.gettimeofday () -. t0)
    (Relation.Table.cardinal (Moira.Mdb.table mdb2 "users"));
  Printf.printf "journal entries available for replay: %d\n"
    (Relation.Journal.length (Moira.Mdb.journal mdb))

(* ------------------------------------------------------------------ *)
(* E7: update-protocol robustness sweep (section 5.9).                 *)

let hesiod_outcomes report =
  (List.find
     (fun s -> s.Dcm.Manager.service = "HESIOD")
     report.Dcm.Manager.services)
    .Dcm.Manager.hosts

let bench_robust () =
  header
    "E7 (section 5.9): automatic recovery from crashes at every window\n\
     of the update protocol";
  Printf.printf "%-16s %-34s %s\n" "crash point" "first attempt"
    "after reboot+retry";
  let failures = ref [] in
  List.iter
    (fun point ->
      let tb = Testbed.create () in
      let hes_machine, _ = Testbed.first_hesiod tb in
      let host = Testbed.host tb hes_machine in
      Netsim.Host.arm_crash host ~point;
      Sim.Engine.advance tb.Testbed.engine (7 * 3600 * 1000);
      let report = Dcm.Manager.run tb.Testbed.dcm in
      let outcome1 =
        match hesiod_outcomes report with
        | [ (_, Dcm.Manager.Updated _) ] -> "updated"
        | [ (_, Dcm.Manager.Soft_failed m) ] -> "soft failure: " ^ m
        | [ (_, Dcm.Manager.Hard_failed m) ] -> "HARD failure: " ^ m
        | _ -> "?"
      in
      if not (Netsim.Host.is_up host) then Netsim.Host.boot host;
      Sim.Engine.advance tb.Testbed.engine (7 * 3600 * 1000);
      let report = Dcm.Manager.run tb.Testbed.dcm in
      let outcome2 =
        match hesiod_outcomes report with
        | [ (_, Dcm.Manager.Updated _) ] -> "recovered"
        | [ (_, Dcm.Manager.Up_to_date) ] -> "already consistent"
        | _ -> "NOT recovered"
      in
      let trunc s n = if String.length s > n then String.sub s 0 n else s in
      Printf.printf "%-16s %-34s %s\n" point (trunc outcome1 34) outcome2;
      if
        String.starts_with ~prefix:"HARD" outcome1
        || outcome2 = "NOT recovered"
      then failures := (point ^ ": " ^ outcome1 ^ ", " ^ outcome2) :: !failures)
    [ "xfer"; "before_exec"; "mid_install"; "before_restart"; "after_exec" ];
  Printf.printf
    "\nlossy network, 26 simulated hours (propagations vs soft failures):\n";
  Printf.printf "%-10s %14s %14s\n" "drop rate" "propagations" "soft fails";
  List.iter
    (fun rate ->
      let tb = Testbed.create () in
      Netsim.Net.set_drop_rate tb.Testbed.net rate;
      Testbed.run_hours tb 26;
      let reports = Dcm.Manager.reports tb.Testbed.dcm in
      let props =
        List.fold_left (fun a r -> a + Dcm.Manager.propagations r) 0 reports
      in
      let softs =
        List.fold_left
          (fun a r ->
            a
            + List.fold_left
                (fun a s ->
                  a
                  + List.length
                      (List.filter
                         (fun (_, h) ->
                           match h with
                           | Dcm.Manager.Soft_failed _ -> true
                           | _ -> false)
                         s.Dcm.Manager.hosts))
                0 r.Dcm.Manager.services)
          0 reports
      in
      Printf.printf "%-10.2f %14d %14d\n" rate props softs)
    [ 0.0; 0.05; 0.2 ];
  Printf.printf
    "(soft failures are retried on later DCM passes; every host still\n\
    \ converges -- \"completely automatic update for normal cases and\n\
    \ expected kinds of failures\")\n";
  match List.rev !failures with
  | [] -> ()
  | fs ->
      List.iter (fun f -> Printf.eprintf "ROBUST FAILURE: %s\n" f) fs;
      exit 1

(* ------------------------------------------------------------------ *)
(* E8: the Access-then-Query double check (section 5.5).               *)

let bench_access () =
  header
    "E8 (section 5.5): access checks often run twice (Access RPC, then\n\
     the check inside Query) -- cost of the double check";
  let tb = Testbed.create () in
  let ws = tb.Testbed.built.Population.workstation_machines.(0) in
  let login = tb.Testbed.built.Population.logins.(0) in
  let c = Testbed.user_client tb ~src:ws ~login in
  let args = [ login; "/bin/sh" ] in
  let t0 = Sim.Engine.now tb.Testbed.engine in
  for _ = 1 to 100 do
    ignore
      (Moira.Mr_client.mr_query c ~name:"update_user_shell" args
         ~callback:(fun _ -> ()))
  done;
  let query_only = Sim.Engine.now tb.Testbed.engine - t0 in
  let t0 = Sim.Engine.now tb.Testbed.engine in
  for _ = 1 to 100 do
    ignore (Moira.Mr_client.mr_access c ~name:"update_user_shell" args);
    ignore
      (Moira.Mr_client.mr_query c ~name:"update_user_shell" args
         ~callback:(fun _ -> ()))
  done;
  let both = Sim.Engine.now tb.Testbed.engine - t0 in
  Printf.printf
    "simulated ms per 100 ops: query-only %d, access-then-query %d (%.2fx)\n"
    query_only both
    (float_of_int both /. float_of_int (max 1 query_only));
  let mdb = tb.Testbed.mdb in
  run_bechamel ~name:"E8"
    [
      Bechamel.Test.make ~name:"Acl.query_allowed (capacl walk)"
        (Bechamel.Staged.stage (fun () ->
             ignore
               (Moira.Acl.query_allowed mdb ~query:"update_user_shell"
                  ~login:"admin")));
    ];
  (* ablation: the access cache the paper anticipates (section 5.5),
     implemented as an extension — repeated Access requests hit the
     cache until a write flushes it *)
  let tbc = Testbed.create ~access_cache:true () in
  let wsc = tbc.Testbed.built.Population.workstation_machines.(0) in
  let loginc = tbc.Testbed.built.Population.logins.(0) in
  let cc = Testbed.user_client tbc ~src:wsc ~login:loginc in
  let argsc = [ loginc; "/bin/sh" ] in
  for _ = 1 to 1000 do
    ignore (Moira.Mr_client.mr_access cc ~name:"update_user_shell" argsc)
  done;
  let stats = Moira.Mr_server.access_cache_stats tbc.Testbed.server in
  Printf.printf
    "
access-cache ablation (1000 repeated Access requests):
    \  hits %d, misses %d -- the server-side check amortizes to a
    \  hashtable probe; the remaining cost is purely the RPC round-trip
"
    stats.Moira.Mr_server.hits stats.Moira.Mr_server.misses

(* ------------------------------------------------------------------ *)
(* Ablation: query-handle dispatch, hashtable vs linear scan.          *)

let bench_dispatch () =
  header
    "Ablation: query-handle dispatch -- registry hashtable vs linear\n\
     scan over the ~100-handle catalogue";
  let registry = Moira.Catalog.make () in
  let catalogue = Moira.Catalog.standard () in
  let linear_find name =
    List.find_opt
      (fun q -> q.Moira.Query.name = name || q.Moira.Query.short = name)
      catalogue
  in
  run_bechamel ~name:"dispatch"
    [
      Bechamel.Test.make ~name:"hashtable find (long name)"
        (Bechamel.Staged.stage (fun () ->
             ignore (Moira.Query.find registry "update_nfs_quota")));
      Bechamel.Test.make ~name:"hashtable find (short name)"
        (Bechamel.Staged.stage (fun () ->
             ignore (Moira.Query.find registry "unfq")));
      Bechamel.Test.make ~name:"linear scan (long name)"
        (Bechamel.Staged.stage (fun () ->
             ignore (linear_find "update_nfs_quota")));
    ]

(* ------------------------------------------------------------------ *)
(* Ablation: hesiod pseudo-cluster CNAME merging vs per-machine         *)
(* expansion (the cluster.db design choice DESIGN.md calls out).        *)

let bench_clusterdb () =
  header
    "Ablation: cluster.db pseudo-cluster CNAMEs (the implementation)\n\
     vs expanding every machine's cluster data in place";
  let tb = Testbed.create ~spec:Population.default () in
  let glue = tb.Testbed.glue in
  let mdb = Moira.Glue.mdb glue in
  let merged =
    match
      List.assoc_opt "cluster.db"
        (Dcm.Gen_hesiod.generator.Dcm.Gen.generate glue).Dcm.Gen.common
    with
    | Some c -> Dcm.Sink.length c
    | None -> 0
  in
  (* the naive alternative: no CNAMEs; every machine carries UNSPECA
     copies of all its clusters' data *)
  let svc = Moira.Mdb.table mdb "svc" in
  let mcmap = Moira.Mdb.table mdb "mcmap" in
  let expanded = Buffer.create 65536 in
  Relation.Table.fold mcmap ~init:() ~f:(fun () _ row ->
      let mach =
        Option.value
          (Moira.Lookup.machine_name mdb (Relation.Value.int row.(0)))
          ~default:"?"
      in
      List.iter
        (fun (_, srow) ->
          Buffer.add_string expanded
            (Printf.sprintf "%s.cluster HS UNSPECA \"%s %s\"\n" mach
               (Relation.Value.str srow.(1))
               (Relation.Value.str srow.(2))))
        (Relation.Table.select svc
           (Relation.Pred.eq_int "clu_id" (Relation.Value.int row.(1)))));
  Printf.printf
    "merged (pseudo-cluster CNAMEs): %7d bytes\n\
     expanded per machine:           %7d bytes (%.2fx)\n\
     (the CNAME design also means one shared record to update when a\n\
    \ cluster's data changes, instead of one per member machine)\n"
    merged (Buffer.length expanded)
    (float_of_int (Buffer.length expanded) /. float_of_int (max 1 merged))

(* ------------------------------------------------------------------ *)
(* Scale sweep: section 5.1.A says the system is "designed optimally    *)
(* for 10,000 active users" — how do the core costs grow around that    *)
(* point?                                                               *)

let bench_scale () =
  header
    "Scale sweep (section 5.1.A: \"designed optimally for 10,000 active\n\
     users\") -- build, hesiod generation, dump size vs population";
  Printf.printf "%8s %12s %14s %12s %14s\n" "users" "build (s)"
    "hesiod gen (s)" "dump (MB)" "passwd.db (KB)";
  List.iter
    (fun users ->
      let spec =
        { (Population.scaled Population.default
             (float_of_int users /. 10_000.))
          with Population.users }
      in
      let t0 = Unix.gettimeofday () in
      let tb = Testbed.create ~spec () in
      let build_t = Unix.gettimeofday () -. t0 in
      let t0 = Unix.gettimeofday () in
      let out = Dcm.Gen_hesiod.generator.Dcm.Gen.generate tb.Testbed.glue in
      let gen_t = Unix.gettimeofday () -. t0 in
      let passwd =
        match List.assoc_opt "passwd.db" out.Dcm.Gen.common with
        | Some c -> Dcm.Sink.length c
        | None -> 0
      in
      Moira.Mdb.sync_tblstats tb.Testbed.mdb;
      let dump = Relation.Backup.dump_size (Moira.Mdb.db tb.Testbed.mdb) in
      Printf.printf "%8d %12.2f %14.3f %12.2f %14d\n%!" users build_t gen_t
        (float_of_int dump /. 1_048_576.)
        (passwd / 1024))
    [ 1_000; 5_000; 10_000; 20_000 ];
  Printf.printf
    "(costs grow linearly in the population -- the design's full-extract\n\
    \ generators are exactly the thing later incremental Moira replaced)\n"

(* ------------------------------------------------------------------ *)
(* gen: incremental extraction -- membership closure vs the naive       *)
(* per-user ACL walk, file-grain rebuilds, and delta-push wire bytes.   *)

(* machine-readable results land in BENCH_dcm.json *)
type jv = I of int | F of float | S of string | B of bool | L of string list

let json_entries : (string * (string * jv) list) list ref = ref []
let json_add name fields = json_entries := (name, fields) :: !json_entries

let json_write path =
  let b = Buffer.create 4096 in
  let jstr s = "\"" ^ String.concat "\\\"" (String.split_on_char '"' s) ^ "\"" in
  let field (k, v) =
    Printf.sprintf "      %s: %s" (jstr k)
      (match v with
      | I i -> string_of_int i
      | F f -> Printf.sprintf "%.3f" f
      | S s -> jstr s
      | B b -> if b then "true" else "false"
      | L ss -> "[" ^ String.concat ", " (List.map jstr ss) ^ "]")
  in
  Buffer.add_string b "{\n  \"experiments\": [\n";
  List.iteri
    (fun i (name, fields) ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b "    {\n";
      Buffer.add_string b
        (String.concat ",\n"
           (field ("name", S name) :: List.map field fields));
      Buffer.add_string b "\n    }")
    (List.rev !json_entries);
  Buffer.add_string b "\n  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  json_entries := [];
  Printf.printf "\nwrote %s\n" path

let time_ms f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.)

(* -- memory accounting for the scale tiers: GC heap high-water and
      allocation counters ([Gc.quick_stat] reads counters, no heap
      walk), plus the kernel's peak-RSS for the whole process -- *)

let peak_heap_words () = (Gc.quick_stat ()).Gc.top_heap_words

(* cumulative words ever allocated; subtract two readings to get the
   allocation of the region between them *)
let allocated_words () =
  let st = Gc.quick_stat () in
  st.Gc.minor_words +. st.Gc.major_words -. st.Gc.promoted_words

let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan acc =
        match input_line ic with
        | exception End_of_file -> acc
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              scan
                (try
                   Scanf.sscanf
                     (String.sub line 6 (String.length line - 6))
                     " %d" (fun kb -> kb)
                 with Scanf.Scan_failure _ | Failure _ | End_of_file -> acc)
            else scan acc
      in
      let kb = scan 0 in
      close_in ic;
      kb

let mem_fields () =
  [
    ("peak_heap_words", I (peak_heap_words ()));
    ("peak_rss_kb", I (peak_rss_kb ()));
    ("intern_distinct", I Relation.Intern.stats.Relation.Intern.distinct);
    ("intern_bytes", I Relation.Intern.stats.Relation.Intern.bytes);
  ]

let part_of gen name =
  List.find (fun p -> p.Dcm.Gen.pname = name) gen.Dcm.Gen.parts

(* The old [Gen_util.ufield]: users-table resolution plus column lookup
   repeated on every field access, exactly as the pre-closure generators
   paid it. *)
let ufield mdb row col =
  Relation.Table.field (Moira.Mdb.table mdb "users") row col

(* The pre-closure grplist build, verbatim: a full reverse-BFS over the
   members relation for every active user. *)
let naive_grplist mdb =
  let lines = ref [] in
  List.iter
    (fun (_, row) ->
      let login = Relation.Value.str (ufield mdb row "login") in
      let users_id = Relation.Value.int (ufield mdb row "users_id") in
      let pairs = Dcm.Gen_util.group_pairs_naive mdb ~users_id ~login in
      if pairs <> [] then begin
        let rendered =
          String.concat ":"
            (List.map (fun (n, g) -> Printf.sprintf "%s:%d" n g) pairs)
        in
        lines :=
          Hesiod.Hes_db.format_unspeca ~key:(login ^ ".grplist") rendered
          :: !lines
      end)
    (Relation.Table.select (Moira.Mdb.table mdb "users")
       (Relation.Pred.eq_int "status" 1));
  ("grplist.db", Dcm.Gen_util.sorted_lines !lines)

(* The pre-closure aliases build: per-list member select with per-member
   name lookups and per-row Table.field column resolution. *)
let naive_aliases mdb =
  let open Relation in
  let render_member mtype mid =
    match mtype with
    | "USER" -> Moira.Lookup.user_login mdb mid
    | "LIST" -> Moira.Lookup.list_name mdb mid
    | _ -> Moira.Mdb.string_of_id mdb mid
  in
  let lists = Moira.Mdb.table mdb "list" in
  let members = Moira.Mdb.table mdb "members" in
  let buf = Buffer.create 65536 in
  let maillists =
    Table.select lists
      (Pred.conj [ Pred.eq_bool "maillist" true; Pred.eq_bool "active" true ])
    |> List.sort (fun (_, a) (_, b) ->
           String.compare
             (Value.str (Table.field lists a "name"))
             (Value.str (Table.field lists b "name")))
  in
  List.iter
    (fun (_, row) ->
      let name = Value.str (Table.field lists row "name") in
      let list_id = Value.int (Table.field lists row "list_id") in
      (match Value.str (Table.field lists row "acl_type") with
      | "USER" | "LIST" -> (
          let ace_id = Value.int (Table.field lists row "acl_id") in
          match
            render_member (Value.str (Table.field lists row "acl_type")) ace_id
          with
          | Some owner ->
              Buffer.add_string buf (Printf.sprintf "owner-%s: %s\n" name owner)
          | None -> ())
      | _ -> ());
      let ms =
        Table.select members (Pred.eq_int "list_id" list_id)
        |> List.filter_map (fun (_, m) ->
               render_member (Value.str m.(1)) (Value.int m.(2)))
        |> List.sort String.compare
      in
      Buffer.add_string buf
        (Printf.sprintf "%s: %s\n" name (String.concat ", " ms)))
    maillists;
  let pobox_lines = ref [] in
  List.iter
    (fun (_, row) ->
      if Value.str (ufield mdb row "potype") = "POP" then begin
        let login = Value.str (ufield mdb row "login") in
        match
          Moira.Lookup.machine_name mdb (Value.int (ufield mdb row "pop_id"))
        with
        | Some machine ->
            pobox_lines :=
              Printf.sprintf "%s: %s@%s.LOCAL" login login
                (String.uppercase_ascii (Dcm.Gen_util.short_host machine))
              :: !pobox_lines
        | None -> ()
      end)
    (Table.select (Moira.Mdb.table mdb "users") (Pred.eq_int "status" 1));
  Buffer.add_string buf
    (Dcm.Sink.to_string (Dcm.Gen_util.sorted_lines !pobox_lines));
  ("aliases", Dcm.Sink.of_string (Buffer.contents buf))

let hesiod_report report =
  List.find
    (fun s -> s.Dcm.Manager.service = "HESIOD")
    report.Dcm.Manager.services

let first_updated_bytes srep =
  List.fold_left
    (fun acc (_, h) ->
      match (acc, h) with
      | None, Dcm.Manager.Updated { bytes; _ } -> Some bytes
      | _ -> acc)
    None srep.Dcm.Manager.hosts

let bench_gen () =
  header
    "gen: incremental extraction -- closure vs naive ACL walk, file-grain\n\
     rebuilds, delta-push wire bytes (BENCH_dcm.json)";

  (* -- part A: grplist/aliases extraction, naive vs closure, at 1x -- *)
  let base_scale = if smoke then 0.2 else 1.0 in
  let rounds n = if smoke then 1 else n in
  Printf.printf "building paper-scale population (%gx)...\n%!" base_scale;
  let spec1 = Population.scaled Population.default base_scale in
  let tb = Testbed.create ~spec:spec1 ~dcm_every_min:1_000_000 () in
  let glue = tb.Testbed.glue in
  let mdb = tb.Testbed.mdb in
  let users1 = Relation.Table.cardinal (Moira.Mdb.table mdb "users") in
  let best_of ?(prep = fun () -> ()) n f =
    prep ();
    let result = ref (f ()) in
    let best = ref infinity in
    for _ = 1 to n do
      prep ();
      Gc.full_major ();
      let r, t = time_ms f in
      result := r;
      if t < !best then best := t
    done;
    (!result, !best)
  in
  (* Every timed run is preceded by a one-user shell edit, so the numbers
     answer the acceptance question directly: how long does grplist and
     aliases extraction take after a single-user change?  The edit
     dirties the users relation -- invalidating every users-keyed memo --
     but not members, so the membership closure stays memoized, which is
     exactly the steady state the incremental design targets. *)
  let utbl = Moira.Mdb.table mdb "users" in
  let flip = ref false in
  let touch_user () =
    flip := not !flip;
    let shell = if !flip then "/bin/csh" else "/bin/sh" in
    ignore
      (Relation.Table.set_fields utbl
         (Relation.Pred.eq_str "login" tb.Testbed.built.Population.logins.(0))
         [ ("shell", Relation.Value.Str shell) ])
  in
  let ((_, n_grp_out), n_grp) =
    best_of ~prep:touch_user (rounds 5) (fun () -> naive_grplist mdb)
  in
  let ((_, n_ali_out), n_ali) =
    best_of ~prep:touch_user (rounds 5) (fun () -> naive_aliases mdb)
  in
  let grp_part = part_of Dcm.Gen_hesiod.generator "grplist" in
  let ali_part = part_of Dcm.Gen_mail.generator "aliases" in
  (* the one-pass closure is rebuilt only when members changes and is
     shared by every part (grplist, aliases, ...); measure it apart *)
  let (_, t_closure) = best_of (rounds 3) (fun () -> Moira.Closure.build mdb) in
  let (c_grp_out, c_grp) =
    best_of ~prep:touch_user (rounds 9) (fun () -> grp_part.Dcm.Gen.pbuild glue)
  in
  let (c_ali_out, c_ali) =
    best_of ~prep:touch_user (rounds 9) (fun () -> ali_part.Dcm.Gen.pbuild glue)
  in
  let file out name = List.assoc name out.Dcm.Gen.common in
  (* chunk-layout-agnostic byte comparison: the closure path streams
     while the naive path materializes *)
  let identical =
    Dcm.Sink.equal (file c_grp_out "grplist.db") n_grp_out
    && Dcm.Sink.equal (file c_ali_out "aliases") n_ali_out
  in
  let speedup = (n_grp +. n_ali) /. (c_grp +. c_ali) in
  let speedup_cold = (n_grp +. n_ali) /. (c_grp +. c_ali +. t_closure) in
  Printf.printf
    "%-36s %10.1f ms\n%-36s %10.1f ms\n%-36s %10.1f ms\n%-36s %10.1f ms\n\
     %-36s %10.1f ms\n%-36s %9.1fx\n%-36s %9.1fx\n%-36s %10b\n"
    "naive grplist (per-user BFS)" n_grp "naive aliases (per-member selects)"
    n_ali "closure build (shared, memoized)" t_closure "closure grplist"
    c_grp "closure aliases" c_ali "grplist+aliases speedup" speedup
    "  incl. one-off closure build" speedup_cold
    "outputs byte-identical" identical;
  if not identical then failwith "closure output diverges from naive";
  json_add "closure_vs_naive"
    [
      ("users", I users1);
      ("protocol",
       S "one-user shell edit before every timed run; members unchanged \
          so the closure memo stays warm");
      ("naive_grplist_ms", F n_grp);
      ("naive_aliases_ms", F n_ali);
      ("closure_build_ms", F t_closure);
      ("closure_grplist_ms", F c_grp);
      ("closure_aliases_ms", F c_ali);
      ("speedup", F speedup);
      ("speedup_incl_closure_build", F speedup_cold);
      ("outputs_identical", B identical);
    ];

  (* -- part B: full vs incremental DCM pass and wire bytes, 1x/2x/4x -- *)
  Printf.printf
    "\n%8s %8s | %12s %12s | %10s %10s %7s | %s\n" "scale" "users"
    "full (ms)" "incr (ms)" "full-push" "delta-push" "ratio"
    "rebuilt (spliced)";
  List.iter
    (fun scale ->
      let tb =
        if scale = base_scale then tb
        else
          Testbed.create
            ~spec:(Population.scaled Population.default scale)
            ~dcm_every_min:1_000_000 ()
      in
      let users =
        Relation.Table.cardinal (Moira.Mdb.table tb.Testbed.mdb "users")
      in
      (* client-side full-archive materializations: the streaming member
         checksum should make these 0 on the delta path *)
      let full_packs () =
        Option.value
          (Obs.find_counter (Testbed.obs tb) "update.client.full_packs")
          ~default:0
      in
      (* first-ever pass: every service generates in full, every host
         gets a full-archive push *)
      Sim.Engine.advance tb.Testbed.engine (7 * 3600 * 1000);
      let packs0 = full_packs () in
      let alloc0 = allocated_words () in
      let (full_report, full_ms) =
        time_ms (fun () -> Dcm.Manager.run tb.Testbed.dcm)
      in
      let alloc_full = allocated_words () -. alloc0 in
      let packs_first = full_packs () - packs0 in
      let hes_full = hesiod_report full_report in
      let full_bytes = Option.value (first_updated_bytes hes_full) ~default:0 in
      (* one user changes their shell; at +14h only HESIOD (6h interval)
         is due again *)
      (match
         Moira.Glue.query tb.Testbed.glue ~name:"update_user_shell"
           [ tb.Testbed.built.Population.logins.(0); "/bin/newshell" ]
       with
      | Ok _ -> ()
      | Error c -> failwith (Comerr.Com_err.error_message c));
      Sim.Engine.advance tb.Testbed.engine (7 * 3600 * 1000);
      let packs1 = full_packs () in
      let alloc1 = allocated_words () in
      let (incr_report, incr_ms) =
        time_ms (fun () -> Dcm.Manager.run tb.Testbed.dcm)
      in
      let alloc_incr = allocated_words () -. alloc1 in
      let packs_incr = full_packs () - packs1 in
      let hes_incr = hesiod_report incr_report in
      let delta_bytes =
        Option.value (first_updated_bytes hes_incr) ~default:0
      in
      let ratio = float_of_int delta_bytes /. float_of_int (max 1 full_bytes) in
      Printf.printf "%8.0fx %8d | %12.1f %12.1f | %10d %10d %6.1f%% | %s (%d)\n%!"
        scale users full_ms incr_ms full_bytes delta_bytes (100. *. ratio)
        (String.concat "," hes_incr.Dcm.Manager.rebuilt)
        hes_incr.Dcm.Manager.spliced;
      json_add (Printf.sprintf "gen_%.0fx" scale)
        ([
          ("users", I users);
          ("full_gen_ms", F full_ms);
          ("incremental_gen_ms", F incr_ms);
          ("propagations_full", I (Dcm.Manager.propagations full_report));
          ("propagations_incremental",
           I (Dcm.Manager.propagations incr_report));
          ("hesiod_full_push_bytes", I full_bytes);
          ("hesiod_delta_push_bytes", I delta_bytes);
          ("delta_to_full_ratio", F ratio);
          ("client_full_packs_first_push", I packs_first);
          ("client_full_packs_incremental", I packs_incr);
          ("rebuilt", L hes_incr.Dcm.Manager.rebuilt);
          ("spliced", I hes_incr.Dcm.Manager.spliced);
          ("alloc_words_full_cycle", F alloc_full);
          ("alloc_words_incremental_cycle", F alloc_incr);
        ]
        @ mem_fields ()))
    (if smoke then [ base_scale ]
     else if scale_tiers then [ 1.0; 2.0; 4.0; 16.0; 64.0 ]
     else [ 1.0; 2.0; 4.0 ]);
  Printf.printf
    "\n(a single-user change rebuilds only the parts watching the users\n\
    \ relation and ships member deltas: well under 10%% of the archive)\n";

  (* -- part C: the 1M-user headline.  The push fleet is exercised at
        16x/64x above; at 1M the question is whether the database and
        the generators fit and stream, so this run stops after
        generation: build + hesiod extraction + memory accounting. -- *)
  if scale_tiers then begin
    Printf.printf "\nbuilding the 1M-user campus (headline run)...\n%!";
    let spec =
      {
        (Population.scaled Population.default 100.) with
        Population.users = 1_000_000;
      }
    in
    let tb, build_ms =
      time_ms (fun () -> Testbed.create ~spec ~dcm_every_min:1_000_000 ())
    in
    let users =
      Relation.Table.cardinal (Moira.Mdb.table tb.Testbed.mdb "users")
    in
    let alloc0 = allocated_words () in
    let out, gen_ms =
      time_ms (fun () ->
          Dcm.Gen_hesiod.generator.Dcm.Gen.generate tb.Testbed.glue)
    in
    let gen_alloc = allocated_words () -. alloc0 in
    let bytes =
      List.fold_left
        (fun acc (_, d) -> acc + Dcm.Sink.length d)
        0 out.Dcm.Gen.common
    in
    let st = Relation.Intern.stats in
    Printf.printf
      "1M headline: %d users; build %.1f s, hesiod gen %.1f s (%d bytes)\n\
       peak heap %d Mwords, peak RSS %d MB, gen alloc %.0f Mwords\n\
       intern pool: %d distinct strings, %d KB\n%!"
      users (build_ms /. 1000.) (gen_ms /. 1000.) bytes
      (peak_heap_words () / 1_000_000)
      (peak_rss_kb () / 1024)
      (gen_alloc /. 1_000_000.)
      st.Relation.Intern.distinct
      (st.Relation.Intern.bytes / 1024);
    json_add "scale_1m"
      ([
         ("users", I users);
         ("build_ms", F build_ms);
         ("hesiod_gen_ms", F gen_ms);
         ("hesiod_bytes", I bytes);
         ("gen_alloc_words", F gen_alloc);
       ]
      @ mem_fields ())
  end;
  json_write "BENCH_dcm.json"

(* ------------------------------------------------------------------ *)
(* qry: compiled query plans + the named-query plan cache vs naive      *)
(* per-row predicate evaluation (BENCH_query.json).                     *)

(* The pre-planner evaluation strategy, verbatim: walk every row and run
   [Pred.eval], which resolves each column name through the schema
   hashtable on every row.  This is what every glob, range, OR and
   case-folded lookup cost before the planner, and what un-indexed
   queries still cost. *)
let naive_select t p =
  let schema = Relation.Table.schema t in
  List.rev
    (Relation.Table.fold t ~init:[] ~f:(fun acc id row ->
         if Relation.Pred.eval schema p row then (id, row) :: acc else acc))

let bench_qry () =
  header
    "qry: compiled plans + plan cache vs naive predicate evaluation\n\
     (BENCH_query.json)";
  let scales =
    if smoke then [ 0.2 ]
    else if scale_tiers then [ 1.0; 2.0; 4.0; 16.0; 64.0 ]
    else [ 1.0; 2.0; 4.0 ]
  in
  let rounds = if smoke then 2 else 5 in
  (* per-op real time: calibrate an iteration count off one run, then
     take the best of [rounds] timed loops *)
  let time_per_op_us f =
    let (_, once_ms) = time_ms f in
    let iters =
      max 1 (min 200_000 (int_of_float (20.0 /. max 0.0005 once_ms)))
    in
    let best = ref infinity in
    for _ = 1 to rounds do
      Gc.full_major ();
      let t0 = Unix.gettimeofday () in
      for _ = 1 to iters do
        ignore (f ())
      done;
      let t = Unix.gettimeofday () -. t0 in
      if t < !best then best := t
    done;
    !best /. float_of_int iters *. 1_000_000.
  in
  List.iter
    (fun scale ->
      Printf.printf "\nbuilding %gx population...\n%!" scale;
      let tb =
        Testbed.create
          ~spec:(Population.scaled Population.default scale)
          ~dcm_every_min:1_000_000 ()
      in
      let mdb = tb.Testbed.mdb in
      let users = Moira.Mdb.table mdb "users" in
      let n_users = Relation.Table.cardinal users in
      let logins = tb.Testbed.built.Population.logins in
      let pick i = logins.(i * Array.length logins / 8) in
      let mid = pick 4 in
      let prefix = String.sub mid 0 (min 3 (String.length mid)) in
      (* a uid window covering roughly 1% of the population *)
      let uids =
        List.sort Int.compare
          (Relation.Table.fold users ~init:[] ~f:(fun acc _ row ->
               Relation.Value.int row.(2) :: acc))
      in
      let nth_uid n = List.nth uids (min n (List.length uids - 1)) in
      let uid_lo = nth_uid (n_users / 4) in
      let uid_hi = nth_uid ((n_users / 4) + max 4 (n_users / 100)) in
      let open Relation in
      let queries =
        [
          ("eq_indexed", Pred.eq_str "login" mid);
          ( "or_of_eqs",
            Pred.disj
              [
                Pred.eq_str "login" (pick 1);
                Pred.eq_str "login" (pick 2);
                Pred.eq_str "login" mid;
              ] );
          ("prefix_glob", Pred.Glob ("login", prefix ^ "*"));
          ( "range_uid",
            Pred.And
              (Pred.Ge ("uid", Value.Int uid_lo),
               Pred.Lt ("uid", Value.Int uid_hi)) );
          ("fold_eq", Pred.Glob_fold ("login", String.uppercase_ascii mid));
        ]
      in
      Printf.printf "%-12s %5s | %10s %10s %10s | %7s %7s | %s\n" "query"
        "rows" "naive us" "compile us" "cached us" "vs-cmp" "vs-hot" "path";
      List.iter
        (fun (qname, pred) ->
          let expected = naive_select users pred in
          (* compiled-but-uncached: drop the table's plans before every
             call, so each one compiles its shape afresh *)
          let compiled_once () =
            Table.reset_plans users;
            Table.select users pred
          in
          let identical =
            compiled_once () = expected && Table.select users pred = expected
          in
          if not identical then
            failwith ("plan output diverges from naive eval: " ^ qname);
          let naive_us = time_per_op_us (fun () -> naive_select users pred) in
          let compiled_us = time_per_op_us compiled_once in
          let cached_us = time_per_op_us (fun () -> Table.select users pred) in
          let path = Table.explain users pred in
          Printf.printf
            "%-12s %5d | %10.2f %10.2f %10.2f | %6.1fx %6.1fx | %s\n%!" qname
            (List.length expected) naive_us compiled_us cached_us
            (naive_us /. compiled_us) (naive_us /. cached_us) path;
          json_add (Printf.sprintf "qry_%s_%gx" qname scale)
            [
              ("scale", F scale);
              ("users", I n_users);
              ("rows_returned", I (List.length expected));
              ("naive_us", F naive_us);
              ("compiled_us", F compiled_us);
              ("cached_us", F cached_us);
              ("speedup_compiled", F (naive_us /. compiled_us));
              ("speedup_cached", F (naive_us /. cached_us));
              ("path", S path);
              ("outputs_identical", B identical);
            ])
        queries;
      (* server-side dispatch: the full named-query path (registry find,
         access check, handler, projection) through the glue library,
         with warm plans vs the cache reset before every call *)
      let glue = tb.Testbed.glue in
      let dispatch () =
        match Moira.Glue.query glue ~name:"get_user_by_login" [ mid ] with
        | Ok _ -> ()
        | Error c -> failwith (Comerr.Com_err.error_message c)
      in
      ignore (dispatch ());
      let warm_us = time_per_op_us dispatch in
      let tables = Relation.Db.tables (Moira.Mdb.db mdb) in
      let cold_us =
        time_per_op_us (fun () ->
            List.iter (fun (_, t) -> Relation.Table.reset_plans t) tables;
            dispatch ())
      in
      Printf.printf
        "dispatch get_user_by_login: warm-cache %.2f us/op (%.0f qps), \
         cache-reset %.2f us/op\n%!"
        warm_us (1_000_000. /. warm_us) cold_us;
      json_add (Printf.sprintf "qry_dispatch_%gx" scale)
        ([
           ("scale", F scale);
           ("users", I n_users);
           ("query", S "get_user_by_login");
           ("warm_cache_us", F warm_us);
           ("warm_cache_qps", F (1_000_000. /. warm_us));
           ("cache_reset_us", F cold_us);
         ]
        @ mem_fields ()))
    scales;
  json_write "BENCH_query.json"

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* E12: the chaos harness — convergence under injected faults.         *)
(* CHAOS_SMOKE=1 (CI): fewer fault levels, same assertions.            *)

let chaos_smoke = Sys.getenv_opt "CHAOS_SMOKE" <> None || smoke

(* Every enabled host of every enabled, generated service has caught up
   with the current data file generation and carries no host error; the
   service itself has re-checked for changes after [after] (engine
   seconds), so "current generation" really includes the last trickled
   change rather than a stale pre-change one. *)
let chaos_converged ?(after = 0) tb =
  let db = tb.Testbed.mdb in
  let servers = Moira.Mdb.table db "servers" in
  let shosts = Moira.Mdb.table db "serverhosts" in
  Relation.Table.fold shosts ~init:true ~f:(fun ok _ row ->
      ok
      &&
      let field c = Relation.Table.field shosts row c in
      if not (Relation.Value.bool (field "enable")) then true
      else
        let service = Relation.Value.str (field "service") in
        match
          Relation.Table.select_one servers
            (Relation.Pred.eq_str "name" service)
        with
        | None -> true
        | Some (_, srow) ->
            let sfield c = Relation.Table.field servers srow c in
            if
              (not (Relation.Value.bool (sfield "enable")))
              || Relation.Value.int (sfield "update_int") <= 0
            then true
            else
              Relation.Value.int (sfield "harderror") = 0
              && Relation.Value.int (sfield "dfcheck") >= after
              && Relation.Value.int (field "hosterror") = 0
              && Relation.Value.int (field "lts")
                 >= Relation.Value.int (sfield "dfgen"))

(* The same change trickle for every run: one shell update every two
   hours, so there is always something to propagate. *)
let chaos_changes tb =
  let logins = tb.Testbed.built.Population.logins in
  for i = 1 to 8 do
    ignore
      (Sim.Engine.schedule tb.Testbed.engine
         ~at:(Sim.Engine.now tb.Testbed.engine + (i * 2 * 3600_000))
         "chaos-change"
         (fun () ->
           ignore
             (Moira.Glue.query tb.Testbed.glue ~name:"update_user_shell"
                [
                  logins.(i mod Array.length logins);
                  Printf.sprintf "/bin/chaos%d" i;
                ])))
  done

(* One run at one fault level.  [drop] and [reply_drop] persist for the
   whole run; on top of them the faulty runs get a partition window, two
   scheduled crash/reboot outages, and one guaranteed mid-push crash
   (armed [mid_install] point, host rebooted an hour in). *)
let chaos_run ~drop ~reply_drop =
  let tb = Testbed.create () in
  chaos_changes tb;
  let faulty = drop > 0.0 || reply_drop > 0.0 in
  if faulty then begin
    let net = tb.Testbed.net in
    let now = Sim.Engine.now tb.Testbed.engine in
    Netsim.Net.set_drop_rate net drop;
    Netsim.Net.set_reply_drop_rate net reply_drop;
    let managed = Testbed.managed_machines tb in
    let half = List.filteri (fun i _ -> i mod 2 = 0) managed in
    Netsim.Net.partition_window net ~hosts:half
      ~at:(now + (5 * 3600_000))
      ~duration_ms:(90 * 60_000);
    List.iteri
      (fun i m ->
        if i < 2 then
          Netsim.Net.schedule_outage net ~host:m
            ~at:(now + ((8 + (3 * i)) * 3600_000))
            ~duration_ms:((40 + (20 * i)) * 60_000))
      managed;
    let hes_machine, _ = Testbed.first_hesiod tb in
    Netsim.Host.arm_crash (Testbed.host tb hes_machine) ~point:"mid_install";
    ignore
      (Sim.Engine.schedule tb.Testbed.engine
         ~at:(now + 3600_000)
         "chaos-reboot"
         (fun () ->
           let h = Testbed.host tb hes_machine in
           if not (Netsim.Host.is_up h) then Netsim.Host.boot h))
  end;
  (* fault phase: all scheduled faults land inside these 18 hours (the
     loss rates stay on for the whole run) *)
  Testbed.run_hours tb 18;
  (* the last change lands at 16h: convergence means every service
     re-checked after it AND every host caught up with the result *)
  let cutoff = (Testbed.epoch_1988_ms / 1000) + (16 * 3600) in
  let cycles = ref 0 in
  while (not (chaos_converged ~after:cutoff tb)) && !cycles < 200 do
    Testbed.run_minutes tb 15;
    incr cycles
  done;
  (tb, !cycles, chaos_converged ~after:cutoff tb)

let bench_chaos () =
  header
    "E12: chaos harness -- eventual convergence under request loss,\n\
     reply loss, partitions and crash/reboot cycles (sections 5.7, 5.9)";
  let levels =
    if chaos_smoke then [ (0.0, 0.0); (0.3, 0.2) ]
    else [ (0.0, 0.0); (0.1, 0.05); (0.2, 0.1); (0.3, 0.2) ]
  in
  Printf.printf "%-18s %8s %8s %10s %12s %9s\n" "drop/reply-loss" "cycles"
    "hours" "retries" "wasted KB" "identical";
  let baseline_state = ref None in
  let failures = ref [] in
  List.iter
    (fun (drop, reply_drop) ->
      let tb, cycles, converged = chaos_run ~drop ~reply_drop in
      let hours =
        (Sim.Engine.now tb.Testbed.engine - Testbed.epoch_1988_ms)
        / 3600_000
      in
      let state = Testbed.installed_state tb in
      let identical =
        match !baseline_state with
        | None ->
            baseline_state := Some state;
            true
        | Some base -> state = base
      in
      let reports = Dcm.Manager.reports tb.Testbed.dcm in
      (* whole-run telemetry straight from the registry (the per-report
         fields are deltas of these same counters) *)
      let o = Testbed.obs tb in
      let ctr name = Option.value ~default:0 (Obs.find_counter o name) in
      let retries = ctr "dcm.retries" in
      let ops_sent = ctr "update.ops.sent" in
      let ops_ok = ctr "update.ops.ok" in
      let ops_retried = ctr "update.ops.retried" in
      let ops_failed =
        List.fold_left
          (fun a (n, v) ->
            if Obs.glob_match "update.ops.failed.*" n then a + v else a)
          0 (Obs.counters o)
      in
      let count pred =
        List.fold_left
          (fun a r ->
            a
            + List.fold_left
                (fun a s ->
                  a
                  + List.length
                      (List.filter (fun (_, h) -> pred h) s.Dcm.Manager.hosts))
                0 r.Dcm.Manager.services)
          0 reports
      in
      let incidents =
        count (function
          | Dcm.Manager.Hard_failed _ | Dcm.Manager.Quarantined _ -> true
          | _ -> false)
      in
      let ns = Netsim.Net.stats tb.Testbed.net in
      let name = Printf.sprintf "chaos_drop%.2f_reply%.2f" drop reply_drop in
      if not converged then failures := (name ^ ": did not converge") :: !failures;
      if not identical then
        failures := (name ^ ": installed files differ from baseline") :: !failures;
      (* every protocol operation is accounted for: it either succeeded,
         was retried, or ended in a counted failure kind *)
      if ops_sent <> ops_ok + ops_retried + ops_failed then
        failures :=
          Printf.sprintf "%s: ops unaccounted (%d sent <> %d ok + %d retried + %d failed)"
            name ops_sent ops_ok ops_retried ops_failed
          :: !failures;
      json_add name
        [
          ("drop_rate", F drop);
          ("reply_drop_rate", F reply_drop);
          ("converged", B converged);
          ("cycles_to_converge", I cycles);
          ("hours_to_converge", I hours);
          ("files_identical_to_baseline", B identical);
          ("retries", I retries);
          ("incidents", I incidents);
          ("wasted_wire_bytes", I ns.Netsim.Net.wasted_bytes);
          ("calls", I ns.Netsim.Net.calls);
          ("req_dropped", I ns.Netsim.Net.req_dropped);
          ("reply_dropped", I ns.Netsim.Net.reply_dropped);
          ("partitioned_calls", I ns.Netsim.Net.partitioned);
          ("ops_sent", I ops_sent);
          ("ops_ok", I ops_ok);
          ("ops_retried", I ops_retried);
          ("ops_failed", I ops_failed);
          ("notices_sent", I (ctr "dcm.notices.sent"));
          ("notices_dropped", I (ctr "dcm.notices.dropped"));
        ];
      Printf.printf "%5.2f / %-9.2f %8d %8d %10d %12d %9b\n" drop reply_drop
        cycles hours retries
        (ns.Netsim.Net.wasted_bytes / 1024)
        identical)
    levels;
  json_write "BENCH_chaos.json";
  match !failures with
  | [] ->
      Printf.printf
        "all fault levels converged with installed files byte-identical to\n\
         the fault-free run\n"
  | fs ->
      List.iter (fun f -> Printf.eprintf "CHAOS FAILURE: %s\n" f) fs;
      exit 1

(* ------------------------------------------------------------------ *)
(* obs: the observability layer end to end -- per-query latency         *)
(* quantiles, plan-cache hit rate, DCM cycle breakdown, registry        *)
(* determinism across identical seeded runs, and a Chrome-loadable      *)
(* trace (BENCH_obs.json, trace.json).  OBS_SMOKE=1 (CI) shrinks it.    *)

let obs_smoke = Sys.getenv_opt "OBS_SMOKE" <> None || smoke
let obs_queries = if obs_smoke then 40 else 160

(* A deterministic mixed workload: reads and writes trickling in over
   simulated hours while the DCM cron fires — everything the PR wires
   up (query spans, client latency histograms, plan cache, DCM span
   tree, net counters) gets exercised. *)
let obs_run () =
  let tb = Testbed.create () in
  let o = Testbed.obs tb in
  Netsim.Net.set_trace_calls tb.Testbed.net true;
  let ws = tb.Testbed.built.Population.workstation_machines.(0) in
  let c = Testbed.admin_client tb ~src:ws in
  let logins = tb.Testbed.built.Population.logins in
  for i = 0 to obs_queries - 1 do
    let login = logins.(i mod Array.length logins) in
    (match i mod 4 with
    | 3 ->
        ignore
          (Moira.Mr_client.mr_query c ~name:"update_user_shell"
             [ login; Printf.sprintf "/bin/obs%d" i ]
             ~callback:(fun _ -> ()))
    | _ ->
        ignore
          (Moira.Mr_client.mr_query_list c ~name:"get_user_by_login" [ login ]));
    Testbed.run_minutes tb 2
  done;
  Testbed.run_hours tb 1;
  (* the registry surfaced through the Moira wire protocol — part of the
     workload (not just the demo below) so both determinism runs are
     identical query-for-query *)
  let stat_rows =
    match
      Moira.Mr_client.mr_query_list c ~name:"_get_server_statistics"
        [ "dcm.*" ]
    with
    | Ok rows -> rows
    | Error _ -> []
  in
  (tb, stat_rows, o)

let span_stats o name =
  let spans =
    List.filter (fun s -> s.Obs.sp_name = name) (Obs.completed_spans o)
  in
  (List.length spans, List.fold_left (fun a s -> a + s.Obs.sp_dur_ms) 0 spans)

let bench_obs () =
  header
    "obs: sim-time observability -- query latency quantiles, plan-cache\n\
     hit rate, DCM cycle breakdown, registry determinism, Chrome trace\n\
     (BENCH_obs.json, trace.json)";
  let _tb, stat_rows, o = obs_run () in
  (* fingerprint before anything below perturbs the registry *)
  let dump1 = Obs.dump o in
  let h name =
    match Obs.find_histogram o name with
    | Some s -> s
    | None ->
        { Obs.count = 0; sum = 0; min = 0; max = 0; p50 = 0; p95 = 0; p99 = 0 }
  in
  let q = h "client.query_ms" in
  let q_read = h "client.query.get_user_by_login.ms" in
  let q_write = h "client.query.update_user_shell.ms" in
  Printf.printf
    "client round trips: %d  p50=%dms p95=%dms p99=%dms max=%dms\n"
    q.Obs.count q.Obs.p50 q.Obs.p95 q.Obs.p99 q.Obs.max;
  Printf.printf "  get_user_by_login:  p50=%dms p95=%dms\n" q_read.Obs.p50
    q_read.Obs.p95;
  Printf.printf "  update_user_shell:  p50=%dms p95=%dms\n" q_write.Obs.p50
    q_write.Obs.p95;
  let counter name = Option.value (Obs.find_counter o name) ~default:0 in
  let hits = counter "plan.cache.hits" in
  let misses = counter "plan.cache.misses" in
  let hit_rate = float_of_int hits /. float_of_int (max 1 (hits + misses)) in
  Printf.printf "plan cache: %d hits / %d misses (%.1f%% hit rate)\n" hits
    misses (100. *. hit_rate);
  let cycles, cycle_ms = span_stats o "dcm.cycle" in
  let _, gen_ms = span_stats o "dcm.generate" in
  let _, hosts_ms = span_stats o "dcm.hosts" in
  let pushes, push_ms = span_stats o "dcm.push" in
  Printf.printf
    "dcm (ring window): %d cycles, %d sim-ms -- generate %dms, host scans\n\
    \  %dms of which %d pushes took %dms\n"
    cycles cycle_ms gen_ms hosts_ms pushes push_ms;
  Printf.printf "_get_server_statistics \"dcm.*\": %d rows, e.g.\n"
    (List.length stat_rows);
  List.iteri
    (fun i row -> if i < 4 then Printf.printf "  %s\n" (String.concat " " row))
    stat_rows;
  let trace = Obs.trace_json o in
  let n_events = List.length (Obs.trace_events o) in
  let oc = open_out "trace.json" in
  output_string oc trace;
  close_out oc;
  Printf.printf "wrote trace.json (%d events, %d bytes)\n" n_events
    (String.length trace);
  (* a second identical seeded run must fingerprint identically: every
     timestamp is sim time, so wall clock never leaks into a metric *)
  let _, _, o2 = obs_run () in
  let deterministic = String.equal dump1 (Obs.dump o2) in
  Printf.printf "registry identical across two same-seed runs: %b\n"
    deterministic;
  json_add "obs"
    [
      ("queries", I q.Obs.count);
      ("query_p50_ms", I q.Obs.p50);
      ("query_p95_ms", I q.Obs.p95);
      ("query_p99_ms", I q.Obs.p99);
      ("query_max_ms", I q.Obs.max);
      ("read_p50_ms", I q_read.Obs.p50);
      ("read_p95_ms", I q_read.Obs.p95);
      ("write_p50_ms", I q_write.Obs.p50);
      ("write_p95_ms", I q_write.Obs.p95);
      ("plan_cache_hits", I hits);
      ("plan_cache_misses", I misses);
      ("plan_cache_hit_rate", F hit_rate);
      ("dcm_cycles", I cycles);
      ("dcm_cycle_ms", I cycle_ms);
      ("dcm_generate_ms", I gen_ms);
      ("dcm_hosts_ms", I hosts_ms);
      ("dcm_pushes", I pushes);
      ("dcm_push_ms", I push_ms);
      ("trace_events", I n_events);
      ("deterministic", B deterministic);
    ];
  json_write "BENCH_obs.json";
  if not deterministic then begin
    let save p s = let oc = open_out p in output_string oc s; close_out oc in
    save "OBS_dump1.txt" dump1;
    save "OBS_dump2.txt" (Obs.dump o2);
    Printf.eprintf
      "OBS FAILURE: two identical seeded runs produced different registries\n\
       (dumps in OBS_dump1.txt / OBS_dump2.txt)\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* E13: the replicated read path — journal-streaming replicas under    *)
(* the E12 fault model with the primary killed mid-propagation, plus   *)
(* aggregate read capacity vs the single server.                       *)
(* REPL_SMOKE=1 (CI): shorter fault phase, same assertions.            *)

let repl_smoke = Sys.getenv_opt "REPL_SMOKE" <> None || smoke

let bench_replication () =
  header
    "E13: replicated read path -- journal-streaming replicas, client\n\
     failover and read-your-writes under loss + primary kill, aggregate\n\
     read qps vs the single server";
  let failures = ref [] in
  let n_replicas = 3 in
  let drop, reply_drop = (0.3, 0.2) in
  let tb = Testbed.create ~replicas:n_replicas ~repl_poll_ms:5_000 () in
  let net = tb.Testbed.net in
  let o = Testbed.obs tb in
  let ctr name = Option.value ~default:0 (Obs.find_counter o name) in
  let logins = tb.Testbed.built.Population.logins in
  let ws = tb.Testbed.built.Population.workstation_machines.(0) in
  let c = Testbed.admin_client tb ~src:ws in
  Moira.Mr_client.set_replicas c (Testbed.replica_machines tb);
  (* a second, read-only client: its high-water mark ratchets only off
     its own reads, so it keeps monotonic reads through a primary kill
     even when the writer's read-your-writes floor is unservable (the
     writer's last commit may not have reached any replica yet) *)
  let reader =
    Testbed.admin_client tb
      ~src:tb.Testbed.built.Population.workstation_machines.(1)
  in
  Moira.Mr_client.set_replicas reader (Testbed.replica_machines tb);
  (* let the replicas boot-sync before the weather starts *)
  Testbed.run_minutes tb 2;

  (* Monotonic-read oracle: shells are written as /bin/v<N> with N
     strictly increasing per login; a read that returns a smaller N
     than this client has already observed for that login is a
     regression.  This criterion is exact even when a reply-dropped
     write commits without the client learning it. *)
  let version_of shell =
    if String.length shell > 6 && String.sub shell 0 6 = "/bin/v" then
      int_of_string_opt
        (String.sub shell 6 (String.length shell - 6))
    else None
  in
  let observed = Hashtbl.create 16 in
  let regressions = ref 0 in
  let reads_ok = ref 0 and reads_failed = ref 0 in
  let reads_ok_during_kill = ref 0 in
  let primary = tb.Testbed.built.Population.moira_machine in
  let primary_down () =
    not (Netsim.Host.is_up (Testbed.host tb primary))
  in
  let read login =
    match
      Moira.Mr_client.mr_query_list reader ~name:"get_user_by_login"
        [ login ]
    with
    | Ok ((_ :: _ :: shell :: _) :: _) ->
        incr reads_ok;
        if primary_down () then incr reads_ok_during_kill;
        (match version_of shell with
        | None -> ()
        | Some v ->
            let prev =
              Option.value (Hashtbl.find_opt observed login) ~default:(-1)
            in
            if v < prev then incr regressions
            else Hashtbl.replace observed login v)
    | Ok _ -> incr reads_ok
    | Error e ->
        incr reads_failed;
        if Sys.getenv_opt "REPL_DEBUG" <> None then
          Printf.eprintf
            "DEBUG t=%d read failed (%s) primary_down=%b hw=%d status=[%s] \
             applied=[%s]\n%!"
            (Sim.Engine.now tb.Testbed.engine)
            (Comerr.Com_err.error_message e)
            (primary_down ())
            (Moira.Mr_client.high_water reader)
            (String.concat ";"
               (List.map
                  (fun (h, q) -> Printf.sprintf "%s:%b" h q)
                  (Moira.Mr_client.replica_status reader)))
            (String.concat ";"
               (List.map
                  (fun (_, r) ->
                    string_of_int
                      (Relation.Replicate.applied_seq
                         (Moira.Mr_server.replica_handle r)))
                  tb.Testbed.replicas))
  in
  let version = ref 0 in
  let writes_ok = ref 0 and writes_failed = ref 0 in
  let ryw_ok = ref 0 and ryw_failed = ref 0 in
  let write login =
    incr version;
    match
      Moira.Mr_client.mr_query_list c ~name:"update_user_shell"
        [ login; Printf.sprintf "/bin/v%d" !version ]
    with
    | Ok _ -> (
        incr writes_ok;
        let written = !version in
        (* read-your-writes: the writer's own next read must observe at
           least this write, wherever it is served from *)
        match
          Moira.Mr_client.mr_query_list c ~name:"get_user_by_login"
            [ login ]
        with
        | Ok ((_ :: _ :: shell :: _) :: _) ->
            incr ryw_ok;
            if
              match version_of shell with
              | Some v -> v < written
              | None -> true
            then incr regressions
        | Ok _ | Error _ -> incr ryw_failed)
    | Error _ -> incr writes_failed
  in

  (* fault model of E12 at its harshest level, plus the primary kill.
     Faults are anchored to round boundaries rather than wall offsets:
     under 30% loss the client's own timeouts and retries advance the
     sim clock far more than the inter-read sleeps do, so an absolute
     schedule would miss the read instants entirely. *)
  Netsim.Net.set_drop_rate net drop;
  Netsim.Net.set_reply_drop_rate net reply_drop;
  let rounds = if repl_smoke then 12 else 48 in
  let kill_round = rounds / 3 in
  let kill_ms = 25 * 60_000 in
  let kill_end = ref 0 in
  for i = 0 to rounds - 1 do
    let now = Sim.Engine.now tb.Testbed.engine in
    if i = 1 then
      (* one replica loses the network long enough to need catch-up *)
      Netsim.Net.partition_window net
        ~hosts:[ Testbed.replica_machine 0 ]
        ~at:now
        ~duration_ms:(8 * 60_000);
    let login = logins.(i mod Array.length logins) in
    write login;
    if i = kill_round then begin
      (* the kill lands 2.5 s after this round's committed write —
         inside the replicas' 5 s poll window, mid-propagation *)
      let at = Sim.Engine.now tb.Testbed.engine + 2_500 in
      Netsim.Net.schedule_outage net ~host:primary ~at
        ~duration_ms:kill_ms;
      kill_end := at + kill_ms
    end;
    (* reads every 30 s, so the outage window holds many read instants
       and quarantine backoffs get their probes *)
    for k = 0 to 3 do
      read logins.((i + k) mod Array.length logins);
      Sim.Engine.run_for tb.Testbed.engine 30_000
    done
  done;

  (* weather clears; run out the outage, then until every replica is
     byte-identical *)
  Netsim.Net.set_drop_rate net 0.0;
  Netsim.Net.set_reply_drop_rate net 0.0;
  while Sim.Engine.now tb.Testbed.engine < !kill_end do
    Testbed.run_minutes tb 1
  done;
  let dump_of mdb = Relation.Backup.dump (Moira.Mdb.db mdb) in
  let all_identical () =
    let p = dump_of tb.Testbed.mdb in
    List.for_all
      (fun (_, r) -> dump_of (Moira.Mr_server.replica_mdb r) = p)
      tb.Testbed.replicas
  in
  let cycles = ref 0 in
  while (not (all_identical ())) && !cycles < 60 do
    Testbed.run_minutes tb 1;
    incr cycles
  done;
  let converged = all_identical () in
  let head = Relation.Journal.head_seq (Moira.Mdb.journal tb.Testbed.mdb) in
  if not converged then
    failures := "replicas did not converge byte-identical" :: !failures;
  if !regressions > 0 then
    failures :=
      Printf.sprintf "%d monotonic-read regressions" !regressions
      :: !failures;
  if !reads_ok_during_kill = 0 then
    failures := "no read survived the primary outage" :: !failures;
  let lag = Obs.find_histogram o "repl.lag_entries" in
  let delay = Obs.find_histogram o "repl.apply_delay_ms" in
  let hp f = function Some (s : Obs.summary) -> f s | None -> 0 in
  Printf.printf
    "fault phase: %d/%d writes ok, %d/%d reader reads ok (%d during \
     primary kill), %d/%d read-your-writes checks ok, %d stale bounces, \
     %d quarantines, %d snapshots, read regressions: %d\n"
    !writes_ok (!writes_ok + !writes_failed) !reads_ok
    (!reads_ok + !reads_failed) !reads_ok_during_kill !ryw_ok
    (!ryw_ok + !ryw_failed)
    (ctr "client.read.stale_bounce")
    (ctr "client.replica_quarantined")
    (List.fold_left
       (fun a (m, _) ->
         a + ctr ("repl." ^ String.lowercase_ascii m ^ ".snapshots"))
       0 tb.Testbed.replicas)
    !regressions;
  Printf.printf
    "converged byte-identical: %b (journal head %d, +%d quiet minutes)\n\
     replica lag: p50 %d p99 %d entries; apply delay p50 %d p99 %d ms\n"
    converged head !cycles (hp (fun s -> s.Obs.p50) lag)
    (hp (fun s -> s.Obs.p99) lag)
    (hp (fun s -> s.Obs.p50) delay)
    (hp (fun s -> s.Obs.p99) delay);

  (* --- aggregate read capacity: N replicas vs the one primary --- *)
  let dispatch glue login () =
    match Moira.Glue.query glue ~name:"get_user_by_login" [ login ] with
    | Ok _ -> ()
    | Error c -> failwith (Comerr.Com_err.error_message c)
  in
  let rounds = if repl_smoke then 2 else 5 in
  let time_per_op_us f =
    let _, once_ms = time_ms f in
    let iters =
      max 1 (min 200_000 (int_of_float (20.0 /. max 0.0005 once_ms)))
    in
    let best = ref infinity in
    for _ = 1 to rounds do
      Gc.full_major ();
      let t0 = Unix.gettimeofday () in
      for _ = 1 to iters do
        ignore (f ())
      done;
      let t = Unix.gettimeofday () -. t0 in
      if t < !best then best := t
    done;
    !best /. float_of_int iters *. 1_000_000.
  in
  let login = logins.(Array.length logins / 2) in
  let qps f = 1_000_000. /. time_per_op_us f in
  let baseline = qps (dispatch tb.Testbed.glue login) in
  let per_replica =
    List.map
      (fun (m, r) ->
        let glue =
          Moira.Glue.create
            ~mdb:(Moira.Mr_server.replica_mdb r)
            ~registry:(Moira.Catalog.make ()) ()
        in
        (m, qps (dispatch glue login)))
      tb.Testbed.replicas
  in
  let aggregate = List.fold_left (fun a (_, q) -> a +. q) 0.0 per_replica in
  Printf.printf
    "single-server warm read path: %.0f qps\n\
     aggregate over %d replicas:   %.0f qps (%.2fx)\n"
    baseline n_replicas aggregate (aggregate /. baseline);
  if aggregate < 2.0 *. baseline then
    failures :=
      Printf.sprintf "aggregate read qps only %.2fx the single server"
        (aggregate /. baseline)
      :: !failures;

  json_add "replication"
    ([
       ("replicas", I n_replicas);
       ("drop_rate", F drop);
       ("reply_drop_rate", F reply_drop);
       ("writes_ok", I !writes_ok);
       ("writes_failed", I !writes_failed);
       ("reads_ok", I !reads_ok);
       ("reads_failed", I !reads_failed);
       ("reads_ok_during_primary_kill", I !reads_ok_during_kill);
       ("read_your_writes_ok", I !ryw_ok);
       ("read_your_writes_failed", I !ryw_failed);
       ("read_regressions", I !regressions);
       ("stale_bounces", I (ctr "client.read.stale_bounce"));
       ("replica_reads", I (ctr "client.read.replica"));
       ("primary_reads", I (ctr "client.read.primary"));
       ("quarantines", I (ctr "client.replica_quarantined"));
       ("converged_byte_identical", B converged);
       ("journal_head", I head);
       ("lag_entries_p50", I (hp (fun s -> s.Obs.p50) lag));
       ("lag_entries_p99", I (hp (fun s -> s.Obs.p99) lag));
       ("apply_delay_ms_p50", I (hp (fun s -> s.Obs.p50) delay));
       ("apply_delay_ms_p99", I (hp (fun s -> s.Obs.p99) delay));
       ("single_server_qps", F baseline);
       ("aggregate_read_qps", F aggregate);
       ("read_speedup", F (aggregate /. baseline));
     ]
    @ List.map
        (fun (m, q) -> ("qps_" ^ String.lowercase_ascii m, F q))
        per_replica);
  json_write "BENCH_replication.json";
  match !failures with
  | [] ->
      Printf.printf
        "replicas converged byte-identical under loss + primary kill; no\n\
         read regressed; aggregate read capacity scales\n"
  | fs ->
      List.iter (fun f -> Printf.eprintf "REPL FAILURE: %s\n" f) fs;
      exit 1

(* ------------------------------------------------------------------ *)
(* prop: commit-to-serving propagation freshness -- the tracing/SLO    *)
(* pipeline end to end.  Every committed write carries a journal      *)
(* stamp; replica apply and DCM serving-host install time themselves  *)
(* against it.  Quantiles at 1x and 4x population, fault-free and     *)
(* under the chaos fault level; under faults, one committed write's   *)
(* stitched trace must span the client, server, replica and serving-  *)
(* host lanes; and two identical seeded chaos runs must fingerprint   *)
(* byte-identical across every lane (BENCH_propagation.json).         *)
(* OBS_SMOKE=1 (CI) shrinks it.                                       *)

let prop_smoke = Sys.getenv_opt "OBS_SMOKE" <> None || smoke

(* Every lane's registry dump plus the extracted trace: the whole
   telemetry surface two same-seed runs must reproduce byte for byte. *)
let prop_fingerprint tb trace =
  let b = Buffer.create 4096 in
  List.iter
    (fun (m, o) ->
      Buffer.add_string b ("== " ^ m ^ "\n");
      Buffer.add_string b (Obs.dump o))
    (Testbed.lanes tb);
  Buffer.add_string b trace;
  Buffer.contents b

(* One run: a trickle of shell writes over the first hours, then enough
   simulated time for the dirtied service intervals (HESIOD regenerates
   every 6 hours, NFS every 12) to carry the commits to the serving
   hosts. *)
let prop_run ~scale ~drop ~reply_drop () =
  let spec = Population.scaled Population.small scale in
  let tb = Testbed.create ~spec ~replicas:2 ~repl_poll_ms:60_000 () in
  let net = tb.Testbed.net in
  let o = Testbed.obs tb in
  let ws = tb.Testbed.built.Population.workstation_machines.(0) in
  let c = Testbed.admin_client tb ~src:ws in
  (* the write path with failover: query2 sequencing plus an in-place
     reconnect when loss kills the connection mid-run *)
  Moira.Mr_client.set_replicas c (Testbed.replica_machines tb);
  (* let the replicas boot-sync past the population's build history
     before the weather starts: every commit from here on is applied
     entry by entry, with its repl.apply span, rather than swallowed
     into the boot snapshot *)
  Testbed.run_minutes tb 3;
  Netsim.Net.set_drop_rate net drop;
  Netsim.Net.set_reply_drop_rate net reply_drop;
  let logins = tb.Testbed.built.Population.logins in
  let journal = Moira.Mdb.journal tb.Testbed.mdb in
  let writes = if prop_smoke then 4 else 12 in
  let writes_ok = ref 0 in
  let commits = ref 0 in
  let traced = ref None in
  let t0 = Sim.Engine.now tb.Testbed.engine in
  for i = 0 to writes - 1 do
    let seq0 = Relation.Journal.head_seq journal in
    (* an operator retries a failed update; each attempt is its own
       client.query root span, so retries stay visible in the trace *)
    let rec attempt k =
      match
        Moira.Mr_client.mr_query_list c ~name:"update_user_shell"
          [ logins.(i mod Array.length logins);
            Printf.sprintf "/bin/prop%d" i ]
      with
      | Ok _ -> incr writes_ok
      | Error _ -> if k > 1 then attempt (k - 1)
    in
    attempt 6;
    (* the journal, not the client's return code, is the commit oracle:
       a reply-dropped write commits without the client learning it *)
    List.iter
      (fun e ->
        let ctx = e.Relation.Journal.ctx in
        if ctx <> "" then begin
          incr commits;
          if !traced = None then
            match String.index_opt ctx '/' with
            | Some k -> traced := Some (String.sub ctx 0 k)
            | None -> ()
        end)
      (Relation.Journal.entries_from journal ~seq:seq0);
    Testbed.run_minutes tb 15
  done;
  (* run until the first dirtied interval fires and its pushes land
     (retries under loss can slip a push by whole cron cycles), then
     capture the first committed write's stitched trace before ring
     churn under a faulty sky evicts its early client spans *)
  let c2s_count () =
    match Obs.find_histogram o "prop.commit_to_serving_ms" with
    | Some s -> s.Obs.count
    | None -> 0
  in
  let budget = ref (2 * 24) in
  while c2s_count () = 0 && !budget > 0 do
    Testbed.run_minutes tb 30;
    decr budget
  done;
  let trace_id = Option.value !traced ~default:"" in
  let trace = Testbed.trace_json ~trace:trace_id tb in
  (* weather clears; run to a fixed horizon past the slowest dirtied
     service interval (HESIOD regenerates every 6 hours, NFS every 12)
     so every write's commit is carried to its serving hosts and the
     quantiles describe interval-dominated propagation *)
  Netsim.Net.set_drop_rate net 0.0;
  Netsim.Net.set_reply_drop_rate net 0.0;
  let horizon_ms = (if prop_smoke then 7 else 13) * 3_600_000 in
  while Sim.Engine.now tb.Testbed.engine - t0 < horizon_ms do
    Testbed.run_minutes tb 30
  done;
  (tb, o, (!writes_ok, !commits), trace_id, trace)

let bench_prop () =
  header
    "prop: commit-to-serving freshness -- journal-stamped commits timed\n\
     to replica apply and serving-host install at 1x/4x population,\n\
     fault-free and under loss; end-to-end trace and telemetry\n\
     determinism (BENCH_propagation.json)";
  let failures = ref [] in
  let drop, reply_drop = (0.3, 0.2) in
  let h o name =
    match Obs.find_histogram o name with
    | Some s -> s
    | None ->
        { Obs.count = 0; sum = 0; min = 0; max = 0; p50 = 0; p95 = 0; p99 = 0 }
  in
  Printf.printf "%-15s %7s %9s %9s %9s %9s  %s\n" "config" "served"
    "c2s_p50m" "c2s_p99m" "c2r_p50s" "c2r_p99s" "slo";
  (* harvest reads the global registry and SLO engine, so it must run
     before the next Testbed.create resets them *)
  let harvest name ~drop ~reply_drop (tb, o, (writes_ok, commits), trace_id, trace) =
    let c2s = h o "prop.commit_to_serving_ms" in
    let c2r = h o "prop.commit_to_replica_ms" in
    let verdict =
      List.fold_left
        (fun acc r ->
          if r.Obs.Slo.r_objective.Obs.Slo.o_name = "serving-freshness-p99"
          then Obs.Slo.verdict_name r.Obs.Slo.r_verdict
          else acc)
        "?"
        (Obs.Slo.evaluate Obs.Slo.default)
    in
    if commits = 0 then
      failures := (name ^ ": no write ever committed") :: !failures;
    if c2s.Obs.count = 0 then
      failures := (name ^ ": no commit ever reached a serving host") :: !failures;
    if c2r.Obs.count = 0 then
      failures := (name ^ ": no commit ever reached a replica") :: !failures;
    json_add name
      [
        ("users", I (Array.length tb.Testbed.built.Population.logins));
        ("drop_rate", F drop);
        ("reply_drop_rate", F reply_drop);
        ("writes_ok", I writes_ok);
        ("writes_committed", I commits);
        ("trace_id", S trace_id);
        ("commits_served", I c2s.Obs.count);
        ("commit_to_serving_p50_ms", I c2s.Obs.p50);
        ("commit_to_serving_p99_ms", I c2s.Obs.p99);
        ("commit_to_serving_max_ms", I c2s.Obs.max);
        ("commits_replicated", I c2r.Obs.count);
        ("commit_to_replica_p50_ms", I c2r.Obs.p50);
        ("commit_to_replica_p99_ms", I c2r.Obs.p99);
        ("serving_freshness_verdict", S verdict);
        ("trace_bytes", I (String.length trace));
      ];
    Printf.printf "%-15s %7d %9d %9d %9d %9d  %s\n" name c2s.Obs.count
      (c2s.Obs.p50 / 60_000) (c2s.Obs.p99 / 60_000) (c2r.Obs.p50 / 1000)
      (c2r.Obs.p99 / 1000) verdict
  in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  (* fault-free baselines: propagation lag is the service interval *)
  harvest "prop_1x" ~drop:0.0 ~reply_drop:0.0
    (prop_run ~scale:1.0 ~drop:0.0 ~reply_drop:0.0 ());
  harvest "prop_4x" ~drop:0.0 ~reply_drop:0.0
    (prop_run ~scale:4.0 ~drop:0.0 ~reply_drop:0.0 ());
  (* the chaos fault level of E12's harshest tier *)
  let (tb_f, _, _, trace_id, trace) as run_f =
    prop_run ~scale:1.0 ~drop ~reply_drop ()
  in
  let fp1 = prop_fingerprint tb_f trace in
  harvest "prop_1x_faulty" ~drop ~reply_drop run_f;
  (* the committed write's trace must span every lane of Figure 1:
     client call, server handler, replica apply, DCM push, install *)
  let stages =
    [
      ("client span", "\"name\":\"client.query\"");
      ("server handler span", "\"name\":\"query\"");
      ("replica apply span", "\"name\":\"repl.apply\"");
      ("dcm push span", "\"name\":\"dcm.push\"");
      ("serving-host install span", "\"name\":\"update.exec\"");
    ]
  in
  let missing =
    List.filter (fun (_, needle) -> not (contains trace needle)) stages
  in
  List.iter
    (fun (what, _) ->
      failures :=
        Printf.sprintf "trace %s misses the %s" trace_id what :: !failures)
    missing;
  Printf.printf
    "chaos trace %s: %d bytes, end-to-end stages present: %d/%d\n" trace_id
    (String.length trace)
    (List.length stages - List.length missing)
    (List.length stages);
  harvest "prop_4x_faulty" ~drop ~reply_drop
    (prop_run ~scale:4.0 ~drop ~reply_drop ());
  (* an identical seeded chaos run must reproduce every lane's registry
     and the extracted trace byte for byte: no wall clock, no global
     RNG anywhere in the telemetry path *)
  let tb2, _, _, _, trace2 = prop_run ~scale:1.0 ~drop ~reply_drop () in
  let deterministic = String.equal fp1 (prop_fingerprint tb2 trace2) in
  Printf.printf "telemetry identical across two same-seed chaos runs: %b\n"
    deterministic;
  if not deterministic then begin
    let save p s = let oc = open_out p in output_string oc s; close_out oc in
    save "PROP_fp1.txt" fp1;
    save "PROP_fp2.txt" (prop_fingerprint tb2 trace2);
    failures :=
      "two identical seeded runs produced different telemetry (fingerprints \
       in PROP_fp1.txt / PROP_fp2.txt)" :: !failures
  end;
  json_add "determinism"
    [
      ("runs", I 2);
      ("byte_identical", B deterministic);
      ("trace_end_to_end", B (missing = []));
    ];
  json_write "BENCH_propagation.json";
  match !failures with
  | [] ->
      Printf.printf
        "every commit reached its replicas and serving hosts, one chaos\n\
         write traced end to end, telemetry byte-identical across runs\n"
  | fs ->
      List.iter (fun f -> Printf.eprintf "PROP FAILURE: %s\n" f) fs;
      exit 1

let experiments =
  [
    ("table1", bench_table1);
    ("dcm", bench_dcm);
    ("gen", bench_gen);
    ("qry", bench_qry);
    ("connect", bench_connect);
    ("glue", bench_glue);
    ("noop", bench_noop);
    ("backup", bench_backup);
    ("robust", bench_robust);
    ("access", bench_access);
    ("dispatch", bench_dispatch);
    ("clusterdb", bench_clusterdb);
    ("scale", bench_scale);
    ("chaos", bench_chaos);
    ("obs", bench_obs);
    ("repl", bench_replication);
    ("prop", bench_prop);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %S; known: %s\n" name
            (String.concat ", " (List.map fst experiments));
          exit 1)
    requested;
  Printf.printf "\n%s\nall requested experiments complete\n" line
