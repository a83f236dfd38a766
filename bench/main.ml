(* The benchmark harness: one entry per table/figure/claim in the paper's
   evaluation (see DESIGN.md's experiment index and EXPERIMENTS.md for
   paper-vs-measured numbers).

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- table1  -- one experiment (table1, dcm,
                                            connect, glue, noop, backup,
                                            access, dispatch)           *)

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
    ("access", bench_access);
    ("dispatch", bench_dispatch);
    ("clusterdb", bench_clusterdb);
    ("scale", bench_scale);
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
