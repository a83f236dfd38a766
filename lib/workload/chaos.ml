open Relation

type target = Managed of int | Replica of int | Primary
type fault = Partition of target list | Outage of target
type timed = { fault : fault; at_min : int; for_min : int }

type schedule = {
  drop : float;
  reply_drop : float;
  timed : timed list;
  crash_point : (target * string) option;
  kill_primary : (int * int) option;
  crash_draw : int option;
}

type via = Glue | Client

type workload = {
  writes : int;
  every_min : int;
  via : via;
  reads : int;
}

type config = {
  seed : int;
  replicas : int;
  scale : float;
  workload : workload;
  schedule : schedule;
  replay : bool;
}

type read = {
  login : string;
  version : int;
  ryw : int option;
  during_kill : bool;
}

type observation = {
  label : string;
  unconverged : ((string * string) * string) list;
  installed : (string * (string * string) list) list;
  acked : (string * string) list;
  journal : (string * string) list;
  primary_dump : string;
  replica_dumps : (string * string) list;
  reads : read list;
  counters : (string * int) list;
  histograms : (string * Obs.summary) list;
  spans : Obs.span_info list;
  traces : string list;
  fingerprint : string;
}

type outcome = {
  config : config;
  observed : observation;
  fault_free : observation option;
  rerun : observation option;
}

let calm =
  {
    drop = 0.0;
    reply_drop = 0.0;
    timed = [];
    crash_point = None;
    kill_primary = None;
    crash_draw = None;
  }

let random_crashes ~seed = { calm with crash_draw = Some seed }

(* ---- schedules ---- *)

let machine tb = function
  | Managed i -> List.nth (Testbed.managed_machines tb) i
  | Replica i -> Testbed.replica_machine i
  | Primary -> tb.Testbed.built.Population.moira_machine

let target_name = function
  | Managed i -> Printf.sprintf "managed %d" i
  | Replica i -> Printf.sprintf "replica %d" i
  | Primary -> "primary"

let describe c s =
  let b = Buffer.create 128 in
  let w = c.workload in
  Printf.bprintf b "seed %d, %d replicas, scale %g, %d %s writes every %d min"
    c.seed c.replicas c.scale w.writes
    (match w.via with Glue -> "glue" | Client -> "client")
    w.every_min;
  if s.drop > 0.0 || s.reply_drop > 0.0 then
    Printf.bprintf b ", loss %.2f/%.2f" s.drop s.reply_drop;
  List.iter
    (fun t ->
      (match t.fault with
      | Partition hs ->
          Printf.bprintf b ", partition [%s]"
            (String.concat "; " (List.map target_name hs))
      | Outage h -> Printf.bprintf b ", outage of %s" (target_name h));
      Printf.bprintf b " at +%d min for %d min" t.at_min t.for_min)
    s.timed;
  Option.iter
    (fun (h, point) ->
      Printf.bprintf b ", %s crashes at %s" (target_name h) point)
    s.crash_point;
  Option.iter
    (fun (k, m) ->
      Printf.bprintf b ", primary killed after write %d for %d min" k m)
    s.kill_primary;
  Option.iter (Printf.bprintf b ", random crashes (seed %d)") s.crash_draw;
  Buffer.contents b

let inject tb s =
  let net = tb.Testbed.net in
  let engine = tb.Testbed.engine in
  let now = Sim.Engine.now engine in
  let at m = now + (m * 60_000) in
  Netsim.Net.set_drop_rate net s.drop;
  Netsim.Net.set_reply_drop_rate net s.reply_drop;
  List.iter
    (fun t ->
      let duration_ms = t.for_min * 60_000 in
      match t.fault with
      | Partition hs ->
          Netsim.Net.partition_window net
            ~hosts:(List.map (machine tb) hs)
            ~at:(at t.at_min) ~duration_ms
      | Outage h ->
          Netsim.Net.schedule_outage net ~host:(machine tb h) ~at:(at t.at_min)
            ~duration_ms)
    s.timed;
  Option.iter
    (fun (h, point) ->
      let host = Testbed.host tb (machine tb h) in
      Netsim.Host.arm_crash host ~point;
      ignore
        (Sim.Engine.schedule engine ~at:(at 60) "chaos-reboot" (fun () ->
             if not (Netsim.Host.is_up host) then Netsim.Host.boot host)))
    s.crash_point;
  Option.iter
    (fun seed ->
      let rng = Sim.Rng.create seed in
      let built = tb.Testbed.built in
      Population.machines_of built.Population.spec built
      |> List.filter (fun m -> m <> built.Population.moira_machine)
      |> List.iter (fun host ->
             if Sim.Rng.chance rng 0.6 then begin
               let crash_at = Sim.Rng.in_range rng 1 (47 * 60) in
               let down_for = Sim.Rng.in_range rng 10 180 in
               Netsim.Net.schedule_outage net ~host ~at:(at crash_at)
                 ~duration_ms:(down_for * 60_000)
             end))
    s.crash_draw

(* ---- the oracles ---- *)

let unconverged tb ~cutoff =
  let mdb = tb.Testbed.mdb in
  let servers = Moira.Mdb.table mdb "servers" in
  let shosts = Moira.Mdb.table mdb "serverhosts" in
  Table.fold shosts ~init:[] ~f:(fun acc _ row ->
      let field c = Table.field shosts row c in
      let service = Value.str (field "service") in
      match Table.select_one servers (Pred.eq_str "name" service) with
      | Some (_, srow) ->
          let sfield c = Value.int (Table.field servers srow c) in
          let generated =
            Value.bool (field "enable")
            && sfield "enable" <> 0
            && sfield "update_int" > 0
          in
          let machine =
            Option.value ~default:"?"
              (Moira.Lookup.machine_name mdb (Value.int (field "mach_id")))
          in
          List.filter_map
            (fun (bad, what) ->
              if generated && bad then Some ((service, machine), what) else None)
            [
              (Value.int (field "hosterror") <> 0, "has a host error");
              (not (Value.bool (field "success")), "has not succeeded");
              (sfield "harderror" <> 0, "has a hard error");
              (sfield "dfcheck" < cutoff, "was not checked after the last write");
              (Value.int (field "lts") < sfield "dfgen", "lacks the newest generation");
            ]
          @ acc
      | None -> acc)
  |> List.sort compare

let installed_violations ~fault_free installed =
  let files m l = Option.value ~default:[] (List.assoc_opt m l) in
  let machines =
    List.sort_uniq compare (List.map fst installed @ List.map fst fault_free)
  in
  List.concat_map
    (fun m ->
      let got = files m installed and want = files m fault_free in
      let paths = List.sort_uniq compare (List.map fst got @ List.map fst want) in
      List.filter_map
        (fun p ->
          if List.assoc_opt p got = List.assoc_opt p want then None
          else
            Some
              (Printf.sprintf "%s on %s differs from the fault-free run" p m))
        paths)
    machines

let history_violations reads =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun r ->
      match r.ryw with
      | Some v when r.version < v ->
          Some
            (Printf.sprintf "read-your-writes: %s read v%d after writing v%d"
               r.login r.version v)
      | Some _ -> None
      | None ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt seen r.login) in
          if r.version < prev then
            Some
              (Printf.sprintf "monotonic reads: %s read v%d after v%d" r.login
                 r.version prev)
          else begin
            Hashtbl.replace seen r.login r.version;
            None
          end)
    reads

let telemetry_violations counters =
  let ctr n = Option.value ~default:0 (List.assoc_opt n counters) in
  let failed =
    List.fold_left
      (fun a (n, v) -> if Obs.glob_match "update.ops.failed.*" n then a + v else a)
      0 counters
  in
  let sent = ctr "update.ops.sent" in
  let ok = ctr "update.ops.ok" and retried = ctr "update.ops.retried" in
  if sent = ok + retried + failed then []
  else
    [
      Printf.sprintf "update.ops.sent %d <> ok %d + retried %d + failed %d"
        sent ok retried failed;
    ]

let span_violations spans =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.Obs.sp_id s) spans;
  let limit = List.length spans in
  let rec ends u steps =
    steps <= limit
    &&
    match Option.bind (Hashtbl.find_opt by_id u) (fun p -> p.Obs.sp_parent_id) with
    | None -> true
    | Some pu -> ends pu (steps + 1)
  in
  List.concat_map
    (fun s ->
      match s.Obs.sp_parent_id with
      | None -> []
      | Some u -> (
          match Hashtbl.find_opt by_id u with
          | None ->
              [
                Printf.sprintf "span %s (%s) has a dangling parent %s"
                  s.Obs.sp_id s.Obs.sp_name u;
              ]
          | Some p ->
              (if ends u 0 then []
               else
                 [ Printf.sprintf "span %s has a cyclic parent chain" s.Obs.sp_id ])
              @
              if s.Obs.sp_name = "update.op" && p.Obs.sp_name <> "dcm.push" then
                [
                  Printf.sprintf "update.op %s hangs under %s, not a dcm.push"
                    s.Obs.sp_id p.Obs.sp_name;
                ]
              else []))
    spans

(* The stages of Figure 1 a committed write passes through. *)
let stages = [ "client.query"; "query"; "repl.apply"; "dcm.push"; "update.exec" ]

let traced_end_to_end traces spans =
  List.exists
    (fun id ->
      List.for_all
        (fun st ->
          List.exists (fun s -> s.Obs.sp_trace = id && s.Obs.sp_name = st) spans)
        stages)
    traces

(* The invariants one run must keep on its own. *)
let run_violations c o =
  List.concat
    [
      List.map
        (fun ((service, machine), what) ->
          Printf.sprintf "%s on %s %s" service machine what)
        o.unconverged;
      List.filter_map
        (fun (login, shell) ->
          if List.mem (login, shell) o.journal then None
          else
            Some
              (Printf.sprintf "acknowledged write %s %s is not in the journal"
                 login shell))
        o.acked;
      List.filter_map
        (fun (m, d) ->
          if d = o.primary_dump then None
          else Some (m ^ " dump differs from the primary's"))
        o.replica_dumps;
      history_violations o.reads;
      telemetry_violations o.counters;
      span_violations o.spans;
      (if
         c.workload.via = Glue || c.replicas = 0
         || traced_end_to_end o.traces o.spans
       then []
       else
         [
           "no committed write's trace reaches all of "
           ^ String.concat ", " stages;
         ]);
    ]
  |> List.map (fun m -> o.label ^ ": " ^ m)

let check oc =
  let o = oc.observed in
  let label m = o.label ^ ": " ^ m in
  run_violations oc.config o
  @ (match oc.fault_free with
    | Some f ->
        run_violations oc.config f
        @ List.map label (installed_violations ~fault_free:f.installed o.installed)
    | None -> [])
  @
  match oc.rerun with
  | Some r when r.fingerprint <> o.fingerprint ->
      [ label "lane dumps and trace differ from a rerun with the same seed" ]
  | Some _ | None -> []

(* ---- the driver ---- *)

let version_of shell =
  if String.starts_with ~prefix:"/bin/v" shell then
    Option.value ~default:0
      (int_of_string_opt (String.sub shell 6 (String.length shell - 6)))
  else 0

let step_ms = 15 * 60_000

(* Two days: the slowest service interval is one day, and retries under
   loss can slip a push by several cron cycles. *)
let settle_ms = 48 * 3_600_000

(* Minutes into the fault phase when the last scheduled fault has
   ended; the primary kill follows a write, and the settle phase waits
   for every host to be up. *)
let last_fault_min s =
  List.fold_left
    (fun m t -> max m (t.at_min + t.for_min))
    (match (s.crash_draw, s.crash_point) with
    | Some _, _ -> (47 * 60) + 180
    | None, Some _ -> 60
    | None, None -> 0)
    s.timed

let observe c schedule =
  let spec =
    Population.scaled { Population.small with Population.seed = c.seed } c.scale
  in
  let tb = Testbed.create ~spec ~replicas:c.replicas ~repl_poll_ms:60_000 () in
  let w = c.workload in
  let engine = tb.Testbed.engine in
  let net = tb.Testbed.net in
  let built = tb.Testbed.built in
  let logins = built.Population.logins in
  let primary = built.Population.moira_machine in
  let client ws =
    let cl =
      Testbed.admin_client tb ~src:built.Population.workstation_machines.(ws)
    in
    Moira.Mr_client.set_replicas cl (Testbed.replica_machines tb);
    cl
  in
  let writer = match w.via with Client -> Some (client 0) | Glue -> None in
  let reader = if w.reads > 0 then Some (client 1) else None in
  if c.replicas > 0 then Testbed.run_minutes tb 3;
  let t0 = Sim.Engine.now engine in
  inject tb schedule;
  (* every lane's ring, gathered every six hours — well inside a ring's
     4096 entries — and at the end: the union holds every span the run
     made, so a parent missing from it really is missing *)
  let seen = Hashtbl.create 1024 and spans = ref [] in
  let last_gather = ref t0 in
  let gather () =
    last_gather := Sim.Engine.now engine;
    List.iter
      (fun (_, o) ->
        List.iter
          (fun s ->
            if not (Hashtbl.mem seen s.Obs.sp_id) then begin
              Hashtbl.add seen s.Obs.sp_id ();
              spans := s :: !spans
            end)
          (Obs.completed_spans o))
      (Testbed.lanes tb)
  in
  let run_for ms =
    Sim.Engine.run_for engine ms;
    if Sim.Engine.now engine - !last_gather >= 6 * 3_600_000 then gather ()
  in
  let acked = ref [] and reads = ref [] in
  let cutoff = ref (Sim.Engine.now_sec engine) in
  let read cl login ~ryw =
    match
      Moira.Mr_client.mr_query_list cl ~name:"get_user_by_login" [ login ]
    with
    | Ok ((_ :: _ :: shell :: _) :: _) ->
        reads :=
          {
            login;
            version = version_of shell;
            ryw;
            during_kill = not (Netsim.Host.is_up (Testbed.host tb primary));
          }
          :: !reads
    | Ok _ | Error _ -> ()
  in
  let write i =
    let login = logins.(i mod Array.length logins) in
    let shell = Printf.sprintf "/bin/v%d" i in
    let ok =
      match writer with
      | None ->
          Result.is_ok
            (Moira.Glue.query tb.Testbed.glue ~name:"update_user_shell"
               [ login; shell ])
      | Some cl ->
          Result.is_ok
            (Moira.Mr_client.mr_query_list cl ~name:"update_user_shell"
               [ login; shell ])
    in
    cutoff := Sim.Engine.now_sec engine;
    if ok then begin
      acked := (login, shell) :: !acked;
      Option.iter (fun cl -> read cl login ~ryw:(Some i)) writer
    end
  in
  for i = 1 to w.writes do
    write i;
    (match schedule.kill_primary with
    | Some (k, m) when k = i ->
        Netsim.Net.schedule_outage net ~host:primary
          ~at:(Sim.Engine.now engine + 2_500)
          ~duration_ms:(m * 60_000)
    | Some _ | None -> ());
    match reader with
    | None -> run_for (w.every_min * 60_000)
    | Some cl ->
        for k = 0 to w.reads - 1 do
          read cl logins.((i + k) mod Array.length logins) ~ryw:None;
          run_for (w.every_min * 60_000 / w.reads)
        done
  done;
  while Sim.Engine.now engine < t0 + (last_fault_min schedule * 60_000) do
    run_for step_ms
  done;
  let dump mdb =
    Backup.dump (Moira.Mdb.db mdb)
    |> List.map (fun (rel, rows) -> "== " ^ rel ^ "\n" ^ rows)
    |> String.concat ""
  in
  let settled () =
    unconverged tb ~cutoff:!cutoff = []
    && List.for_all Netsim.Host.is_up (Netsim.Net.hosts net)
    &&
    let p = dump tb.Testbed.mdb in
    List.for_all
      (fun (_, r) -> dump (Moira.Mr_server.replica_mdb r) = p)
      tb.Testbed.replicas
  in
  let deadline = Sim.Engine.now engine + settle_ms in
  while (not (settled ())) && Sim.Engine.now engine < deadline do
    run_for step_ms
  done;
  gather ();
  let journal =
    match Testbed.journal_file tb with
    | Some j -> Journal.entries j
    | None -> []
  in
  let shell_writes =
    List.filter (fun e -> e.Journal.query = "update_user_shell") journal
  in
  let traces =
    List.filter_map
      (fun e ->
        Option.map
          (fun k -> String.sub e.Journal.ctx 0 k)
          (String.index_opt e.Journal.ctx '/'))
      shell_writes
  in
  let o = Testbed.obs tb in
  let fingerprint =
    if not c.replay then ""
    else
      String.concat ""
        (List.map (fun (m, l) -> "== " ^ m ^ "\n" ^ Obs.dump l) (Testbed.lanes tb))
      ^ Testbed.trace_json ?trace:(List.nth_opt traces 0) tb
  in
  {
    label = describe c schedule;
    unconverged = unconverged tb ~cutoff:!cutoff;
    installed = Testbed.installed_state tb;
    acked = List.rev !acked;
    journal =
      List.filter_map
        (fun e ->
          match e.Journal.args with
          | [ login; shell ] -> Some (login, shell)
          | _ -> None)
        shell_writes;
    primary_dump = dump tb.Testbed.mdb;
    replica_dumps =
      List.map
        (fun (m, r) -> (m, dump (Moira.Mr_server.replica_mdb r)))
        tb.Testbed.replicas;
    reads = List.rev !reads;
    counters = Obs.counters o;
    histograms = Obs.histograms o;
    spans = List.rev !spans;
    traces;
    fingerprint;
  }

let run c =
  let observed = observe c c.schedule in
  let fault_free = if c.workload.via = Glue then Some (observe c calm) else None in
  let rerun = if c.replay then Some (observe c c.schedule) else None in
  { config = c; observed; fault_free; rerun }
