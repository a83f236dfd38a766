open Relation

type gen_result =
  | Generated of int
  | No_change
  | Not_due
  | Gen_failed of string
  | Locked

type host_result =
  | Updated of { files : int; bytes : int }
  | Up_to_date
  | Soft_failed of string
  | Hard_failed of string
  | Backed_off of int
  | Quarantined of string

type service_report = {
  service : string;
  gen : gen_result;
  rebuilt : string list;
  spliced : int;
  hosts : (string * host_result) list;
}

type report = {
  at : int;
  disabled : bool;
  services : service_report list;
  retries : int;
  notices_sent : int;
  notices_dropped : int;
}

let propagations r =
  List.fold_left
    (fun acc s ->
      acc
      + List.length
          (List.filter
             (fun (_, h) -> match h with Updated _ -> true | _ -> false)
             s.hosts))
    0 r.services

let files_sent r =
  List.fold_left
    (fun acc s ->
      acc
      + List.fold_left
          (fun acc (_, h) ->
            match h with Updated { files; _ } -> acc + files | _ -> acc)
          0 s.hosts)
    0 r.services

let bytes_sent r =
  List.fold_left
    (fun acc s ->
      acc
      + List.fold_left
          (fun acc (_, h) ->
            match h with Updated { bytes; _ } -> acc + bytes | _ -> acc)
          0 s.hosts)
    0 r.services

type retry_policy = {
  op_attempts : int;
  push_attempts : int;
  backoff_base_s : int;
  backoff_max_s : int;
  backoff_jitter : float;
  quarantine_after : int;
}

let default_retry_policy =
  {
    op_attempts = 3;
    push_attempts = 2;
    backoff_base_s = 60;
    backoff_max_s = 3600;
    backoff_jitter = 0.5;
    quarantine_after = 12;
  }

(* Per-(service, machine) retry state, §5.7.1's "retried on later passes"
   made concrete.  [notified] marks an open quarantine incident: exactly
   one notification until the operator resets the host error (the host
   reappearing in the scan starts a fresh incident). *)
type rstate = {
  mutable fails : int;  (* consecutive cycles that ended in a soft failure *)
  mutable next_attempt : int;  (* engine seconds; don't push before this *)
  mutable notified : bool;
}

type sweep = {
  services_cleared : int;
  hosts_cleared : int;
  locks_released : int;
}

type t = {
  net : Netsim.Net.t;
  moira_host : string;
  glue : Moira.Glue.t;
  zephyr_to : string option;
  mail_via : (string * string) option;
  generators : Gen.t list;
  policy : retry_policy;
  rng : Sim.Rng.t;
  retry : (string, rstate) Hashtbl.t;  (* key: service ^ "/" ^ machine *)
  obs : Obs.t;
  (* The run totals are Obs counters, not parallel bookkeeping: the
     report fields are deltas of the same numbers the stats queries
     read. *)
  c_retries : Obs.Counter.counter;
  c_notices_sent : Obs.Counter.counter;
  c_notices_dropped : Obs.Counter.counter;
  slo : Obs.Slo.slo option;
      (* checked once per cycle; breaches route through [notify] *)
  (* Commit-to-serving bookkeeping.  [gen_seq] is the journal sequence
     each service's current data files reflect (recorded when the
     generator ran); [served] is the newest sequence each (service,
     host) pair is known to serve.  Both floor at [baseline_seq], the
     journal head when this DCM started — build history predating the
     DCM is not propagation lag. *)
  baseline_seq : int;
  gen_seq : (string, int) Hashtbl.t;
  served : (string, int) Hashtbl.t;  (* key: service ^ "/" ^ machine *)
  outputs : (string, Gen.output) Hashtbl.t;
  prev_outputs : (string, Gen.output) Hashtbl.t;
      (* generation n-1, kept as the patch base for delta pushes *)
  parts_cache : (string, (string * Gen.output) list) Hashtbl.t;
      (* per-part outputs of the last generation, for file-grain splicing *)
  part_state : (string, Gen.pstate) Hashtbl.t;
      (* persistent state of incremental part builders, keyed
         service ^ "/" ^ part *)
  mutable history : report list;
}

let standard_generators =
  [ Gen_hesiod.generator; Gen_nfs.generator; Gen_mail.generator;
    Gen_zephyr.generator ]

(* The dcm-side half of the schema cross-checker ([Moira.Check]): a
   generator's watch list is its claim about which relations it reads,
   and a stale claim silently breaks MR_NO_CHANGE (the file never
   rebuilds, or always does).  Validate every watch against
   [Schema_def], part-name uniqueness, and — for part-decomposed
   generators — that the part watches cover the service watches, the
   invariant [Gen.of_parts] promises. *)
let check_generators gens =
  let open Moira.Check in
  let watch_findings subject ws =
    List.concat_map
      (fun w ->
        watch_ref ~subject ~table:w.Gen.wtable ~columns:w.Gen.wcolumns)
      ws
  in
  List.concat_map
    (fun g ->
      let subject = "generator " ^ g.Gen.service in
      let shape =
        if
          g.Gen.service = ""
          || g.Gen.service <> String.uppercase_ascii g.Gen.service
        then
          [
            {
              c_rule = "service-name";
              c_subject = subject;
              c_detail = "service name must be nonempty upper case";
            };
          ]
        else []
      in
      let parts_unique =
        let seen = Hashtbl.create 8 in
        List.filter_map
          (fun p ->
            if Hashtbl.mem seen p.Gen.pname then
              Some
                {
                  c_rule = "dup-part";
                  c_subject = subject;
                  c_detail =
                    Printf.sprintf "duplicate part name %S" p.Gen.pname;
                }
            else begin
              Hashtbl.replace seen p.Gen.pname ();
              None
            end)
          g.Gen.parts
      in
      let watch_key w =
        (w.Gen.wtable, List.sort String.compare w.Gen.wcolumns)
      in
      let coverage =
        if g.Gen.parts = [] then []
        else
          let covered =
            List.concat_map
              (fun p -> List.map watch_key p.Gen.pwatches)
              g.Gen.parts
          in
          List.filter_map
            (fun w ->
              if List.mem (watch_key w) covered then None
              else
                Some
                  {
                    c_rule = "watch-coverage";
                    c_subject = subject;
                    c_detail =
                      Printf.sprintf
                        "service watch on %S is not covered by any part"
                        w.Gen.wtable;
                  })
            g.Gen.watches
      in
      shape @ watch_findings subject g.Gen.watches
      @ List.concat_map
          (fun p ->
            watch_findings
              (subject ^ " part " ^ p.Gen.pname)
              p.Gen.pwatches)
          g.Gen.parts
      @ parts_unique @ coverage)
    gens

let mdb t = Moira.Glue.mdb t.glue

(* Startup recovery (paper §5.9 case C, a crashed Moira machine): a DCM
   that died mid-run leaves inprogress flags set and locks held.  Nothing
   it was doing survives the process, so clear both — the next cycle
   simply redoes any half-finished work from the spool. *)
let recovery_sweep t =
  let db = mdb t in
  let services_cleared =
    Table.set_fields
      (Moira.Mdb.table db "servers")
      (Pred.eq_bool "inprogress" true)
      [ ("inprogress", Value.Bool false) ]
  in
  let hosts_cleared =
    Table.set_fields
      (Moira.Mdb.table db "serverhosts")
      (Pred.eq_bool "inprogress" true)
      [ ("inprogress", Value.Bool false) ]
  in
  let locks = Moira.Mdb.locks db in
  let orphaned = Lock.owned locks ~owner:"dcm" in
  Lock.release_all locks ~owner:"dcm";
  { services_cleared; hosts_cleared; locks_released = List.length orphaned }

(* The retry/backoff state persisted into the serverhosts value columns
   (ROADMAP item): value1 is the consecutive-soft-failure count, stored
   negated while a quarantine incident is open (notified); value2 is
   the earliest next attempt in engine seconds.  value3 stays untouched
   (the NFS generator owns it), and the only serverhosts rows that use
   value1/value2 for anything else are POP pobox-load rows — POP is not
   DCM-managed, so DCM rows have both columns free.  Only the value
   columns are written, and every generator watch on serverhosts is on
   [modtime], so persistence never triggers a rebuild. *)
let persist_rstate t ~service ~mach_id rs =
  ignore
    (Table.set_fields
       (Moira.Mdb.table (mdb t) "serverhosts")
       (Pred.conj
          [ Pred.eq_str "service" service; Pred.eq_int "mach_id" mach_id ])
       [
         ("value1", Value.Int (if rs.notified then -rs.fails else rs.fails));
         ("value2", Value.Int rs.next_attempt);
       ])

(* Startup counterpart: a restarted DCM resumes where the last one left
   off — a flapping host keeps its failure count and backoff window
   instead of getting a fresh slate. *)
let load_retry_state t =
  let db = mdb t in
  let shosts = Moira.Mdb.table db "serverhosts" in
  let managed = List.map (fun g -> g.Gen.service) t.generators in
  List.iter
    (fun (_, row) ->
      let service = Value.str (Table.field shosts row "service") in
      if List.mem service managed then begin
        let v1 = Value.int (Table.field shosts row "value1") in
        let v2 = Value.int (Table.field shosts row "value2") in
        if v1 <> 0 || v2 <> 0 then
          match
            Moira.Lookup.machine_name db
              (Value.int (Table.field shosts row "mach_id"))
          with
          | None -> ()
          | Some machine ->
              Hashtbl.replace t.retry
                (service ^ "/" ^ machine)
                { fails = abs v1; next_attempt = v2; notified = v1 < 0 }
      end)
    (Table.select shosts Pred.True)

let create ~net ~moira_host ~glue ?zephyr_to ?mail_via
    ?(generators = standard_generators) ?(retry = default_retry_policy) ?obs
    ?slo () =
  let obs = match obs with Some o -> o | None -> Netsim.Net.obs net in
  let t =
    {
      net;
      moira_host;
      glue;
      zephyr_to;
      mail_via;
      generators;
      policy = retry;
      rng = Sim.Rng.split (Sim.Engine.rng (Netsim.Net.engine net));
      retry = Hashtbl.create 31;
      obs;
      c_retries = Obs.Counter.make obs "dcm.retries";
      c_notices_sent = Obs.Counter.make obs "dcm.notices.sent";
      c_notices_dropped = Obs.Counter.make obs "dcm.notices.dropped";
      slo;
      baseline_seq = Journal.head_seq (Moira.Mdb.journal (Moira.Glue.mdb glue));
      gen_seq = Hashtbl.create 7;
      served = Hashtbl.create 31;
      outputs = Hashtbl.create 7;
      prev_outputs = Hashtbl.create 7;
      parts_cache = Hashtbl.create 7;
      part_state = Hashtbl.create 16;
      history = [];
    }
  in
  ignore (recovery_sweep t);
  load_retry_state t;
  t

let reports t = List.rev t.history

(* The generated data files live on the Moira host's disk (the real
   DCM's /u1/sms/ spool) under a per-service directory, each member
   ("common/<file>" or "host/<machine>/<file>") as its doc's chunks,
   "<member>/<k>", and an [_index] listing "<chunks> <member>" in output
   order.  A restarted DCM recovers them from there.  A member is
   spooled as the chunk strings its doc already holds, so a changed
   multi-megabyte file is never copied into one string here.
   [store_output] writes only the members whose doc is not physically
   the previous generation's — the part splicer and the keyed
   incremental builders preserve doc identity for unchanged files, so a
   steady-state cycle's spool traffic is proportional to what changed,
   not to the campus. *)
let spool_dir service = "/u1/sms/dcm/" ^ service ^ ".d"
let spool_index service = spool_dir service ^ "/_index"

let members_of (out : Gen.output) =
  List.map (fun (n, c) -> ("common/" ^ n, c)) out.Gen.common
  @ List.concat_map
      (fun (m, files) ->
        List.map (fun (n, c) -> ("host/" ^ m ^ "/" ^ n, c)) files)
      out.Gen.per_host

let output_of_members members =
  let common = ref [] and per_host = Hashtbl.create 7 in
  List.iter
    (fun (path, contents) ->
      match String.split_on_char '/' path with
      | "common" :: rest ->
          common := (String.concat "/" rest, contents) :: !common
      | "host" :: machine :: rest ->
          let files =
            Option.value (Hashtbl.find_opt per_host machine) ~default:[]
          in
          Hashtbl.replace per_host machine
            ((String.concat "/" rest, contents) :: files)
      | _ -> ())
    members;
  {
    Gen.common = List.rev !common;
    (* sorted by machine: archive contents must not leak hash order *)
    per_host =
      Hashtbl.fold
        (fun m files acc -> (m, List.rev files) :: acc)
        per_host []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
  }

let moira_fs t = Netsim.Host.fs (Netsim.Net.host t.net t.moira_host)

let chunk_path dir n k = dir ^ "/" ^ n ^ "/" ^ string_of_int k

let chunks_of d =
  let cs = ref [] in
  Sink.iter d (fun c -> cs := c :: !cs);
  List.rev !cs

(* The spooled members as (name, chunk count), in index order; [None]
   when there is no index or a line of it does not parse. *)
let spool_entries fs ~service =
  let entry line =
    match String.index_opt line ' ' with
    | Some sp -> (
        match int_of_string_opt (String.sub line 0 sp) with
        | Some c when c >= 0 ->
            Some (String.sub line (sp + 1) (String.length line - sp - 1), c)
        | _ -> None)
    | None -> None
  in
  Option.bind (Netsim.Vfs.read fs ~path:(spool_index service)) (fun idx ->
      let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' idx) in
      let entries = List.filter_map entry lines in
      if List.length entries = List.length lines then Some entries else None)

let store_output t ~service output =
  let prev = Hashtbl.find_opt t.outputs service in
  (match prev with
  | Some old -> Hashtbl.replace t.prev_outputs service old
  | None -> ());
  Hashtbl.replace t.outputs service output;
  let fs = moira_fs t in
  let dir = spool_dir service in
  let members = members_of output in
  (* the spool currently holds the previous generation (every store ends
     with a flush): a member whose doc is physically the previous one is
     already on disk byte for byte *)
  let prev_docs = Hashtbl.create 64 in
  (match prev with
  | Some old ->
      List.iter (fun (n, d) -> Hashtbl.replace prev_docs n d) (members_of old)
  | None -> ());
  let spooled = Hashtbl.create 64 in
  List.iter
    (fun (n, c) -> Hashtbl.replace spooled n c)
    (Option.value (spool_entries fs ~service) ~default:[]);
  let drop n ~from =
    for k = from to Option.value (Hashtbl.find_opt spooled n) ~default:0 - 1 do
      Netsim.Vfs.remove fs ~path:(chunk_path dir n k)
    done
  in
  let counts =
    List.map
      (fun (n, d) ->
        let unchanged =
          match Hashtbl.find_opt prev_docs n with
          | Some pd -> pd == d
          | None -> false
        in
        let chunks = chunks_of d in
        if not unchanged then begin
          List.iteri (fun k c -> Netsim.Vfs.write fs ~path:(chunk_path dir n k) c) chunks;
          drop n ~from:(List.length chunks)
        end;
        Hashtbl.remove spooled n;
        (n, List.length chunks))
      members
  in
  (* members gone from the output leave the spool with it (removals in
     name order so the vfs trace is stable) *)
  Hashtbl.fold (fun n _ acc -> n :: acc) spooled []
  |> List.sort String.compare
  |> List.iter (fun n -> drop n ~from:0);
  Netsim.Vfs.write fs ~path:(spool_index service)
    (String.concat "" (List.map (fun (n, c) -> Printf.sprintf "%d %s\n" c n) counts));
  Netsim.Vfs.flush fs

let read_spool fs ~service =
  let rec chunks n k c acc =
    if k = c then Some (Sink.concat (List.rev acc))
    else
      match Netsim.Vfs.read fs ~path:(chunk_path (spool_dir service) n k) with
      | Some s -> chunks n (k + 1) c (Sink.of_string s :: acc)
      | None -> None
  in
  let rec collect acc = function
    | [] -> Some (List.rev acc)
    | (n, c) :: rest -> (
        match chunks n 0 c [] with
        | Some d -> collect ((n, d) :: acc) rest
        | None -> None)
  in
  Option.map output_of_members
    (Option.bind (spool_entries fs ~service) (collect []))

let last_output t ~service =
  match Hashtbl.find_opt t.outputs service with
  | Some out -> Some out
  | None -> (
      match read_spool (moira_fs t) ~service with
      | Some out ->
          Hashtbl.replace t.outputs service out;
          Some out
      | None -> None)
let now_sec t = Moira.Mdb.now (mdb t)

(* Hard failures notify the maintainers by zephyrgram and by mail
   (section 5.7.1).  Each channel is the other's fallback: the notice
   counts as delivered if either lands, and as dropped only when every
   configured channel failed — which the run report surfaces, so alerts
   no longer vanish silently when the notification host is down. *)
let notify t msg =
  Obs.log t.obs ~channel:"dcm.notify" msg;
  let zeph =
    match t.zephyr_to with
    | None -> None
    | Some server -> (
        match
          Zephyr.send t.net ~src:t.moira_host ~server ~sender:"moira"
            ~cls:"MOIRA" ~instance:"DCM" msg
        with
        | Ok () -> Some true
        | Error _ -> Some false)
  in
  let mail =
    match t.mail_via with
    | None -> None
    | Some (hub, rcpt) -> (
        match
          Pop.Mailhub.send t.net ~src:t.moira_host ~hub ~sender:"moira" ~rcpt
            ~body:msg
        with
        | Ok delivered -> Some (delivered > 0)
        | Error _ -> Some false)
  in
  match (zeph, mail) with
  | None, None -> () (* no channel configured: nothing to deliver *)
  | _ ->
      if zeph = Some true || mail = Some true then
        Obs.Counter.incr t.c_notices_sent
      else Obs.Counter.incr t.c_notices_dropped

(* Set the service's internal flags through the query layer, as the real
   DCM does. *)
let ssif t ~service ~dfgen ~dfcheck ~inprogress ~harderr ~errmsg =
  ignore
    (Moira.Glue.query t.glue ~name:"set_server_internal_flags"
       [
         service; string_of_int dfgen; string_of_int dfcheck;
         (if inprogress then "1" else "0"); string_of_int harderr; errmsg;
       ])

let sshi t ~service ~machine ~override ~success ~inprogress ~hosterror
    ~errmsg ~ltt ~lts =
  ignore
    (Moira.Glue.query t.glue ~name:"set_server_host_internal"
       [
         service; machine;
         (if override then "1" else "0");
         (if success then "1" else "0");
         (if inprogress then "1" else "0");
         string_of_int hosterror; errmsg; string_of_int ltt;
         string_of_int lts;
       ])

let service_row t name =
  let tbl = Moira.Mdb.table (mdb t) "servers" in
  Option.map snd (Table.select_one tbl (Pred.eq_str "name" name))

let sfield t row col =
  Table.field (Moira.Mdb.table (mdb t) "servers") row col

(* Rebuild a service's files.  With parts and a cached previous
   generation, only the parts whose watches fired since [dfgen] are
   rebuilt; the rest are spliced from the cache (file-grain
   MR_NO_CHANGE).  Returns the merged output plus the rebuilt part names
   and the spliced-part count. *)
let rebuild t gen ~dfgen =
  match gen.Gen.parts with
  | [] -> (gen.Gen.generate t.glue, [], 0)
  | parts ->
      let service = gen.Gen.service in
      let cached = Hashtbl.find_opt t.parts_cache service in
      let entries =
        List.map
          (fun p ->
            let reused =
              match cached with
              | None -> None
              | Some c ->
                  if Gen.changed_since (mdb t) p.Gen.pwatches dfgen then None
                  else List.assoc_opt p.Gen.pname c
            in
            match reused with
            | Some out -> (p.Gen.pname, out, false)
            | None ->
                let out =
                  match p.Gen.pincr with
                  | Some f ->
                      (* incremental builder: feed it its state from the
                         previous generation; it owns byte-identity with
                         [pbuild] *)
                      let skey = service ^ "/" ^ p.Gen.pname in
                      let out, stt =
                        f t.glue (Hashtbl.find_opt t.part_state skey)
                      in
                      Hashtbl.replace t.part_state skey stt;
                      out
                  | None -> p.Gen.pbuild t.glue
                in
                (p.Gen.pname, out, true))
          parts
      in
      Hashtbl.replace t.parts_cache service
        (List.map (fun (n, o, _) -> (n, o)) entries);
      let rebuilt =
        List.filter_map (fun (n, _, b) -> if b then Some n else None) entries
      in
      ( Gen.merge_outputs (List.map (fun (_, o, _) -> o) entries),
        rebuilt,
        List.length parts - List.length rebuilt )

(* Phase 1 of a run for one service: decide whether to regenerate and do
   it, per the first half of section 5.7.1. *)
let generate_phase t gen =
  let service = gen.Gen.service in
  match service_row t service with
  | None -> (Not_due, [], 0)
  | Some row ->
      let enabled = Value.bool (sfield t row "enable") in
      let harderror = Value.int (sfield t row "harderror") in
      let interval = Value.int (sfield t row "update_int") in
      let dfgen = Value.int (sfield t row "dfgen") in
      let dfcheck = Value.int (sfield t row "dfcheck") in
      if (not enabled) || harderror <> 0 || interval <= 0 then (Not_due, [], 0)
      else if now_sec t < dfcheck + (interval * 60) then (Not_due, [], 0)
      else begin
        let locks = Moira.Mdb.locks (mdb t) in
        let key = "service:" ^ service in
        if not (Lock.acquire locks ~key ~owner:"dcm" Lock.Exclusive) then
          (Locked, [], 0)
        else
          (* the lock must survive no code path: any exception in the
             critical section — not just the generator itself — releases
             it on the way out *)
          Fun.protect
            ~finally:(fun () -> Lock.release locks ~key ~owner:"dcm")
            (fun () ->
              ssif t ~service ~dfgen ~dfcheck ~inprogress:true ~harderr:0
                ~errmsg:"";
              match
                if not (Gen.changed_since (mdb t) gen.Gen.watches dfgen)
                then begin
                  (* MR_NO_CHANGE: only dfcheck moves forward. *)
                  ssif t ~service ~dfgen ~dfcheck:(now_sec t)
                    ~inprogress:false ~harderr:0 ~errmsg:"";
                  (No_change, [], 0)
                end
                else begin
                  let output, rebuilt, spliced = rebuild t gen ~dfgen in
                  store_output t ~service output;
                  (* the data files just built reflect every commit up to
                     the journal head — the sequence freshness is charged
                     against when a push lands them on a host *)
                  Hashtbl.replace t.gen_seq service
                    (Journal.head_seq (Moira.Mdb.journal (mdb t)));
                  let now = now_sec t in
                  ssif t ~service ~dfgen:now ~dfcheck:now ~inprogress:false
                    ~harderr:0 ~errmsg:"";
                  (Generated (Gen.total_bytes output), rebuilt, spliced)
                end
              with
              | result -> result
              | exception exn ->
                  let msg = Printexc.to_string exn in
                  ssif t ~service ~dfgen ~dfcheck ~inprogress:false
                    ~harderr:Moira.Mr_err.ingres_err ~errmsg:msg;
                  notify t
                    (Printf.sprintf "DCM: generator for %s failed: %s"
                       service msg);
                  (Gen_failed msg, [], 0))
      end

(* Phase 2: walk the server/host tuples of one service and update stale
   hosts. *)
let host_phase t gen =
  let service = gen.Gen.service in
  match service_row t service with
  | None -> []
  | Some row ->
      let enabled = Value.bool (sfield t row "enable") in
      let harderror = Value.int (sfield t row "harderror") in
      let interval = Value.int (sfield t row "update_int") in
      let dfgen = Value.int (sfield t row "dfgen") in
      let target = Value.str (sfield t row "target_file") in
      let script = Value.str (sfield t row "script") in
      let replicated = Value.str (sfield t row "type") = "REPLICAT" in
      if (not enabled) || harderror <> 0 || interval <= 0 then []
      else begin
        match last_output t ~service with
        | None -> [] (* no data files on disk yet *)
        | Some output ->
            let locks = Moira.Mdb.locks (mdb t) in
            let skey = "service:" ^ service in
            let smode = if replicated then Lock.Exclusive else Lock.Shared in
            if not (Lock.acquire locks ~key:skey ~owner:"dcm" smode) then []
            else
              Fun.protect
                ~finally:(fun () -> Lock.release locks ~key:skey ~owner:"dcm")
                (fun () ->
              let shosts = Moira.Mdb.table (mdb t) "serverhosts" in
              let hosts =
                Table.select shosts
                  (Pred.conj
                     [ Pred.eq_str "service" service;
                       Pred.eq_bool "enable" true;
                       Pred.eq_int "hosterror" 0 ])
              in
              let results = ref [] in
              let hard_stop = ref false in
              List.iter
                (fun (_, sh) ->
                  if not !hard_stop then begin
                    let machine =
                      Option.value
                        (Moira.Lookup.machine_name (mdb t)
                           (Value.int (Table.field shosts sh "mach_id")))
                        ~default:"?"
                    in
                    let lts = Value.int (Table.field shosts sh "lts") in
                    let override =
                      Value.bool (Table.field shosts sh "override")
                    in
                    let mach_id =
                      Value.int (Table.field shosts sh "mach_id")
                    in
                    let rs =
                      let rkey = service ^ "/" ^ machine in
                      match Hashtbl.find_opt t.retry rkey with
                      | Some rs -> rs
                      | None ->
                          let rs =
                            { fails = 0; next_attempt = 0; notified = false }
                          in
                          Hashtbl.replace t.retry rkey rs;
                          rs
                    in
                    (* persist only when the durable copy would change:
                       healthy hosts never touch the row *)
                    let persist () =
                      let want1 =
                        if rs.notified then -rs.fails else rs.fails
                      in
                      if
                        Value.int (Table.field shosts sh "value1") <> want1
                        || Value.int (Table.field shosts sh "value2")
                           <> rs.next_attempt
                      then persist_rstate t ~service ~mach_id rs
                    in
                    (* a quarantined host reappearing in the scan means the
                       operator reset its error: that closes the incident
                       and starts the failure count afresh *)
                    if rs.notified then begin
                      rs.fails <- 0;
                      rs.next_attempt <- 0;
                      rs.notified <- false;
                      persist ()
                    end;
                    if lts >= dfgen && not override then
                      results := (machine, Up_to_date) :: !results
                    else if now_sec t < rs.next_attempt then
                      results :=
                        (machine, Backed_off (rs.next_attempt - now_sec t))
                        :: !results
                    else begin
                      let hkey =
                        Printf.sprintf "host:%s/%s" service machine
                      in
                      if
                        not
                          (Lock.acquire locks ~key:hkey ~owner:"dcm"
                             Lock.Exclusive)
                      then begin
                        (* the attempt still happened: move ltt so the
                           tuple shows when the DCM last tried *)
                        sshi t ~service ~machine ~override ~success:false
                          ~inprogress:false ~hosterror:0
                          ~errmsg:"host locked" ~ltt:(now_sec t) ~lts;
                        results :=
                          (machine, Soft_failed "host locked") :: !results
                      end
                      else
                        Fun.protect
                          ~finally:(fun () ->
                            Lock.release locks ~key:hkey ~owner:"dcm")
                          (fun () ->
                        sshi t ~service ~machine ~override ~success:false
                          ~inprogress:true ~hosterror:0 ~errmsg:""
                          ~ltt:(Value.int (Table.field shosts sh "ltt"))
                          ~lts;
                        let files = Gen.files_for_host output ~machine in
                        let base =
                          match Hashtbl.find_opt t.prev_outputs service with
                          | Some prev -> Gen.files_for_host prev ~machine
                          | None -> []
                        in
                        (* the commits this push would newly serve on this
                           host: journal sequences in (served, gen_seq] —
                           the freshness window, and the trace the push
                           joins (as a child of the newest covered
                           commit's span) *)
                        let gseq =
                          Option.value
                            (Hashtbl.find_opt t.gen_seq service)
                            ~default:t.baseline_seq
                        in
                        let svkey = service ^ "/" ^ machine in
                        let served =
                          Option.value
                            (Hashtbl.find_opt t.served svkey)
                            ~default:t.baseline_seq
                        in
                        let window =
                          let rec take k = function
                            | e :: rest when k > 0 -> e :: take (k - 1) rest
                            | _ -> []
                          in
                          take
                            (max 0 (gseq - served))
                            (Journal.entries_from
                               (Moira.Mdb.journal (mdb t))
                               ~seq:served)
                        in
                        let parent_ctx =
                          List.fold_left
                            (fun acc e ->
                              match Obs.ctx_of_string e.Journal.ctx with
                              | Some c -> Some c
                              | None -> acc)
                            None window
                        in
                        (* bounded in-cycle retries: transient soft
                           failures get [push_attempts] whole-push tries
                           (each op itself re-sent up to [op_attempts]
                           times) before the cycle gives up on the host *)
                        let rec attempt n =
                          match
                            Update.push t.net ~src:t.moira_host ~dst:machine
                              ~base
                              ~attempts:t.policy.op_attempts ?parent_ctx
                              ~target ~files ~script ()
                          with
                          | Ok _ as ok -> ok
                          | Error (Update.Soft _)
                            when n < t.policy.push_attempts ->
                              Obs.Counter.incr t.c_retries;
                              Obs.Counter.incr
                                (Obs.Counter.make t.obs "dcm.push.reattempts");
                              attempt (n + 1)
                          | Error _ as e -> e
                        in
                        let outcome = attempt 1 in
                        let now = now_sec t in
                        match outcome with
                        | Ok stats ->
                            (* the host now serves everything up to
                               [gseq]: charge each covered commit's
                               commit-to-serving lag and advance the
                               freshness gauges *)
                            let now_ms = Obs.now_ms t.obs in
                            let h_all =
                              Obs.Histogram.make t.obs
                                "prop.commit_to_serving_ms"
                            in
                            let h_sh =
                              Obs.Histogram.make t.obs
                                (Printf.sprintf
                                   "prop.%s.%s.commit_to_serving_ms"
                                   (String.lowercase_ascii service)
                                   (String.lowercase_ascii machine))
                            in
                            List.iter
                              (fun e ->
                                let d =
                                  max 0
                                    (now_ms - (e.Journal.time * 1000))
                                in
                                Obs.Histogram.observe h_all d;
                                Obs.Histogram.observe h_sh d)
                              window;
                            (match List.rev window with
                            | newest :: _ ->
                                Obs.Freshness.note_commit t.obs
                                  ~host:machine
                                  ~commit_s:newest.Journal.time
                            | [] -> ());
                            Hashtbl.replace t.served svkey gseq;
                            Obs.Counter.add t.c_retries
                              stats.Update.op_retries;
                            rs.fails <- 0;
                            rs.next_attempt <- 0;
                            persist ();
                            sshi t ~service ~machine ~override:false
                              ~success:true ~inprogress:false ~hosterror:0
                              ~errmsg:"" ~ltt:now ~lts:now;
                            results :=
                              ( machine,
                                Updated
                                  {
                                    files = List.length files;
                                    bytes = stats.Update.wire_bytes;
                                  } )
                              :: !results
                        | Error (Update.Soft (code, msg)) ->
                            rs.fails <- rs.fails + 1;
                            if
                              t.policy.quarantine_after > 0
                              && rs.fails >= t.policy.quarantine_after
                            then begin
                              (* repeated soft failures across cycles: stop
                                 burning timeouts on this host, mark it for
                                 the operator — one notification for the
                                 whole incident *)
                              sshi t ~service ~machine ~override
                                ~success:false ~inprogress:false
                                ~hosterror:code
                                ~errmsg:("quarantined: " ^ msg) ~ltt:now
                                ~lts;
                              notify t
                                (Printf.sprintf
                                   "DCM: %s on %s quarantined after %d \
                                    consecutive soft failures: %s"
                                   service machine rs.fails msg);
                              rs.notified <- true;
                              persist ();
                              results :=
                                (machine, Quarantined msg) :: !results
                            end
                            else begin
                              let backoff =
                                min t.policy.backoff_max_s
                                  (t.policy.backoff_base_s
                                  * (1 lsl min 20 (rs.fails - 1)))
                              in
                              let backoff =
                                Sim.Rng.jitter t.rng
                                  ~frac:t.policy.backoff_jitter backoff
                              in
                              rs.next_attempt <- now + backoff;
                              persist ();
                              sshi t ~service ~machine ~override
                                ~success:false ~inprogress:false ~hosterror:0
                                ~errmsg:msg ~ltt:now ~lts;
                              results :=
                                (machine, Soft_failed msg) :: !results
                            end
                        | Error (Update.Hard (code, msg)) ->
                            rs.fails <- 0;
                            rs.next_attempt <- 0;
                            persist ();
                            sshi t ~service ~machine ~override
                              ~success:false ~inprogress:false
                              ~hosterror:code ~errmsg:msg ~ltt:now ~lts;
                            notify t
                              (Printf.sprintf
                                 "DCM: hard failure updating %s on %s: %s"
                                 service machine msg);
                            if replicated then begin
                              ssif t ~service ~dfgen
                                ~dfcheck:
                                  (Value.int (sfield t row "dfcheck"))
                                ~inprogress:false ~harderr:code ~errmsg:msg;
                              hard_stop := true
                            end;
                            results :=
                              (machine, Hard_failed msg) :: !results)
                    end
                  end)
                hosts;
              List.rev !results)
      end

(* Derive the per-outcome counters from the same service reports the
   history records — one source of truth for reports, stats queries and
   benches. *)
let count_outcomes t services =
  let bump name = Obs.Counter.incr (Obs.Counter.make t.obs name) in
  List.iter
    (fun s ->
      (match s.gen with
      | Generated _ -> bump "dcm.gen.generated"
      | No_change -> bump "dcm.gen.no_change"
      | Not_due -> bump "dcm.gen.not_due"
      | Gen_failed _ -> bump "dcm.gen.failed"
      | Locked -> bump "dcm.gen.locked");
      List.iter
        (fun (_, h) ->
          match h with
          | Updated _ -> bump "dcm.host.updated"
          | Up_to_date -> bump "dcm.host.up_to_date"
          | Soft_failed _ -> bump "dcm.host.soft_failed"
          | Hard_failed _ -> bump "dcm.host.hard_failed"
          | Backed_off _ -> bump "dcm.host.backed_off"
          | Quarantined _ -> bump "dcm.host.quarantined")
        s.hosts)
    services

let run t =
  let at = now_sec t in
  let host = Netsim.Net.host t.net t.moira_host in
  let fs = Netsim.Host.fs host in
  (* the DCM is a process on the Moira machine: no machine, no run *)
  let disabled =
    (not (Netsim.Host.is_up host))
    || Netsim.Vfs.exists fs ~path:"/etc/nodcm"
    || Moira.Mdb.get_value (mdb t) "dcm_enable" = Some 0
  in
  let retries0 = Obs.Counter.get t.c_retries in
  let sent0 = Obs.Counter.get t.c_notices_sent in
  let dropped0 = Obs.Counter.get t.c_notices_dropped in
  Obs.Counter.incr (Obs.Counter.make t.obs "dcm.cycles");
  let services =
    if disabled then []
    else
      Obs.with_span t.obs "dcm.cycle" @@ fun () ->
      List.map
        (fun gen ->
          Obs.with_span t.obs "dcm.service"
            ~attrs:[ ("service", gen.Gen.service) ]
          @@ fun () ->
          let g, rebuilt, spliced =
            Obs.with_span t.obs "dcm.generate" (fun () ->
                generate_phase t gen)
          in
          let hosts =
            Obs.with_span t.obs "dcm.hosts" (fun () -> host_phase t gen)
          in
          { service = gen.Gen.service; gen = g; rebuilt; spliced; hosts })
        t.generators
  in
  count_outcomes t services;
  (* freshness/SLO heartbeat: re-derive staleness (hosts that stopped
     applying keep growing stale), snapshot window baselines, and route
     any breach through the ordinary DCM notification path *)
  Obs.Freshness.refresh t.obs;
  (match t.slo with
  | Some s ->
      Obs.Slo.tick s;
      ignore (Obs.Slo.check s ~notify:(notify t))
  | None -> ());
  let report =
    {
      at;
      disabled;
      services;
      retries = Obs.Counter.get t.c_retries - retries0;
      notices_sent = Obs.Counter.get t.c_notices_sent - sent0;
      notices_dropped = Obs.Counter.get t.c_notices_dropped - dropped0;
    }
  in
  t.history <- report :: t.history;
  report

let schedule t engine ~every_min =
  Sim.Engine.every engine ~interval:(every_min * 60 * 1000) "dcm"
    (fun () -> ignore (run t))
