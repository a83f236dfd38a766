(* The journal as a replication stream (the multi-server leg the paper's
   single query server lacks): read-only replicas pull committed changes
   from the primary over the simulated network, apply them through the
   ordinary journal-replay path, and catch up from a full snapshot when
   they boot fresh or fall behind the primary's retention window.

   The wire format reuses the backup escape codec: every request and
   every reply line is one [Backup.encode_row] row (escaping confines a
   row — even one carrying a whole dump file — to a single line), and a
   reply is header row + payload rows joined with newlines. *)

let service_name = "moira_repl"

(* ---------------- primary ---------------- *)

type primary = {
  p_journal : Journal.t;
  p_snapshot : unit -> (string * string) list;
  p_retain : int option;
  p_obs : Obs.t;
  p_fetches : Obs.Counter.counter;
  p_snaps : Obs.Counter.counter;
}

let min_served p =
  match p.p_retain with
  | None -> 0
  | Some r -> max 0 (Journal.head_seq p.p_journal - r)

let encode_entry (e : Journal.entry) =
  Backup.encode_row
    (string_of_int e.Journal.time
    :: e.Journal.who :: e.Journal.client :: e.Journal.query :: e.Journal.ctx
    :: e.Journal.args)

let decode_entry line =
  match Backup.decode_row line with
  | time :: who :: client :: query :: ctx :: args -> (
      match int_of_string_opt time with
      | Some time -> Some { Journal.time; who; client; query; ctx; args }
      | None -> None)
  | _ -> None
  | exception Failure _ -> None

let reply_rows rows = String.concat "\n" rows

(* Entries per FETCH reply. *)
let max_batch = 512

(* Record, per subscribed replica, the highest sequence number it has
   acknowledged (a FETCH at [since] acknowledges everything <= since).
   The gauge is named after the calling host, not the replica name the
   payload carries: any peer can send any name. *)
let note_ack p ~src ~since =
  Obs.Gauge.set
    (Obs.Gauge.make p.p_obs ("repl." ^ String.lowercase_ascii src ^ ".acked"))
    since

let handle p ~src payload =
  let head = Journal.head_seq p.p_journal in
  match Backup.decode_row payload with
  | [ "SUBSCRIBE"; _replica; since ] ->
      let since = Option.value (int_of_string_opt since) ~default:0 in
      note_ack p ~src ~since;
      reply_rows
        [
          Backup.encode_row
            [
              "OK"; string_of_int head; string_of_int (min_served p);
            ];
        ]
  | [ "HEARTBEAT"; _replica ] ->
      reply_rows
        [
          Backup.encode_row
            [ "OK"; string_of_int head; string_of_int (min_served p) ];
        ]
  | [ "FETCH"; _replica; since ] ->
      Obs.Counter.incr p.p_fetches;
      let since = Option.value (int_of_string_opt since) ~default:0 in
      note_ack p ~src ~since;
      if since < min_served p then
        (* the replica is behind the retention window: entries it needs
           are no longer served — it must catch up from a snapshot *)
        reply_rows
          [
            Backup.encode_row
              [
                "SNAP_NEEDED"; string_of_int head;
                string_of_int (min_served p);
              ];
          ]
      else begin
        let batch =
          let all = Journal.entries_from p.p_journal ~seq:since in
          let rec take acc k = function
            | e :: rest when k > 0 -> take (e :: acc) (k - 1) rest
            | _ -> List.rev acc
          in
          take [] max_batch all
        in
        let header =
          Backup.encode_row
            [
              "ENTRIES"; string_of_int head; string_of_int (since + 1);
              string_of_int (List.length batch);
            ]
        in
        reply_rows (header :: List.map encode_entry batch)
      end
  | [ "SNAPSHOT"; _replica ] ->
      Obs.Counter.incr p.p_snaps;
      let files = p.p_snapshot () in
      let header =
        Backup.encode_row
          [
            "SNAP"; string_of_int head;
            string_of_int (List.length files);
          ]
      in
      reply_rows
        (header
        :: List.map
             (fun (name, contents) -> Backup.encode_row [ name; contents ])
             files)
  | _ -> reply_rows [ Backup.encode_row [ "ERR"; "bad request" ] ]
  | exception Failure msg ->
      reply_rows [ Backup.encode_row [ "ERR"; msg ] ]

let serve_primary ?retain ~net ~host ~journal ~snapshot () =
  let p =
    {
      p_journal = journal;
      p_snapshot = snapshot;
      p_retain = retain;
      p_obs = Netsim.Net.obs net;
      p_fetches = Obs.Counter.make (Netsim.Net.obs net) "repl.primary.fetches";
      p_snaps =
        Obs.Counter.make (Netsim.Net.obs net) "repl.primary.snapshots_served";
    }
  in
  Netsim.Host.serve host ~service:service_name (fun ~src payload ->
      handle p ~src payload);
  p

(* ---------------- replica ---------------- *)

type replica = {
  r_net : Netsim.Net.t;
  r_self : string;
  r_primary : string;
  r_apply : Journal.entry -> unit;
  r_install : (string * string) list -> seq:int -> unit;
  mutable r_applied : int;
  mutable r_subscribed : bool;
  r_obs : Obs.t;
  c_applied : Obs.Counter.counter;
  c_fetches : Obs.Counter.counter;
  c_fetch_failed : Obs.Counter.counter;
  c_snapshots : Obs.Counter.counter;
  c_gaps : Obs.Counter.counter;
  h_lag_entries : Obs.Histogram.histogram;
  h_apply_delay : Obs.Histogram.histogram;
  h_c2r : Obs.Histogram.histogram;
  h_c2r_self : Obs.Histogram.histogram;
}

let applied_seq r = r.r_applied

let call r payload =
  Netsim.Net.call r.r_net ~src:r.r_self ~dst:r.r_primary
    ~service:service_name payload

let parse_reply reply =
  match String.split_on_char '\n' reply with
  | header :: rest -> (
      match Backup.decode_row header with
      | fields -> Some (fields, rest)
      | exception Failure _ -> None)
  | [] -> None

let now_ms r = Obs.now_ms r.r_obs

let observe_applied r (e : Journal.entry) =
  Obs.Counter.incr r.c_applied;
  let delay = max 0 (now_ms r - (e.Journal.time * 1000)) in
  Obs.Histogram.observe r.h_apply_delay delay;
  (* the freshness view of the same event: commit-to-replica lag per
     host, plus the staleness gauges the SLO engine reads *)
  Obs.Histogram.observe r.h_c2r delay;
  Obs.Histogram.observe r.h_c2r_self delay;
  Obs.Freshness.note_commit r.r_obs ~host:r.r_self ~commit_s:e.Journal.time

let snapshot_catchup r =
  match call r (Backup.encode_row [ "SNAPSHOT"; r.r_self ]) with
  | Error _f -> Obs.Counter.incr r.c_fetch_failed
  | Ok reply -> (
      match parse_reply reply with
      | Some ([ "SNAP"; seq; nfiles ], rows) ->
          let seq = Option.value (int_of_string_opt seq) ~default:0 in
          let nfiles = Option.value (int_of_string_opt nfiles) ~default:0 in
          let files =
            List.filter_map
              (fun row ->
                match Backup.decode_row row with
                | [ name; contents ] -> Some (name, contents)
                | _ -> None
                | exception Failure _ -> None)
              rows
          in
          if List.length files = nfiles then begin
            r.r_install files ~seq;
            r.r_applied <- seq;
            Obs.Counter.incr r.c_snapshots
          end
          else Obs.Counter.incr r.c_fetch_failed
      | _ -> Obs.Counter.incr r.c_fetch_failed)

(* One pull round: fetch batches until caught up with the head the
   primary reported (or a transport fault ends the round).  Returns
   whether the round made contact with the primary. *)
let poll r =
  if not r.r_subscribed then begin
    match
      call r
        (Backup.encode_row
           [ "SUBSCRIBE"; r.r_self; string_of_int r.r_applied ])
    with
    | Error _f -> Obs.Counter.incr r.c_fetch_failed
    | Ok reply -> (
        r.r_subscribed <- true;
        match parse_reply reply with
        | Some ([ "OK"; head; _min ], _) ->
            let head = Option.value (int_of_string_opt head) ~default:0 in
            (* fresh boot against a primary with history: restoring the
               snapshot is O(database), replaying the whole journal is
               O(history) query executions — take the snapshot *)
            if r.r_applied = 0 && head > 0 then
              snapshot_catchup r
        | _ -> ())
  end;
  if r.r_subscribed then begin
    let continue = ref true in
    while !continue do
      continue := false;
      Obs.Counter.incr r.c_fetches;
      match
        call r
          (Backup.encode_row [ "FETCH"; r.r_self; string_of_int r.r_applied ])
      with
      | Error _f -> Obs.Counter.incr r.c_fetch_failed
      | Ok reply -> (
          match parse_reply reply with
          | Some (("ENTRIES" :: head :: first :: count :: []), rows) ->
              let head = Option.value (int_of_string_opt head) ~default:0 in
              let first =
                Option.value (int_of_string_opt first) ~default:0
              in
              let count =
                Option.value (int_of_string_opt count) ~default:0
              in
              if first > r.r_applied + 1 then begin
                (* sequence gap: the stream skipped entries we never saw *)
                Obs.Counter.incr r.c_gaps;
                snapshot_catchup r
              end
              else begin
                List.iteri
                  (fun i row ->
                    match decode_entry row with
                    | Some e ->
                        let seq = first + i in
                        if seq > r.r_applied then begin
                          r.r_apply e;
                          r.r_applied <- seq;
                          observe_applied r e
                        end
                    | None -> Obs.Counter.incr r.c_fetch_failed)
                  rows;
                (* a full batch means more entries are waiting *)
                if count > 0 && r.r_applied < head then continue := true
              end
          | Some (("SNAP_NEEDED" :: _), _) ->
              Obs.Counter.incr r.c_gaps;
              snapshot_catchup r
          | _ -> Obs.Counter.incr r.c_fetch_failed)
    done
  end

let observe_lag r ~head =
  Obs.Histogram.observe r.h_lag_entries (max 0 (head - r.r_applied))

let poll_and_observe r =
  poll r;
  (* a cheap heartbeat reports the head so lag is observable even when
     the fetch round failed *)
  match call r (Backup.encode_row [ "HEARTBEAT"; r.r_self ]) with
  | Error _f -> ()
  | Ok reply -> (
      match parse_reply reply with
      | Some ([ "OK"; head; _min ], _) ->
          let head = Option.value (int_of_string_opt head) ~default:0 in
          observe_lag r ~head
      | _ -> ())

let replica ~net ~self ~primary ~apply
    ~install_snapshot () =
  let obs = Netsim.Net.obs net in
  let key = "repl." ^ String.lowercase_ascii self in
  {
    r_net = net;
    r_self = self;
    r_primary = primary;
    r_apply = apply;
    r_install = install_snapshot;
    r_applied = 0;
    r_subscribed = false;
    r_obs = obs;
    c_applied = Obs.Counter.make obs (key ^ ".applied");
    c_fetches = Obs.Counter.make obs (key ^ ".fetches");
    c_fetch_failed = Obs.Counter.make obs (key ^ ".fetch_failed");
    c_snapshots = Obs.Counter.make obs (key ^ ".snapshots");
    c_gaps = Obs.Counter.make obs (key ^ ".gaps");
    h_lag_entries = Obs.Histogram.make obs "repl.lag_entries";
    h_apply_delay = Obs.Histogram.make obs "repl.apply_delay_ms";
    h_c2r = Obs.Histogram.make obs "prop.commit_to_replica_ms";
    h_c2r_self =
      Obs.Histogram.make obs
        ("prop.host." ^ String.lowercase_ascii self ^ ".commit_to_replica_ms");
  }

let start r engine ~every_ms =
  ignore
    (Sim.Engine.every engine ~interval:every_ms "repl-poll" (fun () ->
         poll_and_observe r))
