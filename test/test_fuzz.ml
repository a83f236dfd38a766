(* Robustness fuzzing: the Moira server, its replication stream, the
   update service and the registration server must survive arbitrary
   bytes on their ports —
   the paper's "tamper-proof ... safe from malicious network attacks"
   requirement, checked the blunt way. *)

open Workload

let random_bytes rng n =
  String.init n (fun _ -> Char.chr (Sim.Rng.int rng 256))

(* also fuzz with structurally valid frames carrying junk fields *)
let junk_frame rng =
  Gdb.Wire.encode_request
    {
      Gdb.Wire.version =
        (if Sim.Rng.bool rng then Gdb.Wire.protocol_version
         else Sim.Rng.int rng 100);
      conn = Sim.Rng.int rng 1000;
      op = Sim.Rng.int rng 64;
      args =
        List.init (Sim.Rng.int rng 5) (fun _ ->
            random_bytes rng (Sim.Rng.int rng 40));
      ctx =
        (if Sim.Rng.bool rng then "" else random_bytes rng (Sim.Rng.int rng 30));
    }

let fuzz_service ~service () =
  let tb = Testbed.create () in
  let rng = Sim.Rng.create 1234 in
  let dsts =
    tb.Testbed.built.Population.moira_machine
    :: Array.to_list tb.Testbed.built.Population.hesiod_machines
  in
  let ws = tb.Testbed.built.Population.workstation_machines.(0) in
  for _ = 1 to 300 do
    let payload =
      if Sim.Rng.bool rng then random_bytes rng (Sim.Rng.int rng 200)
      else junk_frame rng
    in
    let dst = Sim.Rng.pick_list rng dsts in
    (* any result is fine; an exception is the failure *)
    match Netsim.Net.call tb.Testbed.net ~src:ws ~dst ~service payload with
    | Ok _ | Error _ -> ()
  done;
  (* the server is still alive and correct afterwards *)
  let c = Testbed.admin_client tb ~src:ws in
  match Moira.Mr_client.mr_query_list c ~name:"get_all_active_logins" [] with
  | Ok rows -> Alcotest.(check bool) "still serving" true (List.length rows > 0)
  | Error code -> Alcotest.fail (Comerr.Com_err.error_message code)

let fuzz_userreg () =
  let tb = Testbed.create () in
  let rng = Sim.Rng.create 99 in
  let ws = tb.Testbed.built.Population.workstation_machines.(0) in
  for _ = 1 to 200 do
    let payload = random_bytes rng (Sim.Rng.int rng 150) in
    match
      Netsim.Net.call tb.Testbed.net ~src:ws
        ~dst:tb.Testbed.built.Population.moira_machine ~service:"userreg"
        payload
    with
    | Ok _ | Error _ -> ()
  done;
  (* nobody got registered by garbage *)
  let stubs =
    Relation.Table.count
      (Moira.Mdb.table tb.Testbed.mdb "users")
      (Relation.Pred.eq_int "status" 0)
  in
  Alcotest.(check int) "stubs untouched"
    tb.Testbed.built.Population.spec.Population.unregistered stubs

(* --- the replication port and sequenced queries ----------------- *)

(* Every named series (counter, gauge, histogram) in every lane of the
   testbed: the Moira machine's registry, which the primary and replica
   servers share, and each serving host's and replica's own. *)
let series tb =
  List.fold_left
    (fun n (_, o) ->
      n + List.length (Obs.counters o) + List.length (Obs.gauges o)
      + List.length (Obs.histograms o))
    0 (Testbed.lanes tb)

let frame ~conn op args =
  Gdb.Wire.encode_request
    { Gdb.Wire.version = Gdb.Wire.protocol_version; conn; op; args; ctx = "" }

let moira_call tb ~src ~dst payload =
  Netsim.Net.call tb.Testbed.net ~src ~dst ~service:Moira.Protocol.moira_service
    payload

(* An unauthenticated connection, opened with a raw GDB frame. *)
let open_conn tb ~src ~dst =
  match moira_call tb ~src ~dst (frame ~conn:0 Gdb.Wire.op_open []) with
  | Ok reply -> (
      match Gdb.Wire.decode_reply reply with
      | Ok { Gdb.Wire.tuples = [ [ id ] ]; _ } -> int_of_string id
      | _ -> Alcotest.fail "open: unexpected reply")
  | Error _ -> Alcotest.fail "open: transport failure"

let repl_call tb ~src payload =
  Netsim.Net.call tb.Testbed.net ~src
    ~dst:tb.Testbed.built.Population.moira_machine
    ~service:Relation.Replicate.service_name payload

(* Query names and replica names are whatever a peer sends.  Distinct
   junk names on one unauthenticated connection, and in SUBSCRIBE and
   FETCH requests, must not each mint a registry series. *)
let junk_names_mint_no_series () =
  let tb = Testbed.create ~replicas:1 () in
  Testbed.run_minutes tb 1;
  let ws = tb.Testbed.built.Population.workstation_machines.(0) in
  let dsts =
    [ tb.Testbed.built.Population.moira_machine; Testbed.replica_machine 0 ]
  in
  let conns = List.map (fun dst -> (dst, open_conn tb ~src:ws ~dst)) dsts in
  let send lo hi =
    for i = lo to hi - 1 do
      let name = Printf.sprintf "no_such_query_%d" i in
      List.iter
        (fun (dst, conn) ->
          ignore
            (moira_call tb ~src:ws ~dst
               (frame ~conn Moira.Protocol.op_query [ name ]));
          ignore
            (moira_call tb ~src:ws ~dst
               (frame ~conn Moira.Protocol.op_query2 [ "0"; name ])))
        conns;
      List.iter
        (fun verb ->
          ignore
            (repl_call tb ~src:ws
               (Relation.Backup.encode_row [ verb; name; "0" ])))
        [ "SUBSCRIBE"; "FETCH" ]
    done
  in
  (* a first round makes the series any traffic makes *)
  send 0 10;
  let before = series tb in
  send 10 510;
  Alcotest.(check int) "series after 500 more junk names" before (series tb)

let junk_row rng =
  let field () =
    match Sim.Rng.int rng 4 with
    | 0 -> random_bytes rng (Sim.Rng.int rng 20)
    | 1 -> string_of_int (Sim.Rng.int rng 100_000 - 50_000)
    | 2 -> string_of_int max_int
    | _ -> Testbed.replica_machine 0
  in
  let verb =
    Sim.Rng.pick_list rng
      [ "SUBSCRIBE"; "HEARTBEAT"; "FETCH"; "SNAPSHOT"; "FETCH"; "NOPE" ]
  in
  Relation.Backup.encode_row
    (verb :: List.init (Sim.Rng.int rng 4) (fun _ -> field ()))

(* Garbage, junk GDB frames and junk replication rows on the primary's
   [moira_repl] port, then sequenced queries with junk high-water marks
   on both [moira] ports: both servers keep answering, the replica keeps
   converging, and no junk name becomes a series. *)
let fuzz_replication () =
  let tb = Testbed.create ~replicas:1 () in
  Testbed.run_minutes tb 1;
  let rng = Sim.Rng.create 4321 in
  let ws = tb.Testbed.built.Population.workstation_machines.(0) in
  let primary = tb.Testbed.built.Population.moira_machine in
  let replica = Testbed.replica_machine 0 in
  let conns =
    List.map (fun dst -> (dst, open_conn tb ~src:ws ~dst)) [ primary; replica ]
  in
  let login = tb.Testbed.built.Population.logins.(0) in
  let junk_hw () =
    match Sim.Rng.int rng 4 with
    | 0 -> random_bytes rng (Sim.Rng.int rng 12)
    | 1 -> string_of_int (Sim.Rng.int rng 1_000_000 - 500_000)
    | 2 -> "99999999999999999999999"
    | _ -> string_of_int max_int
  in
  let round n =
    for _ = 1 to n do
      let payload =
        match Sim.Rng.int rng 3 with
        | 0 -> random_bytes rng (Sim.Rng.int rng 200)
        | 1 -> junk_frame rng
        | _ -> junk_row rng
      in
      (* any result is fine; an exception is the failure *)
      ignore (repl_call tb ~src:ws payload);
      let dst, conn = Sim.Rng.pick_list rng conns in
      let name =
        if Sim.Rng.bool rng then "get_user_by_login"
        else random_bytes rng (1 + Sim.Rng.int rng 16)
      in
      ignore
        (moira_call tb ~src:ws ~dst
           (frame ~conn Moira.Protocol.op_query2 [ junk_hw (); name; login ]))
    done
  in
  round 20;
  let before = series tb in
  round 300;
  Alcotest.(check int) "no series per junk name" before (series tb);
  (* both servers still answer *)
  let ask c =
    match
      Moira.Mr_client.mr_query_list c ~name:"get_user_by_login" [ login ]
    with
    | Ok rows -> Alcotest.(check int) "one row" 1 (List.length rows)
    | Error code -> Alcotest.fail (Comerr.Com_err.error_message code)
  in
  let admin = Testbed.admin_client tb ~src:ws in
  ask admin;
  let on_replica = Testbed.client tb ~src:ws in
  Alcotest.(check int) "connect to replica" 0
    (Moira.Mr_client.mr_connect on_replica ~dst:replica);
  Alcotest.(check int) "auth against replica" 0
    (Moira.Mr_client.mr_auth on_replica ~kdc:tb.Testbed.kdc
       ~principal:tb.Testbed.built.Population.admin
       ~password:tb.Testbed.built.Population.admin_password
       ~clientname:"fuzz");
  ask on_replica;
  (* the replica still converges on a write made after the fuzzing *)
  (match
     Moira.Mr_client.mr_query_list admin ~name:"update_user_shell"
       [ login; "/bin/fuzzsh" ]
   with
  | Ok _ -> ()
  | Error code -> Alcotest.fail (Comerr.Com_err.error_message code));
  Testbed.run_minutes tb 1;
  let _, r = List.hd tb.Testbed.replicas in
  Alcotest.(check int) "replica caught up"
    (Relation.Journal.head_seq (Moira.Mdb.journal tb.Testbed.mdb))
    (Relation.Replicate.applied_seq (Moira.Mr_server.replica_handle r));
  match
    Moira.Mr_client.mr_query_list on_replica ~name:"get_user_by_login" [ login ]
  with
  | Ok (row :: _) ->
      Alcotest.(check bool) "replica serves the write" true
        (List.mem "/bin/fuzzsh" row)
  | Ok [] -> Alcotest.fail "replica lost the user"
  | Error code -> Alcotest.fail (Comerr.Com_err.error_message code)

(* --- a session belongs to the host that opened it --- *)

(* Raw frames naming the admin's connection id, sent from a second
   workstation, must neither run as the admin's session nor close it. *)
let session_bound_to_peer () =
  let tb = Testbed.create () in
  let ws = tb.Testbed.built.Population.workstation_machines.(0) in
  let intruder = tb.Testbed.built.Population.workstation_machines.(1) in
  let login = tb.Testbed.built.Population.logins.(0) in
  (* the first network client: the server hands it connection 1 *)
  let admin = Testbed.admin_client tb ~src:ws in
  let shell () =
    match
      Moira.Mr_client.mr_query_list admin ~name:"get_user_by_login" [ login ]
    with
    | Ok ((_ :: _ :: shell :: _) :: _) -> shell
    | Ok _ -> Alcotest.fail "get_user_by_login: no tuple"
    | Error code -> Alcotest.fail (Comerr.Com_err.error_message code)
  in
  let before = shell () in
  let raw op args =
    let frame =
      Gdb.Wire.encode_request
        {
          Gdb.Wire.version = Gdb.Wire.protocol_version;
          conn = 1;
          op;
          args;
          ctx = "";
        }
    in
    match
      Netsim.Net.call tb.Testbed.net ~src:intruder
        ~dst:tb.Testbed.built.Population.moira_machine
        ~service:Moira.Protocol.moira_service frame
    with
    | Error f -> Alcotest.fail (Netsim.Net.failure_to_string f)
    | Ok reply -> (
        match Gdb.Wire.decode_reply reply with
        | Ok r -> r.Gdb.Wire.code
        | Error e -> Alcotest.fail e)
  in
  Alcotest.(check int) "foreign query refused" Gdb.Gdb_err.no_connection
    (raw Moira.Protocol.op_query
       [ "update_user_shell"; login; "/bin/hijacked" ]);
  Alcotest.(check string) "shell unchanged" before (shell ());
  Alcotest.(check int) "foreign close refused" Gdb.Gdb_err.no_connection
    (raw Gdb.Wire.op_close []);
  Alcotest.(check string) "admin session still serves" before (shell ())

(* One host cannot fill the connection table: 63 raw opens from a
   workstation, none closed, leave it holding its quota (a quarter of
   the 64 slots) and an admin on another workstation still connects. *)
let peer_quota () =
  let tb = Testbed.create () in
  let flooder = tb.Testbed.built.Population.workstation_machines.(0) in
  let ws = tb.Testbed.built.Population.workstation_machines.(1) in
  let dst = tb.Testbed.built.Population.moira_machine in
  for _ = 1 to 63 do
    ignore (open_conn tb ~src:flooder ~dst)
  done;
  let admin = Testbed.admin_client tb ~src:ws in
  match Moira.Mr_client.mr_query_list admin ~name:"_list_users" [] with
  | Error code -> Alcotest.fail (Comerr.Com_err.error_message code)
  | Ok rows ->
      let held =
        List.length
          (List.filter
             (function _ :: peer :: _ -> peer = flooder | [] | [ _ ] -> false)
             rows)
      in
      Alcotest.(check int) "flooder holds its quota" 16 held

(* --- the stats queries' pattern matcher --- *)

(* The statistics queries are open to any client and try its pattern
   against every counter, gauge and histogram name.  64 stars and then a
   character no name holds must be refused at once: a matcher that
   backtracks at every star takes time exponential in the stars here,
   and this case would not finish.  [?] matches exactly one character,
   as in every other Moira pattern. *)
let stats_pattern_is_linear () =
  let tb = Testbed.create () in
  let ws = tb.Testbed.built.Population.workstation_machines.(0) in
  let dst = tb.Testbed.built.Population.moira_machine in
  let conn = open_conn tb ~src:ws ~dst in
  let pattern = String.make 64 '*' ^ "#" in
  List.iter
    (fun query ->
      match
        moira_call tb ~src:ws ~dst
          (frame ~conn Moira.Protocol.op_query [ query; pattern ])
      with
      | Ok reply -> (
          match Gdb.Wire.decode_reply reply with
          | Ok r ->
              Alcotest.(check int) (query ^ " finds no match")
                Moira.Mr_err.no_match r.Gdb.Wire.code
          | Error e -> Alcotest.failf "%s: %s" query e)
      | Error _ -> Alcotest.failf "%s: transport failure" query)
    [ "_get_server_statistics"; "_get_query_statistics" ];
  let names pattern =
    match
      moira_call tb ~src:ws ~dst
        (frame ~conn Moira.Protocol.op_query
           [ "_get_server_statistics"; pattern ])
    with
    | Ok reply -> (
        match Gdb.Wire.decode_reply reply with
        | Ok r -> List.map List.hd r.Gdb.Wire.tuples
        | Error e -> Alcotest.failf "%s: %s" pattern e)
    | Error _ -> Alcotest.failf "%s: transport failure" pattern
  in
  Alcotest.(check (list string)) "? matches one character"
    [ "plan.cache.hits" ] (names "plan.cache.hit?");
  Alcotest.(check (list string)) "? needs a character" []
    (names "plan.cache.hits?")

let suite =
  [
    Alcotest.test_case "moira port survives garbage" `Quick
      (fuzz_service ~service:"moira");
    Alcotest.test_case "update port survives garbage" `Quick
      (fuzz_service ~service:"moira_update");
    Alcotest.test_case "hesiod port survives garbage" `Quick
      (fuzz_service ~service:"hesiod");
    Alcotest.test_case "userreg port survives garbage" `Quick fuzz_userreg;
    Alcotest.test_case "junk names mint no series" `Quick
      junk_names_mint_no_series;
    Alcotest.test_case "replication port and query2 survive junk" `Quick
      fuzz_replication;
    Alcotest.test_case "session bound to its peer" `Quick
      session_bound_to_peer;
    Alcotest.test_case "one peer holds at most its quota" `Quick peer_quota;
    Alcotest.test_case "stats pattern of 64 stars is linear" `Quick
      stats_pattern_is_linear;
  ]
