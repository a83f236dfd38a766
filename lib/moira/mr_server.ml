type conn_state = {
  mutable principal : string;
  mutable client_name : string;
}

(* Immutable snapshot; the live counts are Obs counters. *)
type cache_stats = {
  hits : int;
  misses : int;
  invalidations : int;
}

type t = {
  mdb : Mdb.t;
  registry : Query.registry;
  gdb : conn_state Gdb.Server.t;
  obs : Obs.t;
  clock : unit -> int;  (* engine ms, for handler durations *)
  read_only : bool;
  (* journal sequence this server's database reflects: the journal head
     on a primary, the replication stream's applied sequence on a
     replica (rewired by [create_replica] once the puller exists) *)
  mutable seq_of : unit -> int;
  c_served : Obs.Counter.counter;
  c_errors : Obs.Counter.counter;
  h_handler : Obs.Histogram.histogram;
  c_hits : Obs.Counter.counter;
  c_misses : Obs.Counter.counter;
  c_invalidations : Obs.Counter.counter;
  (* The access cache the paper anticipates in section 5.5: verdicts of
     Access requests keyed by (principal, query, args), flushed whenever
     any side-effecting query commits (ACLs live in the database, so any
     write may change them; flushing on every write is conservative but
     always correct). *)
  access_cache : (string, int) Hashtbl.t option;
}

let connection_count t = Gdb.Server.connection_count t.gdb

let access_cache_stats t =
  {
    hits = Obs.Counter.get t.c_hits;
    misses = Obs.Counter.get t.c_misses;
    invalidations = Obs.Counter.get t.c_invalidations;
  }

let cache_key principal name args =
  String.concat "\000" (principal :: name :: args)

(* Handler time (engine ms) past which a query is logged as slow. *)
let slow_query_ms = 1000

let create ?(backend = Gdb.Server.Per_server 1500) ?(access_cache = false)
    ?extra_queries ?obs ?(read_only = false)
    ~net ~host ~mdb ~kdc ?(trigger_dcm = fun () -> ()) () =
  (* Default to the net's registry: in a testbed that is [Obs.default],
     in an isolated unit test it is the net's private registry, so two
     servers in one process never share counters by accident. *)
  let obs = match obs with Some o -> o | None -> Netsim.Net.obs net in
  ignore (Krb.Kdc.register_service kdc Protocol.moira_service);
  let krb_ctx =
    match Krb.Kdc.server_ctx kdc ~service:Protocol.moira_service with
    | Ok ctx -> ctx
    | Error _ -> assert false (* we just registered the service *)
  in
  let t_ref = ref None in
  let list_users () =
    match !t_ref with
    | None -> []
    | Some t ->
        List.map
          (fun (info : conn_state Gdb.Server.conn_info) ->
            [
              info.Gdb.Server.state.principal;
              info.peer;
              (* ephemeral client port, synthesized from the conn id *)
              string_of_int (1024 + info.conn_id);
              string_of_int (info.connect_time / 1000);
              string_of_int info.conn_id;
            ])
          (Gdb.Server.connections t.gdb)
  in
  let registry =
    Catalog.make ~list_users ~trigger_dcm ?extra:extra_queries ()
  in
  let ctx_of ?(trace = "") (info : conn_state Gdb.Server.conn_info) =
    {
      Query.mdb;
      caller = info.state.principal;
      client = info.state.client_name;
      privileged = false;
      trace;
    }
  in
  let do_access t info name args =
    let check () =
      match Query.check registry (ctx_of info) ~name args with
      | Ok () -> 0
      | Error code -> code
    in
    match t.access_cache with
    | None -> check ()
    | Some cache -> (
        let key = cache_key info.Gdb.Server.state.principal name args in
        match Hashtbl.find_opt cache key with
        | Some verdict ->
            Obs.Counter.incr t.c_hits;
            verdict
        | None ->
            Obs.Counter.incr t.c_misses;
            let verdict = check () in
            Hashtbl.replace cache key verdict;
            verdict)
  in
  let invalidate t =
    match t.access_cache with
    | Some cache when Hashtbl.length cache > 0 ->
        Obs.Counter.incr t.c_invalidations;
        Hashtbl.reset cache
    | _ -> ()
  in
  let run_query t info ~wire_ctx name args =
    (* Span + latency histogram per query.  Durations are engine time:
       a pure handler reads as 0 ms, nested RPCs (trigger_dcm, remote
       lookups) charge their real simulated cost — exactly what a
       slow-query log should surface.  [wire_ctx] is the trace context
       the request carried; the handler span joins that trace, and a
       committing query journals the handler span's own context, so
       replica apply and DCM install land under this span. *)
    let sp =
      Obs.span_begin t.obs "query"
        ?parent_ctx:(Obs.ctx_of_string wire_ctx)
        ~attrs:[ ("name", name); ("caller", info.Gdb.Server.state.principal) ]
    in
    let span_ctx = Obs.span_ctx sp in
    let t0 = t.clock () in
    let q = Query.find t.registry name in
    let writes =
      match q with Some q -> q.Query.kind <> Query.Retrieve | None -> false
    in
    let code, tuples =
      if t.read_only && writes then (Mr_err.read_only_replica, [])
      else
        match
          Query.execute t.registry
            (ctx_of ~trace:(Obs.ctx_to_string span_ctx) info)
            ~name args
        with
        | Ok tuples ->
            if writes then invalidate t;
            (0, tuples)
        | Error code -> (code, [])
    in
    let dur = t.clock () - t0 in
    Obs.Histogram.observe t.h_handler dur;
    (* per-query series only for catalogue names: the name is whatever
       the peer sent, and each distinct one would be a new histogram *)
    if Option.is_some q then
      Obs.Histogram.observe
        (Obs.Histogram.make t.obs ("query." ^ name ^ ".handler_ms"))
        dur;
    if code <> 0 then Obs.Counter.incr t.c_errors;
    if dur >= slow_query_ms then
      Obs.log t.obs ~channel:"slow_query"
        ~attrs:
          [
            ("query", name);
            ("ms", string_of_int dur);
            ("caller", info.Gdb.Server.state.principal);
            ("code", string_of_int code);
            ("trace", span_ctx.Obs.trace_id);
          ]
        name;
    Obs.span_end t.obs sp ~attrs:[ ("code", string_of_int code) ];
    (code, tuples)
  in
  let handler info (req : Gdb.Wire.request) =
    let t = match !t_ref with Some t -> t | None -> assert false in
    if req.op = Protocol.op_noop then (0, [])
    else if req.op = Protocol.op_auth then begin
      match req.args with
      | [ authenticator; client_name ] -> (
          match Krb.Kdc.rd_req krb_ctx authenticator with
          | Ok principal ->
              info.Gdb.Server.state.principal <- principal;
              info.state.client_name <- client_name;
              (0, [])
          | Error code -> (code, []))
      | _ -> (Mr_err.args, [])
    end
    else if req.op = Protocol.op_query then begin
      Obs.Counter.incr t.c_served;
      match req.args with
      | name :: args -> run_query t info ~wire_ctx:req.ctx name args
      | [] -> (Mr_err.args, [])
    end
    else if req.op = Protocol.op_query2 then begin
      Obs.Counter.incr t.c_served;
      match req.args with
      | hw :: name :: args ->
          let hw = Option.value (int_of_string_opt hw) ~default:0 in
          if hw > t.seq_of () then (Mr_err.replica_stale, [])
          else begin
            let code, tuples = run_query t info ~wire_ctx:req.ctx name args in
            if code = 0 then
              (* head tuple: the sequence the reply reflects, so the
                 client can advance its high-water mark *)
              (0, [ string_of_int (t.seq_of ()) ] :: tuples)
            else (code, tuples)
          end
      | _ -> (Mr_err.args, [])
    end
    else if req.op = Protocol.op_access then begin
      match req.args with
      | name :: args -> (do_access t info name args, [])
      | [] -> (Mr_err.args, [])
    end
    else if req.op = Protocol.op_trigger_dcm then begin
      match
        Query.execute registry (ctx_of info) ~name:"trigger_dcm" []
      with
      | Ok _ -> (0, [])
      | Error code -> (code, [])
    end
    else (Mr_err.no_handle, [])
  in
  let gdb =
    Gdb.Server.create ~backend ~net ~host ~service:Protocol.moira_service
      ~init:(fun ~peer:_ -> { principal = ""; client_name = "" })
      ~handler ()
  in
  let t =
    {
      mdb;
      registry;
      gdb;
      obs;
      clock = Sim.Engine.clock (Netsim.Net.engine net);
      c_served = Obs.Counter.make obs "query.served";
      c_errors = Obs.Counter.make obs "query.errors";
      h_handler = Obs.Histogram.make obs "query.handler_ms";
      c_hits = Obs.Counter.make obs "access_cache.hits";
      c_misses = Obs.Counter.make obs "access_cache.misses";
      c_invalidations = Obs.Counter.make obs "access_cache.invalidations";
      access_cache =
        (if access_cache then Some (Hashtbl.create 256) else None);
      read_only;
      seq_of = (fun () -> Relation.Journal.length (Mdb.journal mdb));
    }
  in
  t_ref := Some t;
  t

(* ---------------- replication ---------------- *)

let serve_replication ?retain t ~net ~host =
  Relation.Replicate.serve_primary ?retain ~net ~host
    ~journal:(Mdb.journal t.mdb)
    ~snapshot:(fun () -> Relation.Backup.dump (Mdb.db t.mdb))
    ()

type replica = {
  rep_server : t;
  rep_mdb : Mdb.t;
  rep_handle : Relation.Replicate.replica;
}

let replica_mdb r = r.rep_mdb
let replica_handle r = r.rep_handle

let create_replica ?backend ?access_cache ?obs ?trace_obs ?(poll_ms = 1_000)
    ~net ~host ~primary ~kdc () =
  let engine = Netsim.Net.engine net in
  (* Applying a journal entry pins the database clock to the entry's
     commit time, so modtime/modwith stamps written during replay equal
     the primary's byte for byte, whatever the replica's apply delay. *)
  let base_clock = Sim.Engine.clock_sec engine in
  let pinned = ref None in
  let clock () =
    match !pinned with Some s -> s | None -> base_clock ()
  in
  let mdb = Mdb.create ~clock in
  let self = Netsim.Host.name host in
  let c_apply_failed =
    let o = match obs with Some o -> o | None -> Netsim.Net.obs net in
    Obs.Counter.make o
      ("repl." ^ String.lowercase_ascii self ^ ".apply_failed")
  in
  let server =
    create ?backend ?access_cache ?obs ~read_only:true ~net ~host ~mdb ~kdc ()
  in
  (* Span lane for this replica's applies (a per-host registry in the
     testbed, so the merged trace shows the replica as its own lane). *)
  let tobs =
    match trace_obs with
    | Some o -> o
    | None -> ( match obs with Some o -> o | None -> Netsim.Net.obs net)
  in
  let apply (e : Relation.Journal.entry) =
    pinned := Some e.Relation.Journal.time;
    Fun.protect
      ~finally:(fun () -> pinned := None)
      (fun () ->
        Obs.with_span tobs
          ?parent_ctx:(Obs.ctx_of_string e.Relation.Journal.ctx)
          ~attrs:
            [
              ("query", e.Relation.Journal.query);
              ("commit_s", string_of_int e.Relation.Journal.time);
            ]
          "repl.apply"
        @@ fun () ->
        let ctx =
          {
            Query.mdb;
            caller = e.Relation.Journal.who;
            client = e.Relation.Journal.client;
            privileged = true;
            (* replay stamps the primary's ctx, so the replica's own
               journal matches the primary's byte for byte *)
            trace = e.Relation.Journal.ctx;
          }
        in
        match
          Query.execute server.registry ctx ~name:e.Relation.Journal.query
            e.Relation.Journal.args
        with
        | Ok _ -> ()
        | Error _ -> Obs.Counter.incr c_apply_failed)
  in
  let install_snapshot files ~seq:_ =
    Relation.Backup.restore (Mdb.db mdb) files
  in
  let handle =
    Relation.Replicate.replica ~net ~self ~primary ~apply ~install_snapshot ()
  in
  server.seq_of <- (fun () -> Relation.Replicate.applied_seq handle);
  Relation.Replicate.start handle engine ~every_ms:poll_ms;
  { rep_server = server; rep_mdb = mdb; rep_handle = handle }
