(* Miscellaneous query handles (paper section 7.0.7). *)

open Relation
open Qlib

let hostaccess (ctx : Query.ctx) = Mdb.table ctx.mdb "hostaccess"
let services (ctx : Query.ctx) = Mdb.table ctx.mdb "services"
let printcap (ctx : Query.ctx) = Mdb.table ctx.mdb "printcap"
let alias (ctx : Query.ctx) = Mdb.table ctx.mdb "alias"
let values (ctx : Query.ctx) = Mdb.table ctx.mdb "values"

let q_get_server_host_access =
  {
    Query.name = "get_server_host_access";
    short = "gsha";
    kind = Retrieve;
    inputs = [ "machine" ];
    outputs = [ "machine"; "ace_type"; "ace_name"; "modtime"; "modby";
                "modwith" ];
    check_access = Query.access_acl "get_server_host_access";
    handler =
      (fun ctx args ->
        match args with
        | [ machine ] ->
            let tbl = hostaccess ctx in
            let machine = String.uppercase_ascii machine in
            let rows =
              Table.select tbl Pred.True
              |> List.filter_map (fun (_, row) ->
                     match
                       Lookup.machine_name ctx.mdb
                         (Value.int (Table.field tbl row "mach_id"))
                     with
                     | Some name when Glob.matches ~pattern:machine name ->
                         Some (name, row)
                     | _ -> None)
            in
            let* rows =
              match rows with [] -> Error Mr_err.no_match | r -> Ok r
            in
            Ok
              (List.map
                 (fun (name, row) ->
                   let ty = Value.str (Table.field tbl row "acl_type") in
                   let id = Value.int (Table.field tbl row "acl_id") in
                   name :: ty
                   :: Acl.ace_name ctx.mdb { Acl.ace_type = ty; ace_id = id }
                   :: project tbl [ "modtime"; "modby"; "modwith" ] row)
                 rows)
        | _ -> Error Mr_err.args);
  }

let resolve_machine_ace (ctx : Query.ctx) machine ace_type ace_name =
  let* mach_id =
    match Lookup.machine_id ctx.mdb machine with
    | Some id -> Ok id
    | None -> Error Mr_err.machine
  in
  let* ace = Acl.resolve_ace ctx.mdb ~ace_type ~ace_name in
  Ok (mach_id, ace)

let q_add_server_host_access =
  {
    Query.name = "add_server_host_access";
    short = "asha";
    kind = Append;
    inputs = [ "machine"; "ace_type"; "ace_name" ];
    outputs = [];
    check_access = Query.access_acl "add_server_host_access";
    handler =
      (fun ctx args ->
        match args with
        | [ machine; ace_type; ace_name ] ->
            let* mach_id, ace =
              resolve_machine_ace ctx machine ace_type ace_name
            in
            if Table.exists (hostaccess ctx) (Pred.eq_int "mach_id" mach_id)
            then Error Mr_err.exists
            else begin
              ignore
                (Table.insert (hostaccess ctx)
                   [|
                     Value.Int mach_id; Value.Str ace.Acl.ace_type;
                     Value.Int ace.Acl.ace_id;
                     Value.Int (Mdb.now ctx.mdb);
                     Value.Str
                       (if ctx.caller = "" then "(direct)" else ctx.caller);
                     Value.Str ctx.client;
                   |]);
              Ok []
            end
        | _ -> Error Mr_err.args);
  }

let q_update_server_host_access =
  {
    Query.name = "update_server_host_access";
    short = "usha";
    kind = Update;
    inputs = [ "machine"; "ace_type"; "ace_name" ];
    outputs = [];
    check_access = Query.access_acl "update_server_host_access";
    handler =
      (fun ctx args ->
        match args with
        | [ machine; ace_type; ace_name ] ->
            let* mach_id, ace =
              resolve_machine_ace ctx machine ace_type ace_name
            in
            let n =
              Table.set_fields (hostaccess ctx) (Pred.eq_int "mach_id" mach_id)
                ([ set "acl_type" ace.Acl.ace_type;
                   seti "acl_id" ace.Acl.ace_id ]
                @ stamp_fields ctx ())
            in
            if n = 0 then Error Mr_err.no_match else Ok []
        | _ -> Error Mr_err.args);
  }

let q_delete_server_host_access =
  {
    Query.name = "delete_server_host_access";
    short = "dsha";
    kind = Delete;
    inputs = [ "machine" ];
    outputs = [];
    check_access = Query.access_acl "delete_server_host_access";
    handler =
      (fun ctx args ->
        match args with
        | [ machine ] ->
            let* mach_id =
              match Lookup.machine_id ctx.mdb machine with
              | Some id -> Ok id
              | None -> Error Mr_err.machine
            in
            let n =
              Table.delete (hostaccess ctx) (Pred.eq_int "mach_id" mach_id)
            in
            if n = 0 then Error Mr_err.no_match else Ok []
        | _ -> Error Mr_err.args);
  }

(* Network services (/etc/services).  get_service is our addition — the
   paper lists only add/delete, but the hesiod service.db generator and
   admin clients need the retrieval too. *)
let service_cols =
  [ "name"; "protocol"; "port"; "desc"; "modtime"; "modby"; "modwith" ]

let q_get_service =
  {
    Query.name = "get_service";
    short = "gsvc";
    kind = Retrieve;
    inputs = [ "service" ];
    outputs = service_cols;
    check_access = Query.access_anyone;
    handler =
      (fun ctx args ->
        match args with
        | [ name ] ->
            let* rows =
              rows_or_no_match
                (Table.select (services ctx) (Pred.name_match "name" name))
            in
            Ok
              (List.map
                 (fun (_, row) -> project (services ctx) service_cols row)
                 rows)
        | _ -> Error Mr_err.args);
  }

let q_add_service =
  {
    Query.name = "add_service";
    short = "asvc";
    kind = Append;
    inputs = [ "service"; "protocol"; "port"; "desc" ];
    outputs = [];
    check_access = Query.access_acl "add_service";
    handler =
      (fun ctx args ->
        match args with
        | [ name; protocol; port; desc ] ->
            let* () = check_name name in
            let protocol = String.uppercase_ascii protocol in
            let* () =
              if Mdb.valid_type ctx.mdb ~field:"protocol" protocol then Ok ()
              else Error Mr_err.typ
            in
            let* port = int_arg port in
            if Table.exists (services ctx) (Pred.eq_str "name" name) then
              Error Mr_err.exists
            else begin
              ignore
                (Table.insert (services ctx)
                   [|
                     Value.Str name; Value.Str protocol; Value.Int port;
                     Value.Str desc;
                     Value.Int (Mdb.now ctx.mdb);
                     Value.Str
                       (if ctx.caller = "" then "(direct)" else ctx.caller);
                     Value.Str ctx.client;
                   |]);
              Ok []
            end
        | _ -> Error Mr_err.args);
  }

let q_delete_service =
  {
    Query.name = "delete_service";
    short = "dsvc";
    kind = Delete;
    inputs = [ "service" ];
    outputs = [];
    check_access = Query.access_acl "delete_service";
    handler =
      (fun ctx args ->
        match args with
        | [ name ] ->
            let* _ =
              exactly_one ~err:Mr_err.service
                (Table.select (services ctx) (Pred.eq_str "name" name))
            in
            ignore (Table.delete (services ctx) (Pred.eq_str "name" name));
            Ok []
        | _ -> Error Mr_err.args);
  }

(* Printers. *)
let q_get_printcap =
  {
    Query.name = "get_printcap";
    short = "gpcp";
    kind = Retrieve;
    inputs = [ "printer" ];
    outputs =
      [ "printer"; "spool_host"; "spool_directory"; "rprinter"; "comments";
        "modtime"; "modby"; "modwith" ];
    check_access = Query.access_anyone;
    handler =
      (fun ctx args ->
        match args with
        | [ printer ] ->
            let tbl = printcap ctx in
            let* rows =
              rows_or_no_match
                (Table.select tbl (Pred.name_match "name" printer))
            in
            Ok
              (List.map
                 (fun (_, row) ->
                   Value.str (Table.field tbl row "name")
                   :: Option.value
                        (Lookup.machine_name ctx.mdb
                           (Value.int (Table.field tbl row "mach_id")))
                        ~default:"?"
                   :: project tbl
                        [ "dir"; "rp"; "comments"; "modtime"; "modby";
                          "modwith" ]
                        row)
                 rows)
        | _ -> Error Mr_err.args);
  }

let q_add_printcap =
  {
    Query.name = "add_printcap";
    short = "apcp";
    kind = Append;
    inputs = [ "printer"; "spool_host"; "spool_directory"; "rprinter";
               "comments" ];
    outputs = [];
    check_access = Query.access_acl "add_printcap";
    handler =
      (fun ctx args ->
        match args with
        | [ printer; spool_host; dir; rp; comments ] ->
            let* () = check_name printer in
            let* mach_id =
              match Lookup.machine_id ctx.mdb spool_host with
              | Some id -> Ok id
              | None -> Error Mr_err.machine
            in
            if Table.exists (printcap ctx) (Pred.eq_str "name" printer) then
              Error Mr_err.exists
            else begin
              ignore
                (Table.insert (printcap ctx)
                   [|
                     Value.Str printer; Value.Int mach_id; Value.Str dir;
                     Value.Str rp; Value.Str comments;
                     Value.Int (Mdb.now ctx.mdb);
                     Value.Str
                       (if ctx.caller = "" then "(direct)" else ctx.caller);
                     Value.Str ctx.client;
                   |]);
              Ok []
            end
        | _ -> Error Mr_err.args);
  }

let q_delete_printcap =
  {
    Query.name = "delete_printcap";
    short = "dpcp";
    kind = Delete;
    inputs = [ "printer" ];
    outputs = [];
    check_access = Query.access_acl "delete_printcap";
    handler =
      (fun ctx args ->
        match args with
        | [ printer ] ->
            let* _ =
              exactly_one ~err:Mr_err.no_match
                (Table.select (printcap ctx) (Pred.eq_str "name" printer))
            in
            ignore (Table.delete (printcap ctx) (Pred.eq_str "name" printer));
            Ok []
        | _ -> Error Mr_err.args);
  }

(* Aliases. *)
let q_get_alias =
  {
    Query.name = "get_alias";
    short = "gali";
    kind = Retrieve;
    inputs = [ "name"; "type"; "trans" ];
    outputs = [ "name"; "type"; "trans" ];
    check_access = Query.access_anyone;
    handler =
      (fun ctx args ->
        match args with
        | [ name; ty; trans ] ->
            let pred =
              Pred.conj
                [
                  Pred.name_match "name" name;
                  Pred.name_match "type" ty;
                  Pred.name_match "trans" trans;
                ]
            in
            let* rows = rows_or_no_match (Table.select (alias ctx) pred) in
            Ok
              (List.map
                 (fun (_, row) ->
                   project (alias ctx) [ "name"; "type"; "trans" ] row)
                 rows)
        | _ -> Error Mr_err.args);
  }

let q_add_alias =
  {
    Query.name = "add_alias";
    short = "aali";
    kind = Append;
    inputs = [ "name"; "type"; "trans" ];
    outputs = [];
    check_access = Query.access_acl "add_alias";
    handler =
      (fun ctx args ->
        match args with
        | [ name; ty; trans ] ->
            let ty = String.uppercase_ascii ty in
            let* () =
              if Mdb.valid_type ctx.mdb ~field:"alias" ty then Ok ()
              else Error Mr_err.typ
            in
            let exact =
              Pred.conj
                [ Pred.eq_str "name" name; Pred.eq_str "type" ty;
                  Pred.eq_str "trans" trans ]
            in
            if Table.exists (alias ctx) exact then Error Mr_err.exists
            else begin
              ignore
                (Table.insert (alias ctx)
                   [| Value.Str name; Value.Str ty; Value.Str trans |]);
              Ok []
            end
        | _ -> Error Mr_err.args);
  }

let q_delete_alias =
  {
    Query.name = "delete_alias";
    short = "dali";
    kind = Delete;
    inputs = [ "name"; "type"; "trans" ];
    outputs = [];
    check_access = Query.access_acl "delete_alias";
    handler =
      (fun ctx args ->
        match args with
        | [ name; ty; trans ] ->
            let exact =
              Pred.conj
                [ Pred.eq_str "name" name;
                  Pred.eq_str "type" (String.uppercase_ascii ty);
                  Pred.eq_str "trans" trans ]
            in
            let* _ =
              exactly_one ~err:Mr_err.no_match
                (Table.select (alias ctx) exact)
            in
            ignore (Table.delete (alias ctx) exact);
            Ok []
        | _ -> Error Mr_err.args);
  }

(* Values. *)
let q_get_value =
  {
    Query.name = "get_value";
    short = "gval";
    kind = Retrieve;
    inputs = [ "variable" ];
    outputs = [ "value" ];
    check_access = Query.access_anyone;
    handler =
      (fun ctx args ->
        match args with
        | [ name ] -> (
            match Mdb.get_value ctx.mdb name with
            | Some v -> Ok [ [ string_of_int v ] ]
            | None -> Error Mr_err.no_match)
        | _ -> Error Mr_err.args);
  }

let q_add_value =
  {
    Query.name = "add_value";
    short = "aval";
    kind = Append;
    inputs = [ "variable"; "value" ];
    outputs = [];
    check_access = Query.access_acl "add_value";
    handler =
      (fun ctx args ->
        match args with
        | [ name; v ] ->
            let* v = int_arg v in
            if Table.exists (values ctx) (Pred.eq_str "name" name) then
              Error Mr_err.exists
            else begin
              Mdb.set_value ctx.mdb name v;
              Ok []
            end
        | _ -> Error Mr_err.args);
  }

let q_update_value =
  {
    Query.name = "update_value";
    short = "uval";
    kind = Update;
    inputs = [ "variable"; "value" ];
    outputs = [];
    check_access = Query.access_acl "update_value";
    handler =
      (fun ctx args ->
        match args with
        | [ name; v ] ->
            let* v = int_arg v in
            if not (Table.exists (values ctx) (Pred.eq_str "name" name)) then
              Error Mr_err.no_match
            else begin
              Mdb.set_value ctx.mdb name v;
              Ok []
            end
        | _ -> Error Mr_err.args);
  }

let q_delete_value =
  {
    Query.name = "delete_value";
    short = "dval";
    kind = Delete;
    inputs = [ "variable" ];
    outputs = [];
    check_access = Query.access_acl "delete_value";
    handler =
      (fun ctx args ->
        match args with
        | [ name ] ->
            let n = Table.delete (values ctx) (Pred.eq_str "name" name) in
            if n = 0 then Error Mr_err.no_match else Ok []
        | _ -> Error Mr_err.args);
  }

let q_get_all_table_stats =
  {
    Query.name = "get_all_table_stats";
    short = "gats";
    kind = Retrieve;
    inputs = [];
    outputs = [ "table"; "retrieves"; "appends"; "updates"; "deletes";
                "modtime" ];
    check_access = Query.access_anyone;
    handler =
      (fun ctx _ ->
        Mdb.sync_tblstats ctx.mdb;
        let tbl = Mdb.table ctx.mdb "tblstats" in
        Ok
          (List.map
             (fun (_, row) ->
               project tbl
                 [ "table"; "retrieves"; "appends"; "updates"; "deletes";
                   "modtime" ]
                 row)
             (Table.select tbl Pred.True)));
  }

(* Telemetry read back through the query protocol, as the paper's
   reporting story (section 5.7) would have it.  These read the global
   [Obs.default] registry: everything inside one testbed — network,
   server, plan cache, DCM — records there, and [Query.ctx] carries no
   registry handle. *)

let q_get_server_statistics =
  {
    Query.name = "_get_server_statistics";
    short = "gsst";
    kind = Retrieve;
    inputs = [ "pattern" ];
    outputs = [ "name"; "kind"; "value" ];
    check_access = Query.access_anyone;
    handler =
      (fun _ args ->
        match args with
        | [ pattern ] ->
            let o = Obs.default in
            let rows =
              List.map
                (fun (n, v) -> [ n; "counter"; string_of_int v ])
                (List.filter
                   (fun (n, _) -> Obs.glob_match pattern n)
                   (Obs.counters o))
              @ List.map
                  (fun (n, v) -> [ n; "gauge"; string_of_int v ])
                  (List.filter
                     (fun (n, _) -> Obs.glob_match pattern n)
                     (Obs.gauges o))
            in
            if rows = [] then Error Mr_err.no_match else Ok rows
        | _ -> Error Mr_err.args);
  }

let q_get_query_statistics =
  {
    Query.name = "_get_query_statistics";
    short = "gqst";
    kind = Retrieve;
    inputs = [ "pattern" ];
    outputs =
      [ "name"; "count"; "sum"; "min"; "max"; "p50"; "p95"; "p99" ];
    check_access = Query.access_anyone;
    handler =
      (fun _ args ->
        match args with
        | [ pattern ] ->
            let rows =
              List.filter_map
                (fun (n, s) ->
                  if Obs.glob_match pattern n then
                    Some
                      [
                        n;
                        string_of_int s.Obs.count;
                        string_of_int s.Obs.sum;
                        string_of_int s.Obs.min;
                        string_of_int s.Obs.max;
                        string_of_int s.Obs.p50;
                        string_of_int s.Obs.p95;
                        string_of_int s.Obs.p99;
                      ]
                  else None)
                (Obs.histograms Obs.default)
            in
            if rows = [] then Error Mr_err.no_match else Ok rows
        | _ -> Error Mr_err.args);
  }

let q_get_slow_queries =
  {
    Query.name = "_get_slow_queries";
    short = "gslq";
    kind = Retrieve;
    inputs = [];
    outputs = [ "time"; "query"; "ms"; "caller"; "trace" ];
    check_access = Query.access_anyone;
    handler =
      (fun _ _ ->
        let attr k e =
          match List.assoc_opt k e.Obs.l_attrs with Some v -> v | None -> ""
        in
        Ok
          (List.map
             (fun e ->
               [
                 string_of_int (e.Obs.l_ts_ms / 1000);
                 e.Obs.l_msg;
                 attr "ms" e;
                 attr "caller" e;
                 attr "trace" e;
               ])
             (Obs.logs Obs.default ~channel:"slow_query" ())));
  }

(* The SLO scoreboard, over the global [Obs.Slo.default] the testbed
   configures: one row per objective, graded on demand.  Staleness is
   re-derived first so a host that stopped applying shows its true lag
   even between DCM cycles. *)
let q_get_slo_status =
  {
    Query.name = "_get_slo_status";
    short = "gsls";
    kind = Retrieve;
    inputs = [];
    outputs =
      [ "name"; "metric"; "stat"; "op"; "threshold"; "window_s"; "value";
        "samples"; "verdict" ];
    check_access = Query.access_anyone;
    handler =
      (fun _ _ ->
        Obs.Freshness.refresh Obs.default;
        let rows =
          List.map
            (fun r ->
              let o = r.Obs.Slo.r_objective in
              [
                o.Obs.Slo.o_name;
                o.Obs.Slo.o_metric;
                Obs.Slo.stat_name o.Obs.Slo.o_stat;
                Obs.Slo.op_name o.Obs.Slo.o_op;
                string_of_int o.Obs.Slo.o_threshold;
                string_of_int (o.Obs.Slo.o_window_ms / 1000);
                string_of_int r.Obs.Slo.r_value;
                string_of_int r.Obs.Slo.r_samples;
                Obs.Slo.verdict_name r.Obs.Slo.r_verdict;
              ])
            (Obs.Slo.evaluate Obs.Slo.default)
        in
        if rows = [] then Error Mr_err.no_match else Ok rows);
  }

let queries =
  [
    q_get_server_host_access; q_add_server_host_access;
    q_update_server_host_access; q_delete_server_host_access; q_get_service;
    q_add_service; q_delete_service; q_get_printcap; q_add_printcap;
    q_delete_printcap; q_get_alias; q_add_alias; q_delete_alias; q_get_value;
    q_add_value; q_update_value; q_delete_value; q_get_all_table_stats;
    q_get_server_statistics; q_get_query_statistics; q_get_slow_queries;
    q_get_slo_status;
  ]
