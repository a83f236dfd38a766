(* Query handles for servers and serverhosts (paper section 7.0.4). *)

open Relation
open Qlib

let servers (ctx : Query.ctx) = Mdb.table ctx.mdb "servers"
let shosts (ctx : Query.ctx) = Mdb.table ctx.mdb "serverhosts"

let canon_service s = String.uppercase_ascii (String.trim s)

let service_ace (ctx : Query.ctx) row =
  let tbl = servers ctx in
  {
    Acl.ace_type = Value.str (Table.field tbl row "acl_type");
    ace_id = Value.int (Table.field tbl row "acl_id");
  }

let caller_on_service_ace (ctx : Query.ctx) service =
  ctx.caller <> ""
  &&
  match
    Table.select_one (servers ctx) (Pred.eq_str "name" (canon_service service))
  with
  | Some (_, row) ->
      Acl.login_on_ace ctx.mdb (service_ace ctx row) ~login:ctx.caller
  | None -> false

let service_ace_rule (ctx : Query.ctx) args =
  match args with s :: _ -> caller_on_service_ace ctx s | [] -> false

let render_server ctx row =
  let tbl = servers ctx in
  let i col = string_of_int (Value.int (Table.field tbl row col)) in
  let s col = Value.str (Table.field tbl row col) in
  let b col = bool_str (Value.bool (Table.field tbl row col)) in
  [
    s "name"; i "update_int"; s "target_file"; s "script"; i "dfgen";
    i "dfcheck"; s "type"; b "enable"; b "inprogress"; i "harderror";
    s "errmsg"; s "acl_type";
    Acl.ace_name ctx.Query.mdb (service_ace ctx row);
    i "modtime"; s "modby"; s "modwith";
  ]

let q_get_server_info =
  {
    Query.name = "get_server_info";
    short = "gsin";
    kind = Retrieve;
    inputs = [ "service" ];
    outputs =
      [
        "service"; "interval"; "target"; "script"; "dfgen"; "dfcheck";
        "type"; "enable"; "inprogress"; "harderror"; "errmsg"; "ace_type";
        "ace_name"; "modtime"; "modby"; "modwith";
      ];
    check_access =
      Query.access_acl_or "get_server_info" (fun ctx args ->
          match args with
          | [ s ] when not (Glob.is_pattern s) ->
              caller_on_service_ace ctx s
          | _ -> false);
    handler =
      (fun ctx args ->
        match args with
        | [ service ] ->
            let pred = Pred.name_match "name" (canon_service service) in
            let* rows = rows_or_no_match (Table.select (servers ctx) pred) in
            Ok (List.map (fun (_, row) -> render_server ctx row) rows)
        | _ -> Error Mr_err.args);
  }

let flag_pred col = function
  | `True -> Pred.eq_bool col true
  | `False -> Pred.eq_bool col false
  | `Dontcare -> Pred.True

(* harderror/hosterror are stored as error numbers; the trilean matches
   zero vs non-zero. *)
let err_pred col = function
  | `True -> Pred.Not (Pred.eq_int col 0)
  | `False -> Pred.eq_int col 0
  | `Dontcare -> Pred.True

let q_qualified_get_server =
  {
    Query.name = "qualified_get_server";
    short = "qgsv";
    kind = Retrieve;
    inputs = [ "enable"; "inprogress"; "harderror" ];
    outputs = [ "service" ];
    check_access = Query.access_acl "qualified_get_server";
    handler =
      (fun ctx args ->
        match args with
        | [ enable; inprogress; harderror ] ->
            let* enable = trilean_arg enable in
            let* inprogress = trilean_arg inprogress in
            let* harderror = trilean_arg harderror in
            let pred =
              Pred.conj
                [
                  flag_pred "enable" enable;
                  flag_pred "inprogress" inprogress;
                  err_pred "harderror" harderror;
                ]
            in
            let* rows = rows_or_no_match (Table.select (servers ctx) pred) in
            Ok
              (List.map
                 (fun (_, row) ->
                   [ Value.str (Table.field (servers ctx) row "name") ])
                 rows)
        | _ -> Error Mr_err.args);
  }

let validate_service_fields (ctx : Query.ctx) ~interval ~ty ~enable ~ace_type
    ~ace_name =
  let* interval = int_arg interval in
  let* () =
    if Mdb.valid_type ctx.mdb ~field:"service" ty then Ok ()
    else Error Mr_err.typ
  in
  let* enable = bool_arg enable in
  let* ace = Acl.resolve_ace ctx.mdb ~ace_type ~ace_name in
  Ok (interval, enable, ace)

let q_add_server_info =
  {
    Query.name = "add_server_info";
    short = "asin";
    kind = Append;
    inputs =
      [ "service"; "interval"; "target"; "script"; "type"; "enable";
        "ace_type"; "ace_name" ];
    outputs = [];
    check_access = Query.access_acl "add_server_info";
    handler =
      (fun ctx args ->
        match args with
        | [ service; interval; target; script; ty; enable; ace_type;
            ace_name ] ->
            let service = canon_service service in
            let* () = check_name service in
            let ty = String.uppercase_ascii ty in
            let* interval, enable, ace =
              validate_service_fields ctx ~interval ~ty ~enable ~ace_type
                ~ace_name
            in
            if Table.exists (servers ctx) (Pred.eq_str "name" service) then
              Error Mr_err.exists
            else begin
              ignore
                (Table.insert (servers ctx)
                   [|
                     Value.Str service; Value.Int interval; Value.Str target;
                     Value.Str script; Value.Int 0; Value.Int 0;
                     Value.Str ty; Value.Bool enable; Value.Bool false;
                     Value.Int 0; Value.Str "";
                     Value.Str (String.uppercase_ascii ace_type);
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

let q_update_server_info =
  {
    Query.name = "update_server_info";
    short = "usin";
    kind = Update;
    inputs =
      [ "service"; "interval"; "target"; "script"; "type"; "enable";
        "ace_type"; "ace_name" ];
    outputs = [];
    check_access = Query.access_acl_or "update_server_info" service_ace_rule;
    handler =
      (fun ctx args ->
        match args with
        | [ service; interval; target; script; ty; enable; ace_type;
            ace_name ] ->
            let service = canon_service service in
            let tbl = servers ctx in
            let* _ =
              exactly_one ~err:Mr_err.service
                (Table.select tbl (Pred.eq_str "name" service))
            in
            let ty = String.uppercase_ascii ty in
            let* interval, enable, ace =
              validate_service_fields ctx ~interval ~ty ~enable ~ace_type
                ~ace_name
            in
            ignore
              (Table.set_fields tbl (Pred.eq_str "name" service)
                 ([
                    seti "update_int" interval; set "target_file" target;
                    set "script" script; set "type" ty; setb "enable" enable;
                    set "acl_type" (String.uppercase_ascii ace_type);
                    seti "acl_id" ace.Acl.ace_id;
                  ]
                 @ stamp_fields ctx ()));
            Ok []
        | _ -> Error Mr_err.args);
  }

let q_reset_server_error =
  {
    Query.name = "reset_server_error";
    short = "rsve";
    kind = Update;
    inputs = [ "service" ];
    outputs = [];
    check_access = Query.access_acl_or "reset_server_error" service_ace_rule;
    handler =
      (fun ctx args ->
        match args with
        | [ service ] ->
            let service = canon_service service in
            let tbl = servers ctx in
            let* row =
              exactly_one ~err:Mr_err.service
                (Table.select tbl (Pred.eq_str "name" service))
            in
            let dfgen = Value.int (Table.field tbl row "dfgen") in
            ignore
              (Table.set_fields tbl (Pred.eq_str "name" service)
                 ([ seti "harderror" 0; set "errmsg" ""; seti "dfcheck" dfgen ]
                 @ stamp_fields ctx ()));
            Ok []
        | _ -> Error Mr_err.args);
  }

let q_set_server_internal_flags =
  {
    Query.name = "set_server_internal_flags";
    short = "ssif";
    kind = Update;
    inputs =
      [ "service"; "dfgen"; "dfcheck"; "inprogress"; "harderror"; "errmsg" ];
    outputs = [];
    check_access = Query.access_acl "set_server_internal_flags";
    handler =
      (fun ctx args ->
        match args with
        | [ service; dfgen; dfcheck; inprogress; harderror; errmsg ] ->
            let service = canon_service service in
            let tbl = servers ctx in
            let* _ =
              exactly_one ~err:Mr_err.service
                (Table.select tbl (Pred.eq_str "name" service))
            in
            let* dfgen = int_arg dfgen in
            let* dfcheck = int_arg dfcheck in
            let* inprogress = bool_arg inprogress in
            let* harderror = int_arg harderror in
            (* Internal flags do NOT bump the user-visible modtime. *)
            ignore
              (Table.set_fields tbl (Pred.eq_str "name" service)
                 [
                   seti "dfgen" dfgen; seti "dfcheck" dfcheck;
                   setb "inprogress" inprogress; seti "harderror" harderror;
                   set "errmsg" errmsg;
                 ]);
            Ok []
        | _ -> Error Mr_err.args);
  }

let q_delete_server_info =
  {
    Query.name = "delete_server_info";
    short = "dsin";
    kind = Delete;
    inputs = [ "service" ];
    outputs = [];
    check_access = Query.access_acl "delete_server_info";
    handler =
      (fun ctx args ->
        match args with
        | [ service ] ->
            let service = canon_service service in
            let tbl = servers ctx in
            let* row =
              exactly_one ~err:Mr_err.service
                (Table.select tbl (Pred.eq_str "name" service))
            in
            if
              Value.bool (Table.field tbl row "inprogress")
              || Table.exists (shosts ctx) (Pred.eq_str "service" service)
            then Error Mr_err.in_use
            else begin
              ignore (Table.delete tbl (Pred.eq_str "name" service));
              Ok []
            end
        | _ -> Error Mr_err.args);
  }

let render_shost ctx row =
  let tbl = shosts ctx in
  let i col = string_of_int (Value.int (Table.field tbl row col)) in
  let s col = Value.str (Table.field tbl row col) in
  let b col = bool_str (Value.bool (Table.field tbl row col)) in
  let machine =
    Option.value
      (Lookup.machine_name ctx.Query.mdb
         (Value.int (Table.field tbl row "mach_id")))
      ~default:"?"
  in
  [
    s "service"; machine; b "enable"; b "override"; b "success";
    b "inprogress"; i "hosterror"; s "hosterrmsg"; i "ltt"; i "lts";
    i "value1"; i "value2"; s "value3"; i "modtime"; s "modby"; s "modwith";
  ]

let q_get_server_host_info =
  {
    Query.name = "get_server_host_info";
    short = "gshi";
    kind = Retrieve;
    inputs = [ "service"; "machine" ];
    outputs =
      [
        "service"; "machine"; "enable"; "override"; "success"; "inprogress";
        "hosterror"; "errmsg"; "lasttry"; "lastsuccess"; "value1"; "value2";
        "value3"; "modtime"; "modby"; "modwith";
      ];
    check_access =
      Query.access_acl_or "get_server_host_info" service_ace_rule;
    handler =
      (fun ctx args ->
        match args with
        | [ service; machine ] ->
            let tbl = shosts ctx in
            let rows =
              Table.select tbl
                (Pred.name_match "service" (canon_service service))
              |> List.filter (fun (_, row) ->
                     let m =
                       Option.value
                         (Lookup.machine_name ctx.mdb
                            (Value.int (Table.field tbl row "mach_id")))
                         ~default:"?"
                     in
                     Glob.matches ~case_fold:true ~pattern:machine m)
            in
            let* rows = rows_or_no_match rows in
            Ok (List.map (fun (_, row) -> render_shost ctx row) rows)
        | _ -> Error Mr_err.args);
  }

let q_qualified_get_server_host =
  {
    Query.name = "qualified_get_server_host";
    short = "qgsh";
    kind = Retrieve;
    inputs =
      [ "service"; "enable"; "override"; "success"; "inprogress";
        "hosterror" ];
    outputs = [ "service"; "machine" ];
    check_access = Query.access_acl "qualified_get_server_host";
    handler =
      (fun ctx args ->
        match args with
        | [ service; enable; override; success; inprogress; hosterror ] ->
            let* enable = trilean_arg enable in
            let* override = trilean_arg override in
            let* success = trilean_arg success in
            let* inprogress = trilean_arg inprogress in
            let* hosterror = trilean_arg hosterror in
            let pred =
              Pred.conj
                [
                  Pred.name_match "service" (canon_service service);
                  flag_pred "enable" enable;
                  flag_pred "override" override;
                  flag_pred "success" success;
                  flag_pred "inprogress" inprogress;
                  err_pred "hosterror" hosterror;
                ]
            in
            let tbl = shosts ctx in
            let* rows = rows_or_no_match (Table.select tbl pred) in
            Ok
              (List.map
                 (fun (_, row) ->
                   [
                     Value.str (Table.field tbl row "service");
                     Option.value
                       (Lookup.machine_name ctx.mdb
                          (Value.int (Table.field tbl row "mach_id")))
                       ~default:"?";
                   ])
                 rows)
        | _ -> Error Mr_err.args);
  }

let resolve_service_machine (ctx : Query.ctx) service machine =
  let service = canon_service service in
  let* () =
    if Table.exists (servers ctx) (Pred.eq_str "name" service) then Ok ()
    else Error Mr_err.service
  in
  let* mach_id =
    match Lookup.machine_id ctx.mdb machine with
    | Some id -> Ok id
    | None -> Error Mr_err.machine
  in
  Ok (service, mach_id)

let q_add_server_host_info =
  {
    Query.name = "add_server_host_info";
    short = "ashi";
    kind = Append;
    inputs = [ "service"; "machine"; "enable"; "value1"; "value2"; "value3" ];
    outputs = [];
    check_access = Query.access_acl_or "add_server_host_info" service_ace_rule;
    handler =
      (fun ctx args ->
        match args with
        | [ service; machine; enable; value1; value2; value3 ] ->
            let* service, mach_id =
              resolve_service_machine ctx service machine
            in
            let* enable = bool_arg enable in
            let* value1 = int_arg value1 in
            let* value2 = int_arg value2 in
            if
              Table.exists (shosts ctx)
                (Pred.conj
                   [
                     Pred.eq_str "service" service;
                     Pred.eq_int "mach_id" mach_id;
                   ])
            then Error Mr_err.exists
            else begin
              ignore
                (Table.insert (shosts ctx)
                   [|
                     Value.Str service; Value.Int mach_id; Value.Bool enable;
                     Value.Bool false; Value.Bool false; Value.Bool false;
                     Value.Int 0; Value.Str ""; Value.Int 0; Value.Int 0;
                     Value.Int value1; Value.Int value2; Value.Str value3;
                     Value.Int (Mdb.now ctx.mdb);
                     Value.Str
                       (if ctx.caller = "" then "(direct)" else ctx.caller);
                     Value.Str ctx.client;
                   |]);
              Ok []
            end
        | _ -> Error Mr_err.args);
  }

let shost_pred service mach_id =
  Relation.Pred.conj
    [
      Relation.Pred.eq_str "service" service;
      Relation.Pred.eq_int "mach_id" mach_id;
    ]

let q_update_server_host_info =
  {
    Query.name = "update_server_host_info";
    short = "ushi";
    kind = Update;
    inputs = [ "service"; "machine"; "enable"; "value1"; "value2"; "value3" ];
    outputs = [];
    check_access =
      Query.access_acl_or "update_server_host_info" service_ace_rule;
    handler =
      (fun ctx args ->
        match args with
        | [ service; machine; enable; value1; value2; value3 ] ->
            let* service, mach_id =
              resolve_service_machine ctx service machine
            in
            let tbl = shosts ctx in
            let* row =
              exactly_one ~err:Mr_err.no_match
                (Table.select tbl (shost_pred service mach_id))
            in
            let* () =
              if Value.bool (Table.field tbl row "inprogress") then
                Error Mr_err.in_progress
              else Ok ()
            in
            let* enable = bool_arg enable in
            let* value1 = int_arg value1 in
            let* value2 = int_arg value2 in
            ignore
              (Table.set_fields tbl (shost_pred service mach_id)
                 ([
                    setb "enable" enable; seti "value1" value1;
                    seti "value2" value2; set "value3" value3;
                  ]
                 @ stamp_fields ctx ()));
            Ok []
        | _ -> Error Mr_err.args);
  }

let q_reset_server_host_error =
  {
    Query.name = "reset_server_host_error";
    short = "rshe";
    kind = Update;
    inputs = [ "service"; "machine" ];
    outputs = [];
    check_access =
      Query.access_acl_or "reset_server_host_error" service_ace_rule;
    handler =
      (fun ctx args ->
        match args with
        | [ service; machine ] ->
            let* service, mach_id =
              resolve_service_machine ctx service machine
            in
            let tbl = shosts ctx in
            let* _ =
              exactly_one ~err:Mr_err.no_match
                (Table.select tbl (shost_pred service mach_id))
            in
            ignore
              (Table.set_fields tbl (shost_pred service mach_id)
                 ([ seti "hosterror" 0; set "hosterrmsg" "" ]
                 @ stamp_fields ctx ()));
            Ok []
        | _ -> Error Mr_err.args);
  }

let q_set_server_host_override =
  {
    Query.name = "set_server_host_override";
    short = "ssho";
    kind = Update;
    inputs = [ "service"; "machine" ];
    outputs = [];
    check_access =
      Query.access_acl_or "set_server_host_override" service_ace_rule;
    handler =
      (fun ctx args ->
        match args with
        | [ service; machine ] ->
            let* service, mach_id =
              resolve_service_machine ctx service machine
            in
            let tbl = shosts ctx in
            let* _ =
              exactly_one ~err:Mr_err.no_match
                (Table.select tbl (shost_pred service mach_id))
            in
            ignore
              (Table.set_fields tbl (shost_pred service mach_id)
                 (setb "override" true :: stamp_fields ctx ()));
            Ok []
        | _ -> Error Mr_err.args);
  }

let q_set_server_host_internal =
  {
    Query.name = "set_server_host_internal";
    short = "sshi";
    kind = Update;
    inputs =
      [ "service"; "machine"; "override"; "success"; "inprogress";
        "hosterror"; "errmsg"; "lasttry"; "lastsuccess" ];
    outputs = [];
    check_access = Query.access_acl "set_server_host_internal";
    handler =
      (fun ctx args ->
        match args with
        | [ service; machine; override; success; inprogress; hosterror;
            errmsg; lasttry; lastsuccess ] ->
            let* service, mach_id =
              resolve_service_machine ctx service machine
            in
            let tbl = shosts ctx in
            let* _ =
              exactly_one ~err:Mr_err.no_match
                (Table.select tbl (shost_pred service mach_id))
            in
            let* override = bool_arg override in
            let* success = bool_arg success in
            let* inprogress = bool_arg inprogress in
            let* hosterror = int_arg hosterror in
            let* lasttry = int_arg lasttry in
            let* lastsuccess = int_arg lastsuccess in
            (* Internal: no modtime bump. *)
            ignore
              (Table.set_fields tbl (shost_pred service mach_id)
                 [
                   setb "override" override; setb "success" success;
                   setb "inprogress" inprogress; seti "hosterror" hosterror;
                   set "hosterrmsg" errmsg; seti "ltt" lasttry;
                   seti "lts" lastsuccess;
                 ]);
            Ok []
        | _ -> Error Mr_err.args);
  }

let q_delete_server_host_info =
  {
    Query.name = "delete_server_host_info";
    short = "dshi";
    kind = Delete;
    inputs = [ "service"; "machine" ];
    outputs = [];
    check_access =
      Query.access_acl_or "delete_server_host_info" service_ace_rule;
    handler =
      (fun ctx args ->
        match args with
        | [ service; machine ] ->
            let* service, mach_id =
              resolve_service_machine ctx service machine
            in
            let tbl = shosts ctx in
            let* row =
              exactly_one ~err:Mr_err.no_match
                (Table.select tbl (shost_pred service mach_id))
            in
            if Value.bool (Table.field tbl row "inprogress") then
              Error Mr_err.in_use
            else begin
              ignore (Table.delete tbl (shost_pred service mach_id));
              Ok []
            end
        | _ -> Error Mr_err.args);
  }

let q_get_server_locations =
  {
    Query.name = "get_server_locations";
    short = "gslo";
    kind = Retrieve;
    inputs = [ "service" ];
    outputs = [ "service"; "machine" ];
    check_access = Query.access_anyone;
    handler =
      (fun ctx args ->
        match args with
        | [ service ] ->
            let tbl = shosts ctx in
            let* rows =
              rows_or_no_match
                (Table.select tbl
                   (Pred.name_match "service" (canon_service service)))
            in
            Ok
              (List.map
                 (fun (_, row) ->
                   [
                     Value.str (Table.field tbl row "service");
                     Option.value
                       (Lookup.machine_name ctx.mdb
                          (Value.int (Table.field tbl row "mach_id")))
                       ~default:"?";
                   ])
                 rows)
        | _ -> Error Mr_err.args);
  }

let queries =
  [
    q_get_server_info; q_qualified_get_server; q_add_server_info;
    q_update_server_info; q_reset_server_error; q_set_server_internal_flags;
    q_delete_server_info; q_get_server_host_info;
    q_qualified_get_server_host; q_add_server_host_info;
    q_update_server_host_info; q_reset_server_host_error;
    q_set_server_host_override; q_set_server_host_internal;
    q_delete_server_host_info; q_get_server_locations;
  ]
