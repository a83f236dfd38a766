(* Query handles for Zephyr class access-control lists (section 7.0.6).
   Each class carries four ACEs: transmit, subscribe, instance-wildcard
   and instance-UID. *)

open Relation
open Qlib

let zephyr (ctx : Query.ctx) = Mdb.table ctx.mdb "zephyr"

let ace_prefixes = [ "xmt"; "sub"; "iws"; "iui" ]

let render_class ctx row =
  let tbl = zephyr ctx in
  Value.str (Table.field tbl row "class")
  :: List.concat_map
       (fun p ->
         let ty = Value.str (Table.field tbl row (p ^ "_type")) in
         let id = Value.int (Table.field tbl row (p ^ "_id")) in
         [ ty; Acl.ace_name ctx.Query.mdb { Acl.ace_type = ty; ace_id = id } ])
       ace_prefixes
  @ project tbl [ "modtime"; "modby"; "modwith" ] row

let resolve_four_aces ctx = function
  | [ xt; xn; st; sn; it; in_; ut; un ] ->
      let resolve t n = Acl.resolve_ace ctx.Query.mdb ~ace_type:t ~ace_name:n in
      let* x = resolve xt xn in
      let* s = resolve st sn in
      let* i = resolve it in_ in
      let* u = resolve ut un in
      Ok [ x; s; i; u ]
  | _ -> Error Mr_err.args

let ace_fields aces =
  List.concat
    (List.map2
       (fun p (ace : Acl.ace) ->
         [ set (p ^ "_type") ace.Acl.ace_type; seti (p ^ "_id") ace.ace_id ])
       ace_prefixes aces)

let outputs_full =
  [ "class"; "xmttype"; "xmtname"; "subtype"; "subname"; "iwstype";
    "iwsname"; "iuitype"; "iuiname"; "modtime"; "modby"; "modwith" ]

let q_get_zephyr_class =
  {
    Query.name = "get_zephyr_class";
    short = "gzcl";
    kind = Retrieve;
    inputs = [ "class" ];
    outputs = outputs_full;
    check_access = Query.access_acl "get_zephyr_class";
    handler =
      (fun ctx args ->
        match args with
        | [ cls ] ->
            let* rows =
              rows_or_no_match
                (Table.select (zephyr ctx) (Pred.name_match "class" cls))
            in
            Ok (List.map (fun (_, row) -> render_class ctx row) rows)
        | _ -> Error Mr_err.args);
  }

let q_add_zephyr_class =
  {
    Query.name = "add_zephyr_class";
    short = "azcl";
    kind = Append;
    inputs =
      [ "class"; "xmttype"; "xmtname"; "subtype"; "subname"; "iwstype";
        "iwsname"; "iuitype"; "iuiname" ];
    outputs = [];
    check_access = Query.access_acl "add_zephyr_class";
    handler =
      (fun ctx args ->
        match args with
        | cls :: rest ->
            let* () = check_name cls in
            if Table.exists (zephyr ctx) (Pred.eq_str "class" cls) then
              Error Mr_err.exists
            else begin
              let* aces = resolve_four_aces ctx rest in
              let now = Mdb.now ctx.mdb in
              let fields = ace_fields aces in
              let base =
                [|
                  Value.Str cls;
                  Value.Str "NONE"; Value.Int 0; Value.Str "NONE"; Value.Int 0;
                  Value.Str "NONE"; Value.Int 0; Value.Str "NONE"; Value.Int 0;
                  Value.Int now;
                  Value.Str
                    (if ctx.caller = "" then "(direct)" else ctx.caller);
                  Value.Str ctx.client;
                |]
              in
              ignore (Table.insert (zephyr ctx) base);
              ignore
                (Table.set_fields (zephyr ctx) (Pred.eq_str "class" cls)
                   fields);
              Ok []
            end
        | _ -> Error Mr_err.args);
  }

let q_update_zephyr_class =
  {
    Query.name = "update_zephyr_class";
    short = "uzcl";
    kind = Update;
    inputs =
      [ "class"; "newclass"; "xmttype"; "xmtname"; "subtype"; "subname";
        "iwstype"; "iwsname"; "iuitype"; "iuiname" ];
    outputs = [];
    check_access = Query.access_acl "update_zephyr_class";
    handler =
      (fun ctx args ->
        match args with
        | cls :: newcls :: rest ->
            let tbl = zephyr ctx in
            let* _ =
              exactly_one ~err:Mr_err.no_match
                (Table.select tbl (Pred.eq_str "class" cls))
            in
            let* () = check_name newcls in
            if newcls <> cls && Table.exists tbl (Pred.eq_str "class" newcls)
            then Error Mr_err.not_unique
            else begin
              let* aces = resolve_four_aces ctx rest in
              ignore
                (Table.set_fields tbl (Pred.eq_str "class" cls)
                   ((set "class" newcls :: ace_fields aces)
                   @ stamp_fields ctx ()));
              Ok []
            end
        | _ -> Error Mr_err.args);
  }

let q_delete_zephyr_class =
  {
    Query.name = "delete_zephyr_class";
    short = "dzcl";
    kind = Delete;
    inputs = [ "class" ];
    outputs = [];
    check_access = Query.access_acl "delete_zephyr_class";
    handler =
      (fun ctx args ->
        match args with
        | [ cls ] ->
            let tbl = zephyr ctx in
            let* _ =
              exactly_one ~err:Mr_err.no_match
                (Table.select tbl (Pred.eq_str "class" cls))
            in
            ignore (Table.delete tbl (Pred.eq_str "class" cls));
            Ok []
        | _ -> Error Mr_err.args);
  }

let queries =
  [ q_get_zephyr_class; q_add_zephyr_class; q_update_zephyr_class;
    q_delete_zephyr_class ]
