(* Query handles for users, finger information and post office boxes
   (paper section 7.0.1). *)

open Relation
open Qlib

let summary_cols = [ "login"; "uid"; "shell"; "last"; "first"; "middle" ]

let full_cols =
  summary_cols
  @ [ "status"; "mit_id"; "mit_year"; "modtime"; "modby"; "modwith" ]

let finger_cols =
  [
    "login"; "fullname"; "nickname"; "home_addr"; "home_phone";
    "office_addr"; "office_phone"; "mit_dept"; "mit_affil"; "fmodtime";
    "fmodby"; "fmodwith";
  ]

let users (ctx : Query.ctx) = Mdb.table ctx.mdb "users"

(* Render a pobox "box" field: machine name for POP, interned string for
   SMTP, empty for NONE. *)
let box_string (ctx : Query.ctx) row =
  let tbl = users ctx in
  match Value.str (Table.field tbl row "potype") with
  | "POP" ->
      Option.value
        (Lookup.machine_name ctx.mdb (Value.int (Table.field tbl row "pop_id")))
        ~default:""
  | "SMTP" ->
      Option.value
        (Mdb.string_of_id ctx.mdb (Value.int (Table.field tbl row "box_id")))
        ~default:""
  | _ -> ""

(* The self-or-ACL retrieval rule: callers on the query ACL see everything;
   others see only rows about themselves, and get MR_PERM if that filter
   leaves nothing they asked for. *)
let restrict_to_self (ctx : Query.ctx) qname rows =
  if
    ctx.privileged
    || Acl.query_allowed ctx.mdb ~query:qname ~login:ctx.caller
  then Ok rows
  else begin
    let tbl = users ctx in
    let mine =
      List.filter
        (fun (_, row) -> Value.str (Table.field tbl row "login") = ctx.caller)
        rows
    in
    match mine with [] -> Error Mr_err.perm | _ -> Ok mine
  end

let get_by pred_of qname ctx args =
  let pred = pred_of ctx args in
  let* rows = rows_or_no_match (Table.select (users ctx) pred) in
  let* rows = restrict_to_self ctx qname rows in
  let proj = projector (users ctx) full_cols in
  Ok (List.map (fun (_, row) -> proj row) rows)

let self_in_args (ctx : Query.ctx) args =
  match args with [ a ] -> caller_is ctx a | _ -> false

(* For by-uid / by-name / by-class lookups the caller can't be identified
   from the arguments alone, so Access optimistically allows an
   authenticated caller — the handler still filters to self. *)
let authenticated (ctx : Query.ctx) _args = ctx.caller <> ""

let allocate_uid ctx uid_arg =
  if uid_arg = Mrconst.unique_uid then Ok (Mdb.alloc_id ctx.Query.mdb "uid")
  else int_arg uid_arg

let user_exists ctx login =
  Table.exists (users ctx) (Pred.eq_str "login" login)

(* serverhosts.value1 tracks "the number of poboxes assigned to this
   server": every pobox move must adjust the counters. *)
let adjust_pop_count (ctx : Query.ctx) mach_id delta =
  if mach_id <> 0 then begin
    let shosts = Mdb.table ctx.mdb "serverhosts" in
    ignore
      (Table.update shosts
         (Pred.conj
            [ Pred.eq_str "service" "POP"; Pred.eq_int "mach_id" mach_id ])
         (fun row ->
           let i = Relation.Schema.index_of (Table.schema shosts) "value1" in
           row.(i) <- Value.Int (max 0 (Value.int row.(i) + delta));
           row))
  end

(* the POP machine a user's box currently counts against (0 if the box
   is not POP) *)
let current_pop (ctx : Query.ctx) row =
  let tbl = users ctx in
  if Value.str (Table.field tbl row "potype") = "POP" then
    Value.int (Table.field tbl row "pop_id")
  else 0

let q_get_all_logins =
  {
    Query.name = "get_all_logins";
    (* was "gal", the one short in the catalog that broke the 4-char
       convention — found by Check.static_queries *)
    short = "galo";
    kind = Retrieve;
    inputs = [];
    outputs = summary_cols;
    check_access = Query.access_acl "get_all_logins";
    handler =
      (fun ctx _ ->
        let rows = Table.select (users ctx) Pred.True in
        let proj = projector (users ctx) summary_cols in
        Ok (List.map (fun (_, r) -> proj r) rows));
  }

let q_get_all_active_logins =
  {
    Query.name = "get_all_active_logins";
    short = "gaal";
    kind = Retrieve;
    inputs = [];
    outputs = summary_cols;
    check_access = Query.access_acl "get_all_active_logins";
    handler =
      (fun ctx _ ->
        let rows =
          Table.select (users ctx)
            (Pred.eq_int "status" Mrconst.user_active)
        in
        let proj = projector (users ctx) summary_cols in
            Ok (List.map (fun (_, r) -> proj r) rows));
  }

let q_get_user_by_login =
  {
    Query.name = "get_user_by_login";
    short = "gubl";
    kind = Retrieve;
    inputs = [ "login" ];
    outputs = full_cols;
    check_access = Query.access_acl_or "get_user_by_login" self_in_args;
    handler =
      (fun ctx args ->
        match args with
        | [ login ] ->
            get_by
              (fun _ _ -> Pred.name_match "login" login)
              "get_user_by_login" ctx [ login ]
        | _ -> Error Mr_err.args);
  }

let q_get_user_by_uid =
  {
    Query.name = "get_user_by_uid";
    short = "gubu";
    kind = Retrieve;
    inputs = [ "uid" ];
    outputs = full_cols;
    check_access = Query.access_acl_or "get_user_by_uid" authenticated;
    handler =
      (fun ctx args ->
        match args with
        | [ uid ] ->
            let* uid = int_arg uid in
            let* rows =
              rows_or_no_match
                (Table.select (users ctx) (Pred.eq_int "uid" uid))
            in
            let* rows = restrict_to_self ctx "get_user_by_uid" rows in
            let proj = projector (users ctx) full_cols in
            Ok (List.map (fun (_, r) -> proj r) rows)
        | _ -> Error Mr_err.args);
  }

let q_get_user_by_name =
  {
    Query.name = "get_user_by_name";
    short = "gubn";
    kind = Retrieve;
    inputs = [ "first"; "last" ];
    outputs = full_cols;
    check_access = Query.access_acl_or "get_user_by_name" authenticated;
    handler =
      (fun ctx args ->
        match args with
        | [ first; last ] ->
            let pred =
              Pred.And
                (Pred.name_match "first" first, Pred.name_match "last" last)
            in
            let* rows = rows_or_no_match (Table.select (users ctx) pred) in
            let* rows = restrict_to_self ctx "get_user_by_name" rows in
            let proj = projector (users ctx) full_cols in
            Ok (List.map (fun (_, r) -> proj r) rows)
        | _ -> Error Mr_err.args);
  }

let q_get_user_by_class =
  {
    Query.name = "get_user_by_class";
    short = "gubc";
    kind = Retrieve;
    inputs = [ "class" ];
    outputs = full_cols;
    check_access = Query.access_acl "get_user_by_class";
    handler =
      (fun ctx args ->
        match args with
        | [ cls ] ->
            let* rows =
              rows_or_no_match
                (Table.select (users ctx) (Pred.name_match "mit_year" cls))
            in
            let proj = projector (users ctx) full_cols in
            Ok (List.map (fun (_, r) -> proj r) rows)
        | _ -> Error Mr_err.args);
  }

let q_get_user_by_mitid =
  {
    Query.name = "get_user_by_mitid";
    short = "gubm";
    kind = Retrieve;
    inputs = [ "mit_id" ];
    outputs = full_cols;
    check_access = Query.access_acl "get_user_by_mitid";
    handler =
      (fun ctx args ->
        match args with
        | [ mitid ] ->
            let* rows =
              rows_or_no_match
                (Table.select (users ctx) (Pred.name_match "mit_id" mitid))
            in
            let proj = projector (users ctx) full_cols in
            Ok (List.map (fun (_, r) -> proj r) rows)
        | _ -> Error Mr_err.args);
  }

let insert_user ctx ~login ~uid ~shell ~last ~first ~middle ~status ~mitid
    ~cls =
  let mdb = ctx.Query.mdb in
  let now = Mdb.now mdb in
  let who = if ctx.Query.caller = "" then "(direct)" else ctx.Query.caller in
  let client = ctx.Query.client in
  let fullname =
    String.concat " "
      (List.filter (fun s -> s <> "") [ first; middle; last ])
  in
  let row =
    [|
      Value.Str login;
      Value.Int (Mdb.alloc_id mdb "users_id");
      Value.Int uid;
      Value.Str shell;
      Value.Str last;
      Value.Str first;
      Value.Str middle;
      Value.Int status;
      Value.Str mitid;
      Value.Str cls;
      Value.Int now; Value.Str who; Value.Str client;
      (* finger *)
      Value.Str fullname;
      Value.Str ""; Value.Str ""; Value.Str ""; Value.Str ""; Value.Str "";
      Value.Str ""; Value.Str "";
      Value.Int now; Value.Str who; Value.Str client;
      (* pobox *)
      Value.Str "NONE"; Value.Int 0; Value.Int 0;
      Value.Int now; Value.Str who; Value.Str client;
    |]
  in
  ignore (Table.insert (users ctx) row)

let q_add_user =
  {
    Query.name = "add_user";
    short = "ausr";
    kind = Append;
    inputs =
      [ "login"; "uid"; "shell"; "last"; "first"; "middle"; "status";
        "mit_id"; "class" ];
    outputs = [];
    check_access = Query.access_acl "add_user";
    handler =
      (fun ctx args ->
        match args with
        | [ login; uid; shell; last; first; middle; status; mitid; cls ] ->
            let* () =
              if Mdb.valid_type ctx.mdb ~field:"class" cls then Ok ()
              else Error Mr_err.bad_class
            in
            let* status = int_arg status in
            let* uid = allocate_uid ctx uid in
            let login =
              if login = Mrconst.unique_login then Printf.sprintf "#%d" uid
              else login
            in
            let* () = check_name login in
            if user_exists ctx login then Error Mr_err.not_unique
            else begin
              insert_user ctx ~login ~uid ~shell ~last ~first ~middle
                ~status ~mitid ~cls;
              Ok []
            end
        | _ -> Error Mr_err.args);
  }

(* register_user: turn a registrar-tape stub into a half-registered
   account with a pobox, a group list, a home filesystem and a quota
   (section 7.0.1). *)
let do_register_user (ctx : Query.ctx) uid login fstype =
  let mdb = ctx.mdb in
  let tbl = users ctx in
  let* uid = int_arg uid in
  let* fstype = int_arg fstype in
  let* () = check_name login in
  let* row =
    match Table.select tbl (Pred.eq_int "uid" uid) with
    | [] -> Error Mr_err.no_match
    | [ (_, row) ] -> Ok row
    | _ -> Error Mr_err.not_unique
  in
  let* () =
    if Value.int (Table.field tbl row "status") = Mrconst.user_not_registered
    then Ok ()
    else Error Mr_err.in_use
  in
  let* () =
    if user_exists ctx login || Lookup.list_id mdb login <> None then
      Error Mr_err.in_use
    else Ok ()
  in
  let users_id = Value.int (Table.field tbl row "users_id") in
  (* Pobox on the least loaded post office: serverhosts of service POP,
     load = value1 (boxes assigned), capacity = value2. *)
  let shosts = Mdb.table mdb "serverhosts" in
  let pops =
    Table.select shosts
      (Pred.conj [ Pred.eq_str "service" "POP"; Pred.eq_bool "enable" true ])
  in
  let* pop_row =
    let candidates =
      List.filter
        (fun (_, r) ->
          Value.int (Table.field shosts r "value1")
          < Value.int (Table.field shosts r "value2"))
        pops
    in
    match
      List.sort
        (fun (_, a) (_, b) ->
          Int.compare
            (Value.int (Table.field shosts a "value1"))
            (Value.int (Table.field shosts b "value1")))
        candidates
    with
    | best :: _ -> Ok (snd best)
    | [] -> Error Mr_err.pobox
  in
  let pop_mach = Value.int (Table.field shosts pop_row "mach_id") in
  ignore
    (Table.set_fields shosts
       (Pred.conj
          [ Pred.eq_str "service" "POP"; Pred.eq_int "mach_id" pop_mach ])
       [ seti "value1" (Value.int (Table.field shosts pop_row "value1") + 1) ]);
  (* Group list named after the user, with a fresh GID. *)
  let gid = Mdb.alloc_id mdb "gid" in
  let list_id = Mdb.alloc_id mdb "list_id" in
  let now = Mdb.now mdb in
  let who = if ctx.caller = "" then "(direct)" else ctx.caller in
  ignore
    (Table.insert (Mdb.table mdb "list")
       [|
         Value.Str login; Value.Int list_id; Value.Bool true;
         Value.Bool false; Value.Bool false; Value.Bool false;
         Value.Bool true; Value.Int gid;
         Value.Str (Printf.sprintf "group for %s" login);
         Value.Str "USER"; Value.Int users_id;
         Value.Int now; Value.Str who; Value.Str ctx.client;
       |]);
  ignore
    (Table.insert (Mdb.table mdb "members")
       [| Value.Int list_id; Value.Str "USER"; Value.Int users_id |]);
  (* Home filesystem on the least loaded matching NFS partition. *)
  let nfsphys = Mdb.table mdb "nfsphys" in
  let parts =
    List.filter
      (fun (_, r) ->
        Value.int (Table.field nfsphys r "status") land fstype <> 0)
      (Table.select nfsphys Pred.True)
  in
  let* part =
    match
      List.sort
        (fun (_, a) (_, b) ->
          let free r =
            Value.int (Table.field nfsphys r "size")
            - Value.int (Table.field nfsphys r "allocated")
          in
          Int.compare (free b) (free a))
        parts
    with
    | best :: _ -> Ok (snd best)
    | [] -> Error Mr_err.no_filesys
  in
  let phys_id = Value.int (Table.field nfsphys part "nfsphys_id") in
  let mach_id = Value.int (Table.field nfsphys part "mach_id") in
  let dir = Value.str (Table.field nfsphys part "dir") in
  let filsys_id = Mdb.alloc_id mdb "filsys_id" in
  ignore
    (Table.insert (Mdb.table mdb "filesys")
       [|
         Value.Str login; Value.Int 0; Value.Int filsys_id;
         Value.Int phys_id; Value.Str "NFS"; Value.Int mach_id;
         Value.Str (dir ^ "/" ^ login);
         Value.Str ("/mit/" ^ login); Value.Str "w"; Value.Str "";
         Value.Int users_id; Value.Int list_id; Value.Bool true;
         Value.Str "HOMEDIR";
         Value.Int now; Value.Str who; Value.Str ctx.client;
       |]);
  (* Quota from def_quota, allocation charged to the partition. *)
  let quota = Option.value (Mdb.get_value mdb "def_quota") ~default:300 in
  ignore
    (Table.insert (Mdb.table mdb "nfsquota")
       [|
         Value.Int users_id; Value.Int filsys_id; Value.Int phys_id;
         Value.Int quota;
         Value.Int now; Value.Str who; Value.Str ctx.client;
       |]);
  ignore
    (Table.set_fields nfsphys (Pred.eq_int "nfsphys_id" phys_id)
       [ seti "allocated"
           (Value.int (Table.field nfsphys part "allocated") + quota) ]);
  (* Finally flip the user to half-registered with the real login. *)
  ignore
    (Table.set_fields tbl (Pred.eq_int "users_id" users_id)
       ([
          set "login" login;
          seti "status" Mrconst.user_half_registered;
          set "potype" "POP";
          seti "pop_id" pop_mach;
        ]
       @ stamp_fields ctx ()
       @ stamp_fields ctx ~prefix:"p" ()));
  Ok []

let q_register_user =
  {
    Query.name = "register_user";
    short = "rusr";
    kind = Update;
    inputs = [ "uid"; "login"; "fstype" ];
    outputs = [];
    check_access = Query.access_acl "register_user";
    handler =
      (fun ctx args ->
        match args with
        | [ uid; login; fstype ] -> do_register_user ctx uid login fstype
        | _ -> Error Mr_err.args);
  }

let q_update_user =
  {
    Query.name = "update_user";
    short = "uusr";
    kind = Update;
    inputs =
      [ "login"; "newlogin"; "uid"; "shell"; "last"; "first"; "middle";
        "status"; "mit_id"; "class" ];
    outputs = [];
    check_access = Query.access_acl "update_user";
    handler =
      (fun ctx args ->
        match args with
        | [ login; newlogin; uid; shell; last; first; middle; status; mitid;
            cls ] ->
            let tbl = users ctx in
            let* _row =
              exactly_one ~err:Mr_err.user
                (Table.select tbl (Pred.eq_str "login" login))
            in
            let* () =
              if Mdb.valid_type ctx.mdb ~field:"class" cls then Ok ()
              else Error Mr_err.bad_class
            in
            let* uid = int_arg uid in
            let* status = int_arg status in
            let* () = check_name newlogin in
            if newlogin <> login && user_exists ctx newlogin then
              Error Mr_err.not_unique
            else begin
              ignore
                (Table.set_fields tbl (Pred.eq_str "login" login)
                   ([
                      set "login" newlogin; seti "uid" uid; set "shell" shell;
                      set "last" last; set "first" first; set "middle" middle;
                      seti "status" status; set "mit_id" mitid;
                      set "mit_year" cls;
                    ]
                   @ stamp_fields ctx ()));
              Ok []
            end
        | _ -> Error Mr_err.args);
  }

let q_update_user_shell =
  {
    Query.name = "update_user_shell";
    short = "uush";
    kind = Update;
    inputs = [ "login"; "shell" ];
    outputs = [];
    check_access =
      Query.access_acl_or "update_user_shell" (fun ctx args ->
          match args with [ l; _ ] -> caller_is ctx l | _ -> false);
    handler =
      (fun ctx args ->
        match args with
        | [ login; shell ] ->
            let tbl = users ctx in
            let* _ =
              exactly_one ~err:Mr_err.user
                (Table.select tbl (Pred.eq_str "login" login))
            in
            ignore
              (Table.set_fields tbl (Pred.eq_str "login" login)
                 (set "shell" shell :: stamp_fields ctx ()));
            Ok []
        | _ -> Error Mr_err.args);
  }

let q_update_user_status =
  {
    Query.name = "update_user_status";
    short = "uust";
    kind = Update;
    inputs = [ "login"; "status" ];
    outputs = [];
    check_access = Query.access_acl "update_user_status";
    handler =
      (fun ctx args ->
        match args with
        | [ login; status ] ->
            let tbl = users ctx in
            let* _ =
              exactly_one ~err:Mr_err.user
                (Table.select tbl (Pred.eq_str "login" login))
            in
            let* status = int_arg status in
            ignore
              (Table.set_fields tbl (Pred.eq_str "login" login)
                 (seti "status" status :: stamp_fields ctx ()));
            Ok []
        | _ -> Error Mr_err.args);
  }

(* A user may be deleted only if nothing references him: list
   memberships, quotas, object ownership (list ACEs, filesystem owner,
   server ACEs, hostaccess ACEs). *)
let user_references (ctx : Query.ctx) users_id =
  let mdb = ctx.mdb in
  Table.exists (Mdb.table mdb "members")
    (Pred.conj
       [ Pred.eq_str "member_type" "USER"; Pred.eq_int "member_id" users_id ])
  || Table.exists (Mdb.table mdb "nfsquota") (Pred.eq_int "users_id" users_id)
  || Table.exists (Mdb.table mdb "filesys") (Pred.eq_int "owner" users_id)
  || Table.exists (Mdb.table mdb "list")
       (Pred.conj
          [ Pred.eq_str "acl_type" "USER"; Pred.eq_int "acl_id" users_id ])
  || Table.exists (Mdb.table mdb "servers")
       (Pred.conj
          [ Pred.eq_str "acl_type" "USER"; Pred.eq_int "acl_id" users_id ])
  || Table.exists (Mdb.table mdb "hostaccess")
       (Pred.conj
          [ Pred.eq_str "acl_type" "USER"; Pred.eq_int "acl_id" users_id ])

let delete_by pred require_status_zero ctx =
  let tbl = users ctx in
  let* row = exactly_one ~err:Mr_err.user (Table.select tbl pred) in
  let users_id = Value.int (Table.field tbl row "users_id") in
  let* () =
    if
      require_status_zero
      && Value.int (Table.field tbl row "status")
         <> Mrconst.user_not_registered
    then Error Mr_err.in_use
    else Ok ()
  in
  if user_references ctx users_id then Error Mr_err.in_use
  else begin
    ignore (Table.delete tbl pred);
    Ok []
  end

let q_delete_user =
  {
    Query.name = "delete_user";
    short = "dusr";
    kind = Delete;
    inputs = [ "login" ];
    outputs = [];
    check_access = Query.access_acl "delete_user";
    handler =
      (fun ctx args ->
        match args with
        | [ login ] -> delete_by (Pred.eq_str "login" login) true ctx
        | _ -> Error Mr_err.args);
  }

let q_delete_user_by_uid =
  {
    Query.name = "delete_user_by_uid";
    short = "dubu";
    kind = Delete;
    inputs = [ "uid" ];
    outputs = [];
    check_access = Query.access_acl "delete_user_by_uid";
    handler =
      (fun ctx args ->
        match args with
        | [ uid ] ->
            let* uid = int_arg uid in
            delete_by (Pred.eq_int "uid" uid) false ctx
        | _ -> Error Mr_err.args);
  }

let q_get_finger_by_login =
  {
    Query.name = "get_finger_by_login";
    short = "gfbl";
    kind = Retrieve;
    inputs = [ "login" ];
    outputs = finger_cols;
    check_access = Query.access_acl_or "get_finger_by_login" self_in_args;
    handler =
      (fun ctx args ->
        match args with
        | [ login ] ->
            let tbl = users ctx in
            let* row =
              exactly_one ~err:Mr_err.user
                (Table.select tbl (Pred.eq_str "login" login))
            in
            Ok [ project tbl finger_cols row ]
        | _ -> Error Mr_err.args);
  }

let q_update_finger_by_login =
  {
    Query.name = "update_finger_by_login";
    short = "ufbl";
    kind = Update;
    inputs =
      [ "login"; "fullname"; "nickname"; "home_addr"; "home_phone";
        "office_addr"; "office_phone"; "mit_dept"; "mit_affil" ];
    outputs = [];
    check_access =
      Query.access_acl_or "update_finger_by_login" (fun ctx args ->
          match args with l :: _ -> caller_is ctx l | [] -> false);
    handler =
      (fun ctx args ->
        match args with
        | [ login; fullname; nickname; home_addr; home_phone; office_addr;
            office_phone; mit_dept; mit_affil ] ->
            let tbl = users ctx in
            let* _ =
              exactly_one ~err:Mr_err.user
                (Table.select tbl (Pred.eq_str "login" login))
            in
            ignore
              (Table.set_fields tbl (Pred.eq_str "login" login)
                 ([
                    set "fullname" fullname; set "nickname" nickname;
                    set "home_addr" home_addr; set "home_phone" home_phone;
                    set "office_addr" office_addr;
                    set "office_phone" office_phone;
                    set "mit_dept" mit_dept; set "mit_affil" mit_affil;
                  ]
                 @ stamp_fields ctx ~prefix:"f" ()));
            Ok []
        | _ -> Error Mr_err.args);
  }

let pobox_tuple ctx row =
  let tbl = users ctx in
  [
    Value.str (Table.field tbl row "login");
    Value.str (Table.field tbl row "potype");
    box_string ctx row;
  ]

let q_get_pobox =
  {
    Query.name = "get_pobox";
    short = "gpob";
    kind = Retrieve;
    inputs = [ "login" ];
    outputs = [ "login"; "type"; "box"; "modtime"; "modby"; "modwith" ];
    check_access = Query.access_acl_or "get_pobox" self_in_args;
    handler =
      (fun ctx args ->
        match args with
        | [ login ] ->
            let tbl = users ctx in
            let* row =
              exactly_one ~err:Mr_err.user
                (Table.select tbl (Pred.eq_str "login" login))
            in
            Ok
              [
                pobox_tuple ctx row
                @ project tbl [ "pmodtime"; "pmodby"; "pmodwith" ] row;
              ]
        | _ -> Error Mr_err.args);
  }

let poboxes_of_type ctx ty =
  let tbl = users ctx in
  let pred =
    match ty with
    | Some t -> Pred.eq_str "potype" t
    | None -> Pred.Not (Pred.eq_str "potype" "NONE")
  in
  Table.select tbl pred |> List.map (fun (_, row) -> pobox_tuple ctx row)

let q_get_all_poboxes =
  {
    Query.name = "get_all_poboxes";
    short = "gapo";
    kind = Retrieve;
    inputs = [];
    outputs = [ "login"; "type"; "box" ];
    check_access = Query.access_acl "get_all_poboxes";
    handler = (fun ctx _ -> Ok (poboxes_of_type ctx None));
  }

let q_get_poboxes_pop =
  {
    Query.name = "get_poboxes_pop";
    short = "gpop";
    kind = Retrieve;
    inputs = [];
    outputs = [ "login"; "type"; "machine" ];
    check_access = Query.access_acl "get_poboxes_pop";
    handler = (fun ctx _ -> Ok (poboxes_of_type ctx (Some "POP")));
  }

let q_get_poboxes_smtp =
  {
    Query.name = "get_poboxes_smtp";
    short = "gpos";
    kind = Retrieve;
    inputs = [];
    outputs = [ "login"; "type"; "box" ];
    check_access = Query.access_acl "get_poboxes_smtp";
    handler = (fun ctx _ -> Ok (poboxes_of_type ctx (Some "SMTP")));
  }

let q_set_pobox =
  {
    Query.name = "set_pobox";
    short = "spob";
    kind = Update;
    inputs = [ "login"; "type"; "box" ];
    outputs = [];
    check_access =
      Query.access_acl_or "set_pobox" (fun ctx args ->
          match args with l :: _ -> caller_is ctx l | [] -> false);
    handler =
      (fun ctx args ->
        match args with
        | [ login; ty; box ] ->
            let tbl = users ctx in
            let ty = String.uppercase_ascii ty in
            let* _ =
              exactly_one ~err:Mr_err.user
                (Table.select tbl (Pred.eq_str "login" login))
            in
            let* () =
              if Mdb.valid_type ctx.mdb ~field:"pobox" ty then Ok ()
              else Error Mr_err.typ
            in
            let* row =
              exactly_one ~err:Mr_err.user
                (Table.select tbl (Pred.eq_str "login" login))
            in
            let old_pop = current_pop ctx row in
            let* fields, new_pop =
              match ty with
              | "POP" -> (
                  match Lookup.machine_id ctx.mdb box with
                  | Some mach ->
                      Ok ([ set "potype" "POP"; seti "pop_id" mach ], mach)
                  | None -> Error Mr_err.machine)
              | "SMTP" ->
                  let sid = Mdb.intern_string ctx.mdb box in
                  Ok ([ set "potype" "SMTP"; seti "box_id" sid ], 0)
              | _ -> Ok ([ set "potype" "NONE" ], 0)
            in
            ignore
              (Table.set_fields tbl (Pred.eq_str "login" login)
                 (fields @ stamp_fields ctx ~prefix:"p" ()));
            if old_pop <> new_pop then begin
              adjust_pop_count ctx old_pop (-1);
              adjust_pop_count ctx new_pop 1
            end;
            Ok []
        | _ -> Error Mr_err.args);
  }

let q_set_pobox_pop =
  {
    Query.name = "set_pobox_pop";
    short = "spop";
    kind = Update;
    inputs = [ "login" ];
    outputs = [];
    check_access = Query.access_acl_or "set_pobox_pop" self_in_args;
    handler =
      (fun ctx args ->
        match args with
        | [ login ] ->
            let tbl = users ctx in
            let* row =
              exactly_one ~err:Mr_err.user
                (Table.select tbl (Pred.eq_str "login" login))
            in
            let pop = Value.int (Table.field tbl row "pop_id") in
            if pop = 0 then Error Mr_err.machine
            else begin
              let was_pop = current_pop ctx row in
              ignore
                (Table.set_fields tbl (Pred.eq_str "login" login)
                   (set "potype" "POP" :: stamp_fields ctx ~prefix:"p" ()));
              if was_pop = 0 then adjust_pop_count ctx pop 1;
              Ok []
            end
        | _ -> Error Mr_err.args);
  }

let q_delete_pobox =
  {
    Query.name = "delete_pobox";
    short = "dpob";
    kind = Update;
    inputs = [ "login" ];
    outputs = [];
    check_access = Query.access_acl_or "delete_pobox" self_in_args;
    handler =
      (fun ctx args ->
        match args with
        | [ login ] ->
            let tbl = users ctx in
            let* row =
              exactly_one ~err:Mr_err.user
                (Table.select tbl (Pred.eq_str "login" login))
            in
            adjust_pop_count ctx (current_pop ctx row) (-1);
            ignore
              (Table.set_fields tbl (Pred.eq_str "login" login)
                 (set "potype" "NONE" :: stamp_fields ctx ~prefix:"p" ()));
            Ok []
        | _ -> Error Mr_err.args);
  }

let queries =
  [
    q_get_all_logins; q_get_all_active_logins; q_get_user_by_login;
    q_get_user_by_uid; q_get_user_by_name; q_get_user_by_class;
    q_get_user_by_mitid; q_add_user; q_register_user; q_update_user;
    q_update_user_shell; q_update_user_status; q_delete_user;
    q_delete_user_by_uid; q_get_finger_by_login; q_update_finger_by_login;
    q_get_pobox; q_get_all_poboxes; q_get_poboxes_pop; q_get_poboxes_smtp;
    q_set_pobox; q_set_pobox_pop; q_delete_pobox;
  ]
