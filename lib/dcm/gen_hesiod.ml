open Relation
open Gen_util

let u key data = Hesiod.Hes_db.format_unspeca ~key data [@@inline]
let c key target = Hesiod.Hes_db.format_cname ~key target [@@inline]

let common files = { Gen.common = files; per_host = [] }

(* passwd.db, uid.db *)
let passwd_files mdb =
  let utbl = users_table mdb in
  let login = col utbl "login" in
  let uidc = col utbl "uid" in
  let fullname = col utbl "fullname" in
  let shell = col utbl "shell" in
  let passwd = ref [] and uid = ref [] in
  active_users utbl (fun row ->
      let login = Value.str (login row) in
      let uidv = Value.int (uidc row) in
      let line =
        Printf.sprintf "%s:*:%d:101:%s,,,,:/mit/%s:%s" login uidv
          (Value.str (fullname row))
          login
          (Value.str (shell row))
      in
      passwd := u (login ^ ".passwd") line :: !passwd;
      uid :=
        c (string_of_int uidv ^ ".uid") (login ^ ".passwd") :: !uid);
  ( ("passwd.db", sorted_lines !passwd),
    ("uid.db", sorted_lines !uid) )

(* pobox.db: active users with POP boxes *)
let pobox_file mdb =
  let utbl = users_table mdb in
  let login = col utbl "login" in
  let potype = col utbl "potype" in
  let pop_id = col utbl "pop_id" in
  let machines = id_name_map (Moira.Mdb.table mdb "machine") ~id:"mach_id" ~name:"name" in
  let lines = ref [] in
  active_users utbl (fun row ->
      if Value.str (potype row) = "POP" then begin
        let login = Value.str (login row) in
        match name_of machines (Value.int (pop_id row)) with
        | Some machine ->
            lines :=
              u (login ^ ".pobox")
                (Printf.sprintf "POP %s %s" machine login)
              :: !lines
        | None -> ()
      end);
  ("pobox.db", sorted_lines !lines)

(* group.db, gid.db: active unix groups *)
let group_files mdb =
  let tbl = Moira.Mdb.table mdb "list" in
  let name = col tbl "name" in
  let gidc = col tbl "gid" in
  let group = ref [] and gid = ref [] in
  List.iter
    (fun (_, row) ->
      let name = Value.str (name row) in
      let g = Value.int (gidc row) in
      group :=
        u (name ^ ".group") (Printf.sprintf "%s:*:%d:" name g) :: !group;
      gid := c (string_of_int g ^ ".gid") (name ^ ".group") :: !gid)
    (Table.select tbl
       (Pred.conj
          [ Pred.eq_bool "grouplist" true; Pred.eq_bool "active" true ]));
  ( ("group.db", sorted_lines !group),
    ("gid.db", sorted_lines !gid) )

(* grplist.db: colon-separated (group, gid) pairs per active user.
   [grplist_entries] arrives in login order, which is also line order
   (every key is login ^ ".grplist"), so the file assembles in one
   pass with no final sort. *)
let grplist_file mdb =
  let doc =
    emit ~hint:262144 (fun w ->
        grplist_iter mdb (fun ~login ~own ~frags ->
            (* [u (login ^ ".grplist") rendered] assembled piecewise *)
            Sink.add_string w login;
            Sink.add_string w ".grplist HS UNSPECA \"";
            let first = ref true in
            if own <> "" then begin
              Sink.add_string w own;
              first := false
            end;
            List.iter
              (fun frag ->
                if !first then first := false else Sink.add_char w ':';
                Sink.add_string w frag)
              frags;
            Sink.add_string w "\"\n"))
  in
  ("grplist.db", doc)

(* cluster.db: per-cluster service data plus machine CNAMEs; machines in
   several clusters get a pseudo-cluster holding the union of the data. *)
let cluster_file mdb =
  let svc = Moira.Mdb.table mdb "svc" in
  let mcmap = Moira.Mdb.table mdb "mcmap" in
  let cluster_data clu_id =
    Table.select svc (Pred.eq_int "clu_id" clu_id)
    |> List.map (fun (_, row) ->
           Printf.sprintf "%s %s" (Value.str row.(1)) (Value.str row.(2)))
  in
  let lines = ref [] in
  (* per-cluster UNSPECA lines *)
  let clusters = Moira.Mdb.table mdb "cluster" in
  let cl_name = col clusters "name" in
  let cl_id = col clusters "clu_id" in
  List.iter
    (fun (_, row) ->
      let name = Value.str (cl_name row) in
      let clu_id = Value.int (cl_id row) in
      List.iter
        (fun data -> lines := u (name ^ ".cluster") data :: !lines)
        (cluster_data clu_id))
    (Table.select clusters Pred.True);
  (* machine CNAMEs *)
  let machines = Moira.Mdb.table mdb "machine" in
  let m_name = col machines "name" in
  let m_id = col machines "mach_id" in
  List.iter
    (fun (_, row) ->
      let mname = Value.str (m_name row) in
      let mach_id = Value.int (m_id row) in
      let clus =
        Table.select mcmap (Pred.eq_int "mach_id" mach_id)
        |> List.filter_map (fun (_, m) ->
               Moira.Lookup.cluster_name mdb (Value.int m.(1)))
        |> List.sort String.compare
      in
      match clus with
      | [] -> ()
      | [ cname ] ->
          lines := c (mname ^ ".cluster") (cname ^ ".cluster") :: !lines
      | several ->
          (* pseudo-cluster: union of all the member clusters' data *)
          let pseudo = String.lowercase_ascii mname ^ "-pseudo" in
          List.iter
            (fun cname ->
              match Moira.Lookup.cluster_id mdb cname with
              | Some clu_id ->
                  List.iter
                    (fun data ->
                      lines := u (pseudo ^ ".cluster") data :: !lines)
                    (cluster_data clu_id)
              | None -> ())
            several;
          lines := c (mname ^ ".cluster") (pseudo ^ ".cluster") :: !lines)
    (Table.select machines Pred.True);
  ("cluster.db", sorted_lines !lines)

(* filsys.db *)
let filsys_file mdb =
  let tbl = Moira.Mdb.table mdb "filesys" in
  let label = col tbl "label" in
  let mach = col tbl "mach_id" in
  let typ = col tbl "type" in
  let namec = col tbl "name" in
  let access = col tbl "access" in
  let mount = col tbl "mount" in
  let lines = ref [] in
  List.iter
    (fun (_, row) ->
      let machine =
        Option.value
          (Moira.Lookup.machine_name mdb (Value.int (mach row)))
          ~default:"?"
      in
      let data =
        Printf.sprintf "%s %s %s %s %s"
          (Value.str (typ row))
          (Value.str (namec row))
          (short_host machine)
          (Value.str (access row))
          (Value.str (mount row))
      in
      lines := u (Value.str (label row) ^ ".filsys") data :: !lines)
    (Table.select tbl Pred.True);
  ("filsys.db", sorted_lines !lines)

(* printcap.db *)
let printcap_file mdb =
  let tbl = Moira.Mdb.table mdb "printcap" in
  let namec = col tbl "name" in
  let mach = col tbl "mach_id" in
  let rp = col tbl "rp" in
  let dir = col tbl "dir" in
  let lines = ref [] in
  List.iter
    (fun (_, row) ->
      let name = Value.str (namec row) in
      let machine =
        Option.value
          (Moira.Lookup.machine_name mdb (Value.int (mach row)))
          ~default:"?"
      in
      let data =
        Printf.sprintf "%s:rp=%s:rm=%s:sd=%s" name
          (Value.str (rp row))
          machine
          (Value.str (dir row))
      in
      lines := u (name ^ ".pcap") data :: !lines)
    (Table.select tbl Pred.True);
  ("printcap.db", sorted_lines !lines)

(* service.db: the services relation plus SERVICE aliases *)
let service_file mdb =
  let tbl = Moira.Mdb.table mdb "services" in
  let namec = col tbl "name" in
  let protocol = col tbl "protocol" in
  let port = col tbl "port" in
  let lines = ref [] in
  List.iter
    (fun (_, row) ->
      let name = Value.str (namec row) in
      let data =
        Printf.sprintf "%s %s %d" name
          (String.lowercase_ascii (Value.str (protocol row)))
          (Value.int (port row))
      in
      lines := u (name ^ ".service") data :: !lines)
    (Table.select tbl Pred.True);
  let aliases = Moira.Mdb.table mdb "alias" in
  List.iter
    (fun (_, row) ->
      lines :=
        c (Value.str row.(0) ^ ".service") (Value.str row.(2) ^ ".service")
        :: !lines)
    (Table.select aliases (Pred.eq_str "type" "SERVICE"));
  ("service.db", sorted_lines !lines)

(* sloc.db: enabled server/host tuples *)
let sloc_file mdb =
  let tbl = Moira.Mdb.table mdb "serverhosts" in
  let service = col tbl "service" in
  let mach = col tbl "mach_id" in
  let lines = ref [] in
  List.iter
    (fun (_, row) ->
      match Moira.Lookup.machine_name mdb (Value.int (mach row)) with
      | Some machine ->
          (* the paper's sloc example carries the hostname unquoted *)
          lines :=
            Printf.sprintf "%s.sloc HS UNSPECA %s"
              (Value.str (service row))
              machine
            :: !lines
      | None -> ())
    (Table.select tbl (Pred.eq_bool "enable" true));
  ("sloc.db", sorted_lines !lines)

let with_mdb f glue = f (Moira.Glue.mdb glue)

(* ---- keyed incremental specs for the population-sized files ------- *)
(* passwd/pobox/grplist scale with the user population and group.db with
   the lists, so they get row-grain incremental builders: the per-row
   renderers below must byte-match the bulk builds above, line for line.
   The remaining parts are small (clusters, printers, services) and stay
   full-build. *)

let passwd_user_lines ~rowid row ~login ~uidv ~fullname ~shell emit =
  let pline =
    u (login ^ ".passwd")
      (Printf.sprintf "%s:*:%d:101:%s,,,,:/mit/%s:%s" login uidv fullname
         login shell)
  in
  let uline = c (string_of_int uidv ^ ".uid") (login ^ ".passwd") in
  ignore row;
  emit ~rowid 0 pline (pline ^ "\n");
  emit ~rowid 1 uline (uline ^ "\n")

let passwd_spec =
  {
    Keyed.sk_table = "users";
    sk_files = [| "passwd.db"; "uid.db" |];
    sk_full =
      (fun mdb ~emit ->
        let utbl = users_table mdb in
        let login = col utbl "login" and uidc = col utbl "uid" in
        let fullname = col utbl "fullname" and shell = col utbl "shell" in
        let status = col utbl "status" in
        Table.iter utbl (fun rowid row ->
            if Value.int (status row) = 1 then
              passwd_user_lines ~rowid row
                ~login:(Value.str (login row))
                ~uidv:(Value.int (uidc row))
                ~fullname:(Value.str (fullname row))
                ~shell:(Value.str (shell row))
                emit));
    sk_row =
      (fun mdb ~rowid ->
        let utbl = users_table mdb in
        match Table.get utbl rowid with
        | None -> []
        | Some row ->
            if Value.int (Table.field utbl row "status") <> 1 then []
            else begin
              let acc = ref [] in
              passwd_user_lines ~rowid row
                ~login:(Value.str (Table.field utbl row "login"))
                ~uidv:(Value.int (Table.field utbl row "uid"))
                ~fullname:(Value.str (Table.field utbl row "fullname"))
                ~shell:(Value.str (Table.field utbl row "shell"))
                (fun ~rowid:_ fi key line -> acc := (fi, key, line) :: !acc);
              List.rev !acc
            end);
    sk_deps = (fun _ -> "");
    sk_aux = None;
  }

let pobox_user_line mdb row ~status ~potype ~login ~pop_id =
  ignore row;
  if status <> 1 || potype <> "POP" then []
  else
    let machines =
      id_name_map (Moira.Mdb.table mdb "machine") ~id:"mach_id" ~name:"name"
    in
    match name_of machines pop_id with
    | None -> []
    | Some machine ->
        let line =
          u (login ^ ".pobox") (Printf.sprintf "POP %s %s" machine login)
        in
        [ (0, line, line ^ "\n") ]

let pobox_spec =
  {
    Keyed.sk_table = "users";
    sk_files = [| "pobox.db" |];
    sk_full =
      (fun mdb ~emit ->
        let utbl = users_table mdb in
        let login = col utbl "login" and potype = col utbl "potype" in
        let pop_id = col utbl "pop_id" and status = col utbl "status" in
        Table.iter utbl (fun rowid row ->
            List.iter
              (fun (fi, key, line) -> emit ~rowid fi key line)
              (pobox_user_line mdb row
                 ~status:(Value.int (status row))
                 ~potype:(Value.str (potype row))
                 ~login:(Value.str (login row))
                 ~pop_id:(Value.int (pop_id row)))));
    sk_row =
      (fun mdb ~rowid ->
        let utbl = users_table mdb in
        match Table.get utbl rowid with
        | None -> []
        | Some row ->
            pobox_user_line mdb row
              ~status:(Value.int (Table.field utbl row "status"))
              ~potype:(Value.str (Table.field utbl row "potype"))
              ~login:(Value.str (Table.field utbl row "login"))
              ~pop_id:(Value.int (Table.field utbl row "pop_id")));
    sk_deps =
      (fun mdb -> fingerprint mdb [ ("machine", [ "mach_id"; "name" ]) ]);
    sk_aux = None;
  }

let grplist_render ~login ~own ~frags =
  let b = Buffer.create 128 in
  Buffer.add_string b login;
  Buffer.add_string b ".grplist HS UNSPECA \"";
  let first = ref true in
  if own <> "" then begin
    Buffer.add_string b own;
    first := false
  end;
  List.iter
    (fun frag ->
      if !first then first := false else Buffer.add_char b ':';
      Buffer.add_string b frag)
    frags;
  Buffer.add_string b "\"\n";
  Buffer.contents b

let grplist_spec =
  {
    Keyed.sk_table = "users";
    sk_files = [| "grplist.db" |];
    sk_full =
      (fun mdb ~emit ->
        let utbl = users_table mdb in
        let login = col utbl "login" and status = col utbl "status" in
        let rid = Hashtbl.create 4096 in
        Table.iter utbl (fun rowid row ->
            if Value.int (status row) = 1 then
              Hashtbl.replace rid (Value.str (login row)) rowid);
        grplist_iter mdb (fun ~login ~own ~frags ->
            emit ~rowid:(Hashtbl.find rid login) 0 login
              (grplist_render ~login ~own ~frags)));
    sk_row =
      (fun mdb ~rowid ->
        let utbl = users_table mdb in
        match Table.get utbl rowid with
        | None -> []
        | Some row ->
            if Value.int (Table.field utbl row "status") <> 1 then []
            else
              let login = Value.str (Table.field utbl row "login") in
              let users_id = Value.int (Table.field utbl row "users_id") in
              let own, frags = group_fragments mdb ~users_id ~login in
              if own = "" && frags = [] then []
              else [ (0, login, grplist_render ~login ~own ~frags) ]);
    (* a USER-member edit reaches grplist.db through the closure's
       delta as the users it touched; only a change to the active group
       lists themselves (or a LIST-member edit, which makes the closure
       rebuild and its delta unknown) falls back *)
    sk_deps = (fun mdb -> string_of_int (grouplists_version mdb));
    sk_aux =
      Some
        {
          Keyed.ax_cursor = Moira.Closure.change_cursor;
          ax_rows =
            (fun mdb ~cursor ->
              Moira.Closure.users_changed_since mdb ~cursor
              |> Option.map
                   (List.concat_map (fun users_id ->
                        List.map fst
                          (Plan.select (users_table mdb)
                             (Pred.eq_int "users_id" users_id)))));
        };
  }

(* group.db/gid.db, one row-grain line pair per active group list: a
   membership edit stamps its list row, which re-renders to the same two
   lines and leaves both files physically unchanged. *)
let group_row_lines tbl row =
  if
    Value.bool (Table.field tbl row "grouplist")
    && Value.bool (Table.field tbl row "active")
  then
    let name = Value.str (Table.field tbl row "name") in
    let g = Value.int (Table.field tbl row "gid") in
    let gline = u (name ^ ".group") (Printf.sprintf "%s:*:%d:" name g) in
    let dline = c (string_of_int g ^ ".gid") (name ^ ".group") in
    [ (0, gline, gline ^ "\n"); (1, dline, dline ^ "\n") ]
  else []

let group_spec =
  {
    Keyed.sk_table = "list";
    sk_files = [| "group.db"; "gid.db" |];
    sk_full =
      (fun mdb ~emit ->
        let tbl = Moira.Mdb.table mdb "list" in
        Table.iter tbl (fun rowid row ->
            List.iter
              (fun (fi, key, line) -> emit ~rowid fi key line)
              (group_row_lines tbl row)));
    sk_row =
      (fun mdb ~rowid ->
        let tbl = Moira.Mdb.table mdb "list" in
        match Table.get tbl rowid with
        | None -> []
        | Some row -> group_row_lines tbl row);
    sk_deps = (fun _ -> "");
    sk_aux = None;
  }

(* One part per independently-watched slice of the eleven files; the
   union of part watches equals the old service-grain watch list, so
   service-level change detection is unchanged. *)
let parts =
  [
    Gen.part ~name:"passwd"
      ~watches:[ Gen.watch ~columns:[ "modtime"; "fmodtime" ] "users" ]
      ~incr:(Keyed.incr passwd_spec)
      (with_mdb (fun mdb ->
           let passwd, uid = passwd_files mdb in
           common [ passwd; uid ]));
    Gen.part ~name:"pobox"
      ~watches:
        [
          Gen.watch ~columns:[ "modtime"; "pmodtime" ] "users";
          Gen.watch "machine";
        ]
      ~incr:(Keyed.incr pobox_spec)
      (with_mdb (fun mdb -> common [ pobox_file mdb ]));
    Gen.part ~name:"group"
      ~watches:[ Gen.watch "list" ]
      ~incr:(Keyed.incr group_spec)
      (with_mdb (fun mdb ->
           let group, gid = group_files mdb in
           common [ group; gid ]));
    (* membership edits stamp the containing list row's modtime, so the
       "list" watch covers members-relation changes too *)
    Gen.part ~name:"grplist"
      ~watches:[ Gen.watch ~columns:[ "modtime" ] "users"; Gen.watch "list" ]
      ~incr:(Keyed.incr grplist_spec)
      (with_mdb (fun mdb -> common [ grplist_file mdb ]));
    Gen.part ~name:"cluster"
      ~watches:[ Gen.watch "machine"; Gen.watch "cluster" ]
      (with_mdb (fun mdb -> common [ cluster_file mdb ]));
    Gen.part ~name:"filsys"
      ~watches:[ Gen.watch "filesys"; Gen.watch "machine" ]
      (with_mdb (fun mdb -> common [ filsys_file mdb ]));
    Gen.part ~name:"printcap"
      ~watches:[ Gen.watch "printcap"; Gen.watch "machine" ]
      (with_mdb (fun mdb -> common [ printcap_file mdb ]));
    Gen.part ~name:"service"
      ~watches:[ Gen.watch "services"; Gen.watch ~columns:[] "alias" ]
      (with_mdb (fun mdb -> common [ service_file mdb ]));
    Gen.part ~name:"sloc"
      ~watches:
        [
          Gen.watch ~columns:[ "modtime" ] "serverhosts"; Gen.watch "machine";
        ]
      (with_mdb (fun mdb -> common [ sloc_file mdb ]));
  ]

let generator = Gen.of_parts ~service:"HESIOD" parts
