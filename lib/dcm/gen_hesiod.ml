open Relation
open Gen_util

let u key data = Hesiod.Hes_db.format_unspeca ~key data [@@inline]
let c key target = Hesiod.Hes_db.format_cname ~key target [@@inline]

let common files = { Gen.common = files; per_host = [] }

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

(* ---- keyed files ------------------------------------------------ *)
(* passwd/pobox/grplist scale with the user population and group.db with
   the lists, so they are keyed files (see [Keyed]): one renderer builds
   them in full and re-renders the rows a generation changed.  The
   remaining parts are small (clusters, printers, services) and stay
   full-build. *)

(* A line keyed by its own text, the order [sorted_lines] gives. *)
let line fi text = (fi, text, text ^ "\n")

(* passwd.db, uid.db: active users *)
let passwd_spec =
  Keyed.of_rows ~table:"users" ~files:[| "passwd.db"; "uid.db" |]
    ~deps:(fun _ -> "")
    (fun mdb ->
      let utbl = users_table mdb in
      let status = col utbl "status" and login = col utbl "login" in
      let uidc = col utbl "uid" and fullname = col utbl "fullname" in
      let shell = col utbl "shell" in
      fun row ->
        if Value.int (status row) <> 1 then []
        else
          let login = Value.str (login row) in
          let uidv = Value.int (uidc row) in
          [
            line 0
              (u (login ^ ".passwd")
                 (Printf.sprintf "%s:*:%d:101:%s,,,,:/mit/%s:%s" login uidv
                    (Value.str (fullname row))
                    login
                    (Value.str (shell row))));
            line 1 (c (string_of_int uidv ^ ".uid") (login ^ ".passwd"));
          ])

(* pobox.db: active users with POP boxes *)
let pobox_spec =
  Keyed.of_rows ~table:"users" ~files:[| "pobox.db" |]
    ~deps:(fun mdb -> fingerprint mdb [ ("machine", [ "mach_id"; "name" ]) ])
    (fun mdb ->
      let utbl = users_table mdb in
      let status = col utbl "status" and login = col utbl "login" in
      let potype = col utbl "potype" and pop_id = col utbl "pop_id" in
      let machines =
        id_name_map (Moira.Mdb.table mdb "machine") ~id:"mach_id" ~name:"name"
      in
      fun row ->
        if Value.int (status row) <> 1 || Value.str (potype row) <> "POP" then
          []
        else
          match name_of machines (Value.int (pop_id row)) with
          | None -> []
          | Some machine ->
              let login = Value.str (login row) in
              [
                line 0
                  (u (login ^ ".pobox")
                     (Printf.sprintf "POP %s %s" machine login));
              ])

(* group.db, gid.db: one line pair per active unix group.  A membership
   edit stamps its list row, which re-renders to the same two lines and
   leaves both files physically unchanged. *)
let group_spec =
  Keyed.of_rows ~table:"list" ~files:[| "group.db"; "gid.db" |]
    ~deps:(fun _ -> "")
    (fun mdb ->
      let tbl = Moira.Mdb.table mdb "list" in
      let grouplist = col tbl "grouplist" and active = col tbl "active" in
      let name = col tbl "name" and gidc = col tbl "gid" in
      fun row ->
        if Value.bool (grouplist row) && Value.bool (active row) then
          let name = Value.str (name row) in
          let g = Value.int (gidc row) in
          [
            line 0 (u (name ^ ".group") (Printf.sprintf "%s:*:%d:" name g));
            line 1 (c (string_of_int g ^ ".gid") (name ^ ".group"));
          ]
        else [])

(* grplist.db: colon-separated (group, gid) pairs per active user in
   some group, keyed by login.  The full build is the one bulk group
   pass ([group_iter]); a changed user re-renders from their own
   fragments ([group_fragments]), which match the pass exactly. *)
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
        group_iter mdb (fun ~login ~users_id:_ ~uid:_ groups ->
            (* the pass already puts the own group first *)
            if groups <> [] then
              emit ~rowid:(Hashtbl.find rid login) 0 login
                (grplist_render ~login ~own:""
                   ~frags:(List.map fst groups))));
    sk_row =
      (fun mdb ->
        let utbl = users_table mdb in
        let status = col utbl "status" and login = col utbl "login" in
        let users_id = col utbl "users_id" in
        fun ~rowid ->
          match Table.get utbl rowid with
          | Some row when Value.int (status row) = 1 ->
              let login = Value.str (login row) in
              let own, frags =
                group_fragments mdb ~users_id:(Value.int (users_id row)) ~login
              in
              if own = "" && frags = [] then []
              else [ (0, login, grplist_render ~login ~own ~frags) ]
          | _ -> []);
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
                          (Table.select (users_table mdb)
                             (Pred.eq_int "users_id" users_id)))));
        };
  }

(* One part per independently-watched slice of the eleven files; the
   union of part watches equals the old service-grain watch list, so
   service-level change detection is unchanged. *)
let parts =
  [
    Keyed.part ~name:"passwd"
      ~watches:[ Gen.watch ~columns:[ "modtime"; "fmodtime" ] "users" ]
      passwd_spec;
    Keyed.part ~name:"pobox"
      ~watches:
        [
          Gen.watch ~columns:[ "modtime"; "pmodtime" ] "users";
          Gen.watch "machine";
        ]
      pobox_spec;
    Keyed.part ~name:"group" ~watches:[ Gen.watch "list" ] group_spec;
    (* membership edits stamp the containing list row's modtime, so the
       "list" watch covers members-relation changes too *)
    Keyed.part ~name:"grplist"
      ~watches:[ Gen.watch ~columns:[ "modtime" ] "users"; Gen.watch "list" ]
      grplist_spec;
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
