open Relation
open Gen_util

let partition_base dir =
  let trimmed =
    if String.length dir > 0 && dir.[0] = '/' then
      String.sub dir 1 (String.length dir - 1)
    else dir
  in
  String.map (fun c -> if c = '/' then '_' else c) trimmed

(* Every credentials file of one generation, by [value3], from one
   group pass: lines [login:uid[:gid...]], the own group's gid first.
   An empty value3 names the all-active-users file; a list name, the
   file of that list's (recursive) members. *)
let credentials_files mdb value3s =
  let closure = Moira.Closure.get mdb in
  let admits value3 =
    if value3 = "" then fun _ -> true
    else
      match Moira.Lookup.list_id mdb value3 with
      | Some list_id ->
          let allowed = Hashtbl.create 64 in
          List.iter
            (fun u -> Hashtbl.replace allowed u ())
            (Moira.Closure.user_ids_of_list closure ~list_id);
          Hashtbl.mem allowed
      | None -> fun _ -> false
  in
  let files = List.map (fun v -> (v, admits v, ref [])) value3s in
  group_iter mdb (fun ~login ~users_id ~uid groups ->
      let line =
        String.concat ":"
          (login :: string_of_int uid
          :: List.map (fun (_, gid) -> string_of_int gid) groups)
      in
      List.iter
        (fun (_, admits, lines) ->
          if admits users_id then lines := line :: !lines)
        files);
  List.map (fun (v, _, lines) -> (v, sorted_lines !lines)) files

let quotas_and_dirs mdb ~nfsphys_id ~dir =
  let base = partition_base dir in
  let filesys = Moira.Mdb.table mdb "filesys" in
  let nfsquota = Moira.Mdb.table mdb "nfsquota" in
  let utbl = users_table mdb in
  let u_uid = col utbl "uid" in
  let f_filsys_id = col filesys "filsys_id" in
  let f_createflg = col filesys "createflg" in
  let f_owner = col filesys "owner" in
  let f_owners = col filesys "owners" in
  let f_name = col filesys "name" in
  let f_lockertype = col filesys "lockertype" in
  let q_users_id = col nfsquota "users_id" in
  let q_quota = col nfsquota "quota" in
  let fss = Table.select filesys (Pred.eq_int "phys_id" nfsphys_id) in
  let quota_lines = ref [] and dir_lines = ref [] in
  List.iter
    (fun (_, fs) ->
      let filsys_id = Value.int (f_filsys_id fs) in
      List.iter
        (fun (_, q) ->
          match Moira.Lookup.user_row mdb (Value.int (q_users_id q)) with
          | Some urow ->
              quota_lines :=
                Printf.sprintf "%d %d"
                  (Value.int (u_uid urow))
                  (Value.int (q_quota q))
                :: !quota_lines
          | None -> ())
        (Table.select nfsquota (Pred.eq_int "filsys_id" filsys_id));
      if Value.bool (f_createflg fs) then begin
        let owner_uid =
          match Moira.Lookup.user_row mdb (Value.int (f_owner fs)) with
          | Some urow -> Value.int (u_uid urow)
          | None -> 0
        in
        let group_gid =
          match Moira.Lookup.list_row mdb (Value.int (f_owners fs)) with
          | Some lrow ->
              Value.int (Table.field (Moira.Mdb.table mdb "list") lrow "gid")
          | None -> 0
        in
        dir_lines :=
          Printf.sprintf "%s %d %d %s"
            (Value.str (f_name fs))
            owner_uid group_gid
            (Value.str (f_lockertype fs))
          :: !dir_lines
      end)
    fss;
  [
    (base ^ ".quotas", sorted_lines !quota_lines);
    (base ^ ".dirs", sorted_lines !dir_lines);
  ]

(* Both parts fan out per enabled NFS serverhost, as (machine, [pick]
   of its row) pairs.  The files are keyed by machine name, so both
   parts watch [machine]: a rename must rekey them. *)
let nfs_hosts mdb pick =
  let shosts = Moira.Mdb.table mdb "serverhosts" in
  let sh_mach_id = col shosts "mach_id" in
  Table.select shosts
    (Pred.conj [ Pred.eq_str "service" "NFS"; Pred.eq_bool "enable" true ])
  |> List.filter_map (fun (_, sh) ->
         let mach_id = Value.int (sh_mach_id sh) in
         match Moira.Lookup.machine_name mdb mach_id with
         | None -> None
         | Some machine -> Some (machine, pick ~sh ~mach_id))

(* Hosts with the same value3 (most have none) share one file. *)
let credentials_part glue =
  let mdb = Moira.Glue.mdb glue in
  let sh_value3 = col (Moira.Mdb.table mdb "serverhosts") "value3" in
  let hosts =
    nfs_hosts mdb (fun ~sh ~mach_id:_ -> Value.str (sh_value3 sh))
  in
  let files =
    credentials_files mdb (List.sort_uniq String.compare (List.map snd hosts))
  in
  let per_host =
    List.map
      (fun (machine, value3) ->
        (machine, [ ("credentials", List.assoc value3 files) ]))
      hosts
  in
  { Gen.common = []; per_host }

let partitions_part glue =
  let mdb = Moira.Glue.mdb glue in
  let nfsphys = Moira.Mdb.table mdb "nfsphys" in
  let p_id = col nfsphys "nfsphys_id" in
  let p_dir = col nfsphys "dir" in
  let per_host =
    nfs_hosts mdb (fun ~sh:_ ~mach_id ->
        Table.select nfsphys (Pred.eq_int "mach_id" mach_id)
        |> List.concat_map (fun (_, p) ->
               quotas_and_dirs mdb ~nfsphys_id:(Value.int (p_id p))
                 ~dir:(Value.str (p_dir p))))
  in
  { Gen.common = []; per_host }

let parts =
  [
    Gen.part ~name:"credentials"
      ~watches:
        [
          Gen.watch ~columns:[ "modtime" ] "users";
          Gen.watch "list";
          Gen.watch ~columns:[ "modtime" ] "serverhosts";
          Gen.watch "machine";
        ]
      credentials_part;
    Gen.part ~name:"partitions"
      ~watches:
        [
          Gen.watch "filesys";
          Gen.watch "nfsphys";
          Gen.watch "nfsquota";
          Gen.watch "list";
          Gen.watch ~columns:[ "modtime" ] "users";
          Gen.watch ~columns:[ "modtime" ] "serverhosts";
          Gen.watch "machine";
        ]
      partitions_part;
  ]

let generator = Gen.of_parts ~service:"NFS" parts
