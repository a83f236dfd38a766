type tape_entry = {
  first : string;
  middle : string;
  last : string;
  id_number : string;
  class_year : string;
}

let strip_hyphens s = String.concat "" (String.split_on_char '-' s)

let hash_entry ~first ~last ~id_number =
  Krb.Kcrypt.crypt_mit_id ~first ~last id_number

let load_registrar_tape glue entries =
  let rec go added = function
    | [] -> Ok added
    | e :: rest -> (
        let hashed = hash_entry ~first:e.first ~last:e.last ~id_number:e.id_number in
        (* Already on a previous tape?  Match by hashed ID. *)
        match
          Moira.Glue.query glue ~name:"get_user_by_mitid" [ hashed ]
        with
        | Ok _ -> go added rest
        | Error _ -> (
            match
              Moira.Glue.query glue ~name:"add_user"
                [
                  Moira.Mrconst.unique_login; Moira.Mrconst.unique_uid;
                  "/bin/csh"; e.last; e.first; e.middle; "0"; hashed;
                  e.class_year;
                ]
            with
            | Ok _ -> go (added + 1) rest
            | Error code -> Error code))
  in
  go 0 entries

(* Authenticator: {IDnumber, hashIDnumber, extra...} encrypted under
   hashIDnumber (error-propagating chaining). *)
let frame parts =
  String.concat ""
    (List.map (fun p -> Printf.sprintf "%06d%s" (String.length p) p) parts)

let unframe s =
  let n = String.length s in
  let rec go i acc =
    if i = n then Some (List.rev acc)
    else if i + 6 > n then None
    else
      match int_of_string_opt (String.sub s i 6) with
      | Some len when len >= 0 && i + 6 + len <= n ->
          go (i + 6 + len) (String.sub s (i + 6) len :: acc)
      | _ -> None
  in
  go 0 []

let make_authenticator ~first ~last ~id_number ~extra =
  let hashed = hash_entry ~first ~last ~id_number in
  Krb.Toycipher.encrypt ~key:hashed
    (frame (strip_hyphens id_number :: hashed :: extra))

(* ops on the userreg UDP port *)
let op_verify = 48
let op_grab = 49
let op_setpw = 50

(* reply status codes (first tuple field) *)
let st_ok = "OK"
let st_already = "ALREADY_REGISTERED"
let st_not_found = "NOT_FOUND"
let st_login_taken = "LOGIN_TAKEN"
let st_bad_auth = "BAD_AUTH"

type verify_status =
  | Reg_ok
  | Already_registered
  | Not_found

type server = {
  glue : Moira.Glue.t;
  kdc : Krb.Kdc.t;
}

open Relation

(* Find the user a request speaks for: candidates share the (first,
   last) name; the authenticator must decrypt under the candidate's
   stored ID hash and embed matching ID material. *)
let authenticate t ~first ~last ~authenticator =
  let mdb = Moira.Glue.mdb t.glue in
  let users = Moira.Mdb.table mdb "users" in
  let candidates =
    Table.select users
      (Pred.conj [ Pred.eq_str "first" first; Pred.eq_str "last" last ])
  in
  let check (_, row) =
    let stored = Value.str (Table.field users row "mit_id") in
    match Krb.Toycipher.decrypt ~key:stored authenticator with
    | Error `Bad_key -> None
    | Ok plain -> (
        match unframe plain with
        | Some (id_plain :: hash :: extra) ->
            if
              hash = stored
              && hash_entry ~first ~last ~id_number:id_plain = stored
            then Some (row, extra)
            else None
        | _ -> None)
  in
  match List.filter_map check candidates with
  | [ hit ] -> Ok hit
  | [] -> if candidates = [] then Error `Not_found else Error `Bad_auth
  | _ -> Error `Bad_auth

let reply code tuples =
  Gdb.Wire.encode_reply
    { Gdb.Wire.rversion = Gdb.Wire.protocol_version; code; tuples }

let handle t payload =
  match Gdb.Wire.decode_request payload with
  | Error _ -> reply 1 [ [ st_bad_auth ] ]
  | Ok req -> (
      match req.Gdb.Wire.args with
      | [ first; last; authenticator ] -> (
          let mdb = Moira.Glue.mdb t.glue in
          let users = Moira.Mdb.table mdb "users" in
          match authenticate t ~first ~last ~authenticator with
          | Error `Not_found -> reply 0 [ [ st_not_found ] ]
          | Error `Bad_auth -> reply 0 [ [ st_bad_auth ] ]
          | Ok (row, extra) ->
              let status = Value.int (Table.field users row "status") in
              let uid = Value.int (Table.field users row "uid") in
              if req.op = op_verify then
                if status = Moira.Mrconst.user_not_registered then
                  reply 0 [ [ st_ok ] ]
                else reply 0 [ [ st_already ] ]
              else if req.op = op_grab then begin
                match extra with
                | [ login ] ->
                    if status <> Moira.Mrconst.user_not_registered then
                      reply 0 [ [ st_already ] ]
                    else if Krb.Kdc.principal_exists t.kdc login then
                      reply 0 [ [ st_login_taken ] ]
                    else begin
                      match
                        Moira.Glue.query t.glue ~name:"register_user"
                          [
                            string_of_int uid; login;
                            string_of_int Moira.Mrconst.fs_student;
                          ]
                      with
                      | Ok _ ->
                          ignore
                            (Krb.Kdc.reserve_principal t.kdc ~name:login);
                          reply 0 [ [ st_ok ] ]
                      | Error code when code = Moira.Mr_err.in_use ->
                          reply 0 [ [ st_login_taken ] ]
                      | Error code -> reply code []
                    end
                | _ -> reply 0 [ [ st_bad_auth ] ]
              end
              else if req.op = op_setpw then begin
                match extra with
                | [ password ] -> (
                    let login = Value.str (Table.field users row "login") in
                    match Krb.Kdc.set_password t.kdc ~name:login ~password with
                    | Ok () -> (
                        (* The account becomes active; the DCM will
                           propagate it outward. *)
                        match
                          Moira.Glue.query t.glue ~name:"update_user_status"
                            [
                              login;
                              string_of_int Moira.Mrconst.user_active;
                            ]
                        with
                        | Ok _ -> reply 0 [ [ st_ok ] ]
                        | Error code -> reply code [])
                    | Error code -> reply code [])
                | _ -> reply 0 [ [ st_bad_auth ] ]
              end
              else reply Moira.Mr_err.no_handle [])
      | _ -> reply Moira.Mr_err.args [])

let start ~glue ~kdc host =
  let t = { glue; kdc } in
  Netsim.Host.serve host ~service:"userreg" (fun ~src:_ payload ->
      handle t payload);
  t

type reg_error =
  | Verify_failed of verify_status
  | Login_taken
  | Bad_authenticator
  | Server_unreachable
  | Query_failed of int

let reg_error_to_string = function
  | Verify_failed Reg_ok -> "verification inconclusive"
  | Verify_failed Already_registered -> "already registered"
  | Verify_failed Not_found -> "not found in the registration database"
  | Login_taken -> "login name already taken"
  | Bad_authenticator -> "ID authentication failed"
  | Server_unreachable -> "registration server unreachable"
  | Query_failed code -> Comerr.Com_err.error_message code

let request net ~src ~server ~op args =
  let payload =
    Gdb.Wire.encode_request
      { Gdb.Wire.version = Gdb.Wire.protocol_version; conn = 0; op; args; ctx = "" }
  in
  match Netsim.Net.call net ~src ~dst:server ~service:"userreg" payload with
  | Error _ -> Error Server_unreachable
  | Ok raw -> (
      match Gdb.Wire.decode_reply raw with
      | Error _ -> Error Server_unreachable
      | Ok reply ->
          if reply.Gdb.Wire.code <> 0 then
            Error (Query_failed reply.Gdb.Wire.code)
          else begin
            match reply.Gdb.Wire.tuples with
            | [ [ status ] ] -> Ok status
            | _ -> Error Server_unreachable
          end)

let verify_user net ~src ~server ~first ~last ~id_number =
  let auth = make_authenticator ~first ~last ~id_number ~extra:[] in
  match request net ~src ~server ~op:op_verify [ first; last; auth ] with
  | Error e -> Error e
  | Ok s ->
      if s = st_ok then Ok Reg_ok
      else if s = st_already then Ok Already_registered
      else if s = st_not_found then Ok Not_found
      else Error Bad_authenticator

let register ?kdc net ~src ~server ~first ~middle:_ ~last ~id_number ~login
    ~password =
  (* the paper's two-step check: first try to get initial tickets for
     the desired name; success means the name is taken, and only a
     failure ("indicating that the username is free") proceeds to
     grab_login *)
  let kinit_says_taken =
    match kdc with
    | None -> false
    | Some kdc -> Krb.Kdc.principal_exists kdc login
  in
  if kinit_says_taken then Error Login_taken
  else
  match verify_user net ~src ~server ~first ~last ~id_number with
  | Error e -> Error e
  | Ok Already_registered -> Error (Verify_failed Already_registered)
  | Ok Not_found -> Error (Verify_failed Not_found)
  | Ok Reg_ok -> (
      let auth =
        make_authenticator ~first ~last ~id_number ~extra:[ login ]
      in
      match request net ~src ~server ~op:op_grab [ first; last; auth ] with
      | Error e -> Error e
      | Ok s when s = st_login_taken -> Error Login_taken
      | Ok s when s <> st_ok -> Error Bad_authenticator
      | Ok _ -> (
          let auth =
            make_authenticator ~first ~last ~id_number ~extra:[ password ]
          in
          match
            request net ~src ~server ~op:op_setpw [ first; last; auth ]
          with
          | Error e -> Error e
          | Ok s when s = st_ok -> Ok ()
          | Ok _ -> Error Bad_authenticator))
