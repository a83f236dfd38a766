let lifetime_sec = 8 * 3600
let max_skew_sec = 300

type principal_entry = {
  mutable key : string option; (* None = reserved, no password yet *)
}

type t = {
  clock : unit -> int;
  principals : (string, principal_entry) Hashtbl.t;
  services : (string, string) Hashtbl.t;
  mutable key_counter : int;
}

let create ~clock () =
  {
    clock;
    principals = Hashtbl.create 1024;
    services = Hashtbl.create 17;
    key_counter = 0;
  }

let derive_key password = Kcrypt.crypt ~salt:"k4" password

let add_principal t ~name ~password =
  if Hashtbl.mem t.principals name then Error Krb_err.princ_exists
  else begin
    Hashtbl.replace t.principals name { key = Some (derive_key password) };
    Ok ()
  end

let principal_exists t name = Hashtbl.mem t.principals name

let reserve_principal t ~name =
  if Hashtbl.mem t.principals name then Error Krb_err.princ_exists
  else begin
    Hashtbl.replace t.principals name { key = None };
    Ok ()
  end

let set_password t ~name ~password =
  match Hashtbl.find_opt t.principals name with
  | None -> Error Krb_err.princ_unknown
  | Some e ->
      e.key <- Some (derive_key password);
      Ok ()

let delete_principal t ~name =
  if Hashtbl.mem t.principals name then begin
    Hashtbl.remove t.principals name;
    Ok ()
  end
  else Error Krb_err.princ_unknown

let fresh_key t tag =
  t.key_counter <- t.key_counter + 1;
  Kcrypt.crypt ~salt:"sk" (Printf.sprintf "%s/%d" tag t.key_counter)

let register_service t service =
  match Hashtbl.find_opt t.services service with
  | Some key -> key
  | None ->
      let key = fresh_key t service in
      Hashtbl.replace t.services service key;
      key

let srvtab t service = Hashtbl.find_opt t.services service

type credentials = {
  principal : string;
  session_key : string;
  ticket_blob : string; (* encrypted under the service srvtab key *)
  kdc : t;
}

(* Simple counted framing for joining/splitting blobs. *)
let frame parts =
  String.concat ""
    (List.map (fun p -> Printf.sprintf "%08d%s" (String.length p) p) parts)

let unframe s =
  let n = String.length s in
  let rec go i acc =
    if i = n then Some (List.rev acc)
    else if i + 8 > n then None
    else
      match int_of_string_opt (String.sub s i 8) with
      | None -> None
      | Some len ->
          if len < 0 || i + 8 + len > n then None
          else go (i + 8 + len) (String.sub s (i + 8) len :: acc)
  in
  go 0 []

let get_ticket t ~principal ~password ~service =
  match Hashtbl.find_opt t.principals principal with
  | None -> Error Krb_err.princ_unknown
  | Some { key = None } -> Error Krb_err.bad_password
  | Some { key = Some key } ->
      if key <> derive_key password then Error Krb_err.bad_password
      else begin
        match srvtab t service with
        | None -> Error Krb_err.service_unknown
        | Some service_key ->
            let session_key = fresh_key t (principal ^ "@" ^ service) in
            let expires = t.clock () + lifetime_sec in
            let ticket_blob =
              Toycipher.encrypt ~key:service_key
                (frame [ principal; session_key; string_of_int expires ])
            in
            Ok { principal; session_key; ticket_blob; kdc = t }
      end

(* The nonce plays the role of the microsecond field of a real Kerberos
   authenticator: two requests in the same second must still differ, or
   the replay cache would reject the second. *)
let mk_req t creds =
  t.key_counter <- t.key_counter + 1;
  let authenticator =
    Toycipher.encrypt ~key:creds.session_key
      (frame
         [ creds.principal; string_of_int (t.clock ());
           string_of_int t.key_counter ])
  in
  frame [ creds.ticket_blob; authenticator ]

type server_ctx = {
  service_key : string;
  sclock : unit -> int;
  replay_cache : (string, unit) Hashtbl.t;
}

let server_ctx t ~service =
  match srvtab t service with
  | None -> Error Krb_err.service_unknown
  | Some service_key ->
      Ok { service_key; sclock = t.clock; replay_cache = Hashtbl.create 64 }

let rd_req ctx wire =
  match unframe wire with
  | Some [ ticket_blob; authenticator ] -> (
      match Toycipher.decrypt ~key:ctx.service_key ticket_blob with
      | Error `Bad_key -> Error Krb_err.bad_authenticator
      | Ok ticket -> (
          match unframe ticket with
          | Some [ principal; session_key; expires ] -> (
              let expires =
                Option.value (int_of_string_opt expires) ~default:0
              in
              let now = ctx.sclock () in
              if now > expires then Error Krb_err.ticket_expired
              else
                match Toycipher.decrypt ~key:session_key authenticator with
                | Error `Bad_key -> Error Krb_err.bad_authenticator
                | Ok auth -> (
                    match unframe auth with
                    | Some [ auth_principal; stamp; _nonce ] ->
                        let stamp =
                          Option.value (int_of_string_opt stamp) ~default:0
                        in
                        if auth_principal <> principal then
                          Error Krb_err.bad_authenticator
                        else if abs (now - stamp) > max_skew_sec then
                          Error Krb_err.skew
                        else if Hashtbl.mem ctx.replay_cache authenticator
                        then Error Krb_err.replay
                        else begin
                          Hashtbl.replace ctx.replay_cache authenticator ();
                          Ok principal
                        end
                    | _ -> Error Krb_err.bad_authenticator))
          | _ -> Error Krb_err.bad_authenticator))
  | _ -> Error Krb_err.bad_authenticator
