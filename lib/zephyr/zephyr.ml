type notice = {
  sender : string;
  cls : string;
  instance : string;
  message : string;
  time : int;
}

type t = {
  host : Netsim.Host.t;
  engine : Sim.Engine.t;
  acl_dir : string option;
  acls : (string, string list) Hashtbl.t; (* class -> allowed senders *)
  subscribers : (string, (notice -> unit) list) Hashtbl.t;
  mutable log : notice list; (* newest first *)
}

let reload_acls t =
  Hashtbl.reset t.acls;
  match t.acl_dir with
  | None -> ()
  | Some dir ->
      let fs = Netsim.Host.fs t.host in
      let prefix = dir ^ "/" in
      List.iter
        (fun path ->
          if
            String.length path > String.length prefix
            && String.sub path 0 (String.length prefix) = prefix
            && Filename.check_suffix path ".acl"
          then begin
            let cls = Filename.chop_suffix (Filename.basename path) ".acl" in
            let members =
              match Netsim.Vfs.read fs ~path with
              | Some contents ->
                  String.split_on_char '\n' contents
                  |> List.map String.trim
                  |> List.filter (fun l -> l <> "")
              | None -> []
            in
            Hashtbl.replace t.acls cls members
          end)
        (Netsim.Vfs.list fs)

let authorized t ~sender ~cls =
  match Hashtbl.find_opt t.acls cls with
  | None -> true (* no ACL file: unrestricted class *)
  | Some members ->
      List.exists (fun m -> m = "*.*@*" || m = sender) members

let transmit t ~sender ~cls ~instance message =
  if not (authorized t ~sender ~cls) then Error `Not_authorized
  else begin
    let notice =
      { sender; cls; instance; message; time = Sim.Engine.now t.engine }
    in
    t.log <- notice :: t.log;
    List.iter
      (fun f -> f notice)
      (Option.value (Hashtbl.find_opt t.subscribers cls) ~default:[]);
    Ok ()
  end

let subscribe t ~cls f =
  let existing = Option.value (Hashtbl.find_opt t.subscribers cls) ~default:[] in
  Hashtbl.replace t.subscribers cls (existing @ [ f ])

let notices t = List.rev t.log
let notices_for t ~cls = List.filter (fun n -> n.cls = cls) (notices t)
let acl_classes t =
  Hashtbl.fold (fun c _ acc -> c :: acc) t.acls [] |> List.sort String.compare

(* Wire format: "SEND sender cls instance message..." with the first
   three fields space-separated and the rest the message body. *)
let start ?acl_dir host engine =
  let t =
    {
      host;
      engine;
      acl_dir;
      acls = Hashtbl.create 17;
      subscribers = Hashtbl.create 17;
      log = [];
    }
  in
  reload_acls t;
  Netsim.Host.serve host ~service:"zephyr" (fun ~src:_ payload ->
      match String.split_on_char ' ' payload with
      | "SEND" :: sender :: cls :: instance :: rest -> (
          let message = String.concat " " rest in
          match transmit t ~sender ~cls ~instance message with
          | Ok () -> "OK"
          | Error `Not_authorized -> "NOAUTH")
      | _ -> "BADREQ");
  Netsim.Host.on_boot host (fun _ -> reload_acls t);
  t

let send net ~src ~server ~sender ~cls ~instance message =
  let payload =
    Printf.sprintf "SEND %s %s %s %s" sender cls instance message
  in
  match Netsim.Net.call net ~src ~dst:server ~service:"zephyr" payload with
  | Ok "OK" -> Ok ()
  | Ok _ -> Error `Not_authorized
  | Error f -> Error (`Net f)
