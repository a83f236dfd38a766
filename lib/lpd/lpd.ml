type entry = {
  name : string;
  rp : string;
  rm : string;
  sd : string;
}

(* "linus:rp=linus:rm=BLANKET.MIT.EDU:sd=/usr/spool/printer/linus" *)
let parse_printcap data =
  match String.split_on_char ':' data with
  | name :: caps ->
      let find key =
        List.find_map
          (fun cap ->
            let prefix = key ^ "=" in
            if
              String.length cap > String.length prefix
              && String.sub cap 0 (String.length prefix) = prefix
            then
              Some
                (String.sub cap (String.length prefix)
                   (String.length cap - String.length prefix))
            else None)
          caps
      in
      (match (find "rp", find "rm", find "sd") with
      | Some rp, Some rm, Some sd -> Some { name; rp; rm; sd }
      | _ -> None)
  | [] -> None

type t = {
  host : Netsim.Host.t;
  queues : (string, (string * string) list) Hashtbl.t; (* rp -> newest first *)
  mutable seq : int;
}

let jobs t ~rp =
  List.rev (Option.value (Hashtbl.find_opt t.queues rp) ~default:[])

(* wire: "PRINT rp sd user\nbody..." / "QUEUE rp" *)
let start host =
  let t = { host; queues = Hashtbl.create 7; seq = 0 } in
  Netsim.Host.serve host ~service:"lpd" (fun ~src:_ payload ->
      match String.index_opt payload '\n' with
      | Some i -> (
          let header = String.sub payload 0 i in
          let body =
            String.sub payload (i + 1) (String.length payload - i - 1)
          in
          match
            String.split_on_char ' ' header
            |> List.filter (fun s -> s <> "")
          with
          | [ "PRINT"; rp; sd; user ] ->
              t.seq <- t.seq + 1;
              let existing =
                Option.value (Hashtbl.find_opt t.queues rp) ~default:[]
              in
              Hashtbl.replace t.queues rp ((user, body) :: existing);
              (* the job also lands in the spool directory on disk *)
              let fs = Netsim.Host.fs host in
              Netsim.Vfs.write fs
                ~path:(Printf.sprintf "%s/cf%03d.%s" sd t.seq user)
                body;
              Netsim.Vfs.flush fs;
              "OK"
          | _ -> "ERR")
      | None -> (
          match
            String.split_on_char ' ' payload
            |> List.filter (fun s -> s <> "")
          with
          | [ "QUEUE"; rp ] ->
              String.concat "\n"
                (List.map
                   (fun (user, body) ->
                     let first_line =
                       match String.index_opt body '\n' with
                       | Some i -> String.sub body 0 i
                       | None -> body
                     in
                     user ^ ": " ^ first_line)
                   (jobs t ~rp))
          | _ -> "ERR"));
  t

type error =
  | No_such_printer
  | Bad_entry of string
  | Spooler_unreachable of Netsim.Net.failure

let error_to_string = function
  | No_such_printer -> "no such printer in hesiod"
  | Bad_entry s -> Printf.sprintf "unparseable printcap entry %S" s
  | Spooler_unreachable f -> Netsim.Net.failure_to_string f

let resolve_printer net ~hesiod ~src ~printer =
  match
    Hesiod.Hes_server.resolve net ~src ~server:hesiod ~name:printer
      ~ty:"pcap"
  with
  | Error f -> Error (Spooler_unreachable f)
  | Ok [] -> Error No_such_printer
  | Ok (data :: _) -> (
      match parse_printcap data with
      | Some e -> Ok e
      | None -> Error (Bad_entry data))

let lpr net ~hesiod ~src ~printer ~user ~body =
  match resolve_printer net ~hesiod ~src ~printer with
  | Error e -> Error e
  | Ok entry -> (
      let payload =
        Printf.sprintf "PRINT %s %s %s\n%s" entry.rp entry.sd user body
      in
      match Netsim.Net.call net ~src ~dst:entry.rm ~service:"lpd" payload with
      | Ok "OK" -> Ok entry
      | Ok other -> Error (Bad_entry other)
      | Error f -> Error (Spooler_unreachable f))

let lpq net ~hesiod ~src ~printer =
  match resolve_printer net ~hesiod ~src ~printer with
  | Error e -> Error e
  | Ok entry -> (
      match
        Netsim.Net.call net ~src ~dst:entry.rm ~service:"lpd"
          ("QUEUE " ^ entry.rp)
      with
      | Ok "" -> Ok []
      | Ok reply -> Ok (String.split_on_char '\n' reply)
      | Error f -> Error (Spooler_unreachable f))
