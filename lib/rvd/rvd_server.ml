type t = {
  host : Netsim.Host.t;
  mutable packs : (string * string) list;
  mutable spun : (string * string) list; (* newest first *)
}

let db_path = "/etc/rvddb"

let format_db pairs =
  String.concat ""
    (List.map (fun (pack, mode) -> Printf.sprintf "%s %s\n" pack mode) pairs)

let parse_db contents =
  String.split_on_char '\n' contents
  |> List.filter_map (fun line ->
         match
           String.split_on_char ' ' (String.trim line)
           |> List.filter (fun s -> s <> "")
         with
         | [ pack; mode ] -> Some (pack, mode)
         | _ -> None)

let reload t =
  t.packs <-
    (match Netsim.Vfs.read (Netsim.Host.fs t.host) ~path:db_path with
    | Some contents -> parse_db contents
    | None -> [])

let packs t = List.sort compare t.packs

type spinup_error =
  | No_such_pack
  | Access_denied
  | Unreachable of Netsim.Net.failure

let spinup_local t ~pack ~mode =
  match List.assoc_opt pack t.packs with
  | None -> Error No_such_pack
  | Some exported_mode ->
      if mode = "w" && exported_mode <> "w" then Error Access_denied
      else begin
        t.spun <- (pack, mode) :: t.spun;
        Ok ()
      end

let spunup t = List.rev t.spun

let start host =
  let t = { host; packs = []; spun = [] } in
  reload t;
  Netsim.Host.serve host ~service:"rvd" (fun ~src:_ payload ->
      match
        String.split_on_char ' ' payload |> List.filter (fun s -> s <> "")
      with
      | [ "SPINUP"; pack; mode ] -> (
          match spinup_local t ~pack ~mode with
          | Ok () -> "OK"
          | Error No_such_pack -> "NOPACK"
          | Error Access_denied -> "DENIED"
          | Error (Unreachable _) -> "ERR")
      | _ -> "BADREQ");
  Netsim.Host.on_boot host (fun _ ->
      (* spun-up state is volatile; the pack db is re-read from disk *)
      t.spun <- [];
      reload t);
  t

let spinup net ~src ~server ~pack ~mode =
  match
    Netsim.Net.call net ~src ~dst:server ~service:"rvd"
      (Printf.sprintf "SPINUP %s %s" pack mode)
  with
  | Ok "OK" -> Ok ()
  | Ok "NOPACK" -> Error No_such_pack
  | Ok "DENIED" -> Error Access_denied
  | Ok _ -> Error No_such_pack
  | Error f -> Error (Unreachable f)
