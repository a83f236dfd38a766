type delivery =
  | Local of string * string
  | External of string
  | Bounced of string

type t = {
  net : Netsim.Net.t;
  host : Netsim.Host.t;
  aliases_path : string;
  po_of_short : string -> string option;
  mutable deliveries : delivery list; (* newest first *)
}

(* Parse the sendmail aliases format: "name: member, member, ..." with
   comment lines starting with '#'. *)
let parse_aliases contents =
  let table = Hashtbl.create 256 in
  List.iter
    (fun line ->
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then
        match String.index_opt line ':' with
        | Some i ->
            let name = String.trim (String.sub line 0 i) in
            let members =
              String.sub line (i + 1) (String.length line - i - 1)
              |> String.split_on_char ','
              |> List.map String.trim
              |> List.filter (fun m -> m <> "")
            in
            Hashtbl.replace table name members
        | None -> ())
    (String.split_on_char '\n' contents);
  table

let read_aliases t =
  match Netsim.Vfs.read (Netsim.Host.fs t.host) ~path:t.aliases_path with
  | Some contents -> parse_aliases contents
  | None -> Hashtbl.create 1

let suffix_local = ".LOCAL"

(* A pobox target looks like "user@ATHENA-PO-2.LOCAL". *)
let pobox_target addr =
  match String.index_opt addr '@' with
  | None -> None
  | Some i ->
      let user = String.sub addr 0 i in
      let domain = String.sub addr (i + 1) (String.length addr - i - 1) in
      if Filename.check_suffix domain suffix_local then
        Some (user, Filename.chop_suffix domain suffix_local)
      else None

let route t ~sender ~rcpt ~body =
  let aliases = read_aliases t in
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let deliver d = out := d :: !out in
  let rec expand addr =
    if not (Hashtbl.mem seen addr) then begin
      Hashtbl.replace seen addr ();
      match pobox_target addr with
      | Some (user, short) -> (
          match t.po_of_short short with
          | Some po_machine -> (
              let payload =
                Printf.sprintf "%s\n%s\n%s" sender user body
              in
              match
                Netsim.Net.call t.net
                  ~src:(Netsim.Host.name t.host)
                  ~dst:po_machine ~service:"pop-deliver" payload
              with
              | Ok "OK" -> deliver (Local (po_machine, user))
              | Ok _ | Error _ -> deliver (Bounced addr))
          | None -> deliver (Bounced addr))
      | None ->
          if String.contains addr '@' then deliver (External addr)
          else begin
            match Hashtbl.find_opt aliases addr with
            | Some members -> List.iter expand members
            | None -> deliver (Bounced addr)
          end
    end
  in
  expand rcpt;
  let result = List.rev !out in
  t.deliveries <- !out @ t.deliveries;
  result

let log t = List.rev t.deliveries

let start ~aliases_path ~po_of_short net host =
  let t = { net; host; aliases_path; po_of_short; deliveries = [] } in
  Netsim.Host.serve host ~service:"smtp" (fun ~src:_ payload ->
      match String.split_on_char '\n' payload with
      | sender :: rcpt :: body_lines ->
          let ds =
            route t ~sender ~rcpt ~body:(String.concat "\n" body_lines)
          in
          let delivered =
            List.length
              (List.filter
                 (function Local _ | External _ -> true | Bounced _ -> false)
                 ds)
          in
          string_of_int delivered
      | _ -> "0");
  t

let send net ~src ~hub ~sender ~rcpt ~body =
  let payload = Printf.sprintf "%s\n%s\n%s" sender rcpt body in
  match Netsim.Net.call net ~src ~dst:hub ~service:"smtp" payload with
  | Ok n -> Ok (Option.value (int_of_string_opt n) ~default:0)
  | Error f -> Error f
