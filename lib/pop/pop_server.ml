type message = {
  sender : string;
  rcpt : string;
  body : string;
}

type t = {
  host : Netsim.Host.t;
  boxes : (string, message list) Hashtbl.t; (* user -> newest first *)
}

let deliver_local t ~sender ~rcpt body =
  let existing = Option.value (Hashtbl.find_opt t.boxes rcpt) ~default:[] in
  Hashtbl.replace t.boxes rcpt ({ sender; rcpt; body } :: existing)

let mailbox t ~user =
  List.rev (Option.value (Hashtbl.find_opt t.boxes user) ~default:[])

(* wire formats: deliveries are "sender\nrcpt\nbody..."; retrievals are
   the bare user name, answered with newline-joined "sender\tbody"
   lines. *)
let start host =
  let t = { host; boxes = Hashtbl.create 64 } in
  Netsim.Host.serve host ~service:"pop-deliver" (fun ~src:_ payload ->
      match String.index_opt payload '\n' with
      | None -> "ERR"
      | Some i -> (
          let sender = String.sub payload 0 i in
          let rest =
            String.sub payload (i + 1) (String.length payload - i - 1)
          in
          match String.index_opt rest '\n' with
          | None -> "ERR"
          | Some j ->
              let rcpt = String.sub rest 0 j in
              let body =
                String.sub rest (j + 1) (String.length rest - j - 1)
              in
              deliver_local t ~sender ~rcpt body;
              "OK"));
  Netsim.Host.serve host ~service:"pop" (fun ~src:_ user ->
      let msgs = mailbox t ~user in
      Hashtbl.remove t.boxes user;
      String.concat "\n"
        (List.map (fun m -> m.sender ^ "\t" ^ m.body) msgs));
  Netsim.Host.on_boot host (fun _ -> Hashtbl.reset t.boxes);
  t

let retrieve net ~src ~server ~user =
  match Netsim.Net.call net ~src ~dst:server ~service:"pop" user with
  | Error f -> Error f
  | Ok "" -> Ok []
  | Ok reply ->
      Ok
        (String.split_on_char '\n' reply
        |> List.filter_map (fun line ->
               match String.index_opt line '\t' with
               | Some i ->
                   Some
                     {
                       sender = String.sub line 0 i;
                       rcpt = user;
                       body =
                         String.sub line (i + 1)
                           (String.length line - i - 1);
                     }
               | None -> None))
