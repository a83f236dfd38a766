type backend_cost =
  | Per_server of int
  | Per_connection of int

type 'st conn_info = {
  conn_id : int;
  peer : string;
  connect_time : int;
  state : 'st;
}

(* A live connection and [served] at its last use. *)
type 'st slot = { info : 'st conn_info; mutable last_use : int }

type 'st t = {
  net : Netsim.Net.t;
  conns : (int, 'st slot) Hashtbl.t;
  mutable next_conn : int;
  mutable served : int;
  max_connections : int;
  backend : backend_cost;
  init : peer:string -> 'st;
  handler : 'st conn_info -> Wire.request -> int * string list list;
}

let reply code tuples =
  Wire.encode_reply
    { Wire.rversion = Wire.protocol_version; code; tuples }

(* What one peer may hold: a quarter of the table, so a host that opens
   connections and never closes them (or loses the replies) cannot
   lock every other client out.  A table of fewer than four slots has
   no per-peer bound. *)
let peer_quota t = t.max_connections / 4

(* Close [src]'s least recently used connection if it holds its quota:
   the one with the lowest [served] count at its last use, the older of
   two tied. *)
let evict_for t src =
  let held =
    Hashtbl.fold
      (fun id s acc ->
        if s.info.peer = src then (s.last_use, id) :: acc else acc)
      t.conns []
  in
  if peer_quota t > 0 && List.length held >= peer_quota t then
    match List.sort compare held with
    | (_, lru) :: _ -> Hashtbl.remove t.conns lru
    | [] -> ()

let handle t ~src payload =
  match Wire.decode_request payload with
  | Error _ -> reply Gdb_err.bad_frame []
  | Ok req ->
      if req.Wire.version <> Wire.protocol_version then
        reply Gdb_err.version_skew []
      else if req.Wire.op = Wire.op_open then begin
        evict_for t src;
        if Hashtbl.length t.conns >= t.max_connections then
          reply Gdb_err.too_many_connections []
        else begin
          (match t.backend with
          | Per_connection ms -> Sim.Engine.advance (Netsim.Net.engine t.net) ms
          | Per_server _ -> ());
          let conn_id = t.next_conn in
          t.next_conn <- conn_id + 1;
          let info =
            {
              conn_id;
              peer = src;
              connect_time = Sim.Engine.now (Netsim.Net.engine t.net);
              state = t.init ~peer:src;
            }
          in
          Hashtbl.replace t.conns conn_id { info; last_use = t.served };
          reply 0 [ [ string_of_int conn_id ] ]
        end
      end
      else begin
        (* a connection belongs to the host that opened it: a frame
           naming it from any other host finds no connection *)
        match Hashtbl.find_opt t.conns req.Wire.conn with
        | Some slot when slot.info.peer = src ->
            if req.Wire.op = Wire.op_close then begin
              Hashtbl.remove t.conns req.Wire.conn;
              reply 0 []
            end
            else begin
              t.served <- t.served + 1;
              slot.last_use <- t.served;
              let code, tuples = t.handler slot.info req in
              reply code tuples
            end
        | Some _ | None -> reply Gdb_err.no_connection []
      end

let create ?(max_connections = 64) ?(backend = Per_server 0) ~net ~host
    ~service ~init ~handler () =
  let t =
    {
      net;
      conns = Hashtbl.create 32;
      next_conn = 1;
      served = 0;
      max_connections;
      backend;
      init;
      handler;
    }
  in
  (match backend with
  | Per_server ms -> Sim.Engine.advance (Netsim.Net.engine net) ms
  | Per_connection _ -> ());
  Netsim.Host.serve host ~service (fun ~src payload ->
      handle t ~src payload);
  t

let connections t =
  Hashtbl.fold (fun _ s acc -> s.info :: acc) t.conns []
  |> List.sort (fun a b -> Int.compare a.conn_id b.conn_id)

let connection_count t = Hashtbl.length t.conns
let requests_served t = t.served
