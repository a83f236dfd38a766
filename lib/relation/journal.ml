type entry = {
  time : int;
  who : string;
  client : string;
  query : string;
  ctx : string;
  args : string list;
}

type t = {
  mutable entries : entry list; (* newest first *)
  mutable count : int;
  mutable hooks : (entry -> unit) list;
}

let create () = { entries = []; count = 0; hooks = [] }

let append t e =
  (* [who], [client] and [query] cycle through a handful of distinct
     values over thousands of entries — share them through the intern
     pool *)
  let e =
    {
      e with
      who = Intern.share e.who;
      client = Intern.share e.client;
      query = Intern.share e.query;
    }
  in
  t.entries <- e :: t.entries;
  t.count <- t.count + 1;
  List.iter (fun f -> f e) t.hooks

let on_append t f = t.hooks <- t.hooks @ [ f ]
let entries t = List.rev t.entries
let since t t0 = List.filter (fun e -> e.time >= t0) (entries t)
let length t = t.count
let head_seq t = t.count

let entries_from t ~seq =
  (* entries with 1-based sequence number > [seq], oldest first: the
     newest-first list holds seqs [count .. 1], so the wanted suffix is
     the first [count - seq] elements reversed *)
  let n = t.count - seq in
  if n <= 0 then []
  else begin
    let rec take acc k = function
      | e :: rest when k > 0 -> take (e :: acc) (k - 1) rest
      | _ -> acc
    in
    take [] n t.entries
  end

(* The trace context rides in column 5, between the query name and its
   arguments; "" = no context (e.g. entries written before tracing). *)
let encode_entry e =
  Backup.encode_row
    (string_of_int e.time :: e.who :: e.client :: e.query :: e.ctx :: e.args)

let decode_entry line =
  match Backup.decode_row line with
  | time :: who :: client :: query :: ctx :: args -> (
      match int_of_string_opt time with
      | Some time -> Ok { time; who; client; query; ctx; args }
      | None -> Error "bad timestamp")
  | _ -> Error "short line"
  | exception Failure msg -> Error msg

let to_lines t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun e ->
      Buffer.add_string buf (encode_entry e);
      Buffer.add_char buf '\n')
    (entries t);
  Buffer.contents buf

(* Warning telemetry for a torn tail lands in the global registry: the
   journal file is parsed during recovery, when no per-world registry is
   threaded this deep. *)
let c_torn = Obs.Counter.make Obs.default "journal.torn_tail"

let of_lines ?(strict = false) s =
  let t = create () in
  let torn = ref false in
  List.iteri
    (fun i line ->
      if (not !torn) && line <> "" then
        match decode_entry line with
        | Ok e -> append t e
        | Error reason ->
            if strict then failwith ("journal: " ^ reason)
            else begin
              (* a crash mid-append corrupts only the tail: keep the
                 well-formed prefix, warn, and drop the rest *)
              torn := true;
              Obs.Counter.incr c_torn;
              Obs.log Obs.default ~channel:"journal"
                ~attrs:
                  [
                    ("line", string_of_int (i + 1));
                    ("reason", reason);
                    ("kept", string_of_int t.count);
                  ]
                "torn tail truncated"
            end)
    (String.split_on_char '\n' s);
  t

let replay t ~since:t0 ~f =
  let es = since t t0 in
  List.iter f es;
  List.length es
