type table = {
  name : string;
  base : int;
  messages : string array;
}

(* The C implementation packs up to four characters of the table name into
   six-bit groups (index into [char_set] plus one) and shifts the result
   left by eight bits, reserving 256 codes per table. *)
let char_set =
  "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_"

let char_to_num c =
  match String.index_opt char_set c with
  | Some i -> i + 1
  | None -> 0

let num_to_char n =
  if n >= 1 && n <= String.length char_set then char_set.[n - 1] else '?'

let errcode_range = 8
let bits_per_char = 6

let base_of_name name =
  let n = min 4 (String.length name) in
  let rec pack acc i =
    if i >= n then acc
    else pack ((acc lsl bits_per_char) + char_to_num name.[i]) (i + 1)
  in
  pack 0 0 lsl errcode_range

let tables : (int, table) Hashtbl.t = Hashtbl.create 17

let create_table ~name messages =
  let base = base_of_name name in
  (match Hashtbl.find_opt tables base with
  | Some t when t.name <> name ->
      invalid_arg
        (Printf.sprintf "com_err: table %S collides with existing table %S"
           name t.name)
  | _ -> ());
  let t = { name; base; messages } in
  Hashtbl.replace tables base t;
  t

let base t = t.base
let size t = Array.length t.messages

let code t i =
  if i < 0 || i >= Array.length t.messages then
    invalid_arg
      (Printf.sprintf "com_err: code index %d out of range for table %S" i
         t.name)
  else t.base + i

let error_table_name c =
  let packed = c asr errcode_range in
  let rec unpack acc packed =
    if packed = 0 then acc
    else
      unpack
        (String.make 1 (num_to_char (packed land 0x3f)) ^ acc)
        (packed asr bits_per_char)
  in
  unpack "" packed

let error_message c =
  if c = 0 then "Success"
  else
    let b = c land lnot ((1 lsl errcode_range) - 1) in
    let offset = c land ((1 lsl errcode_range) - 1) in
    match Hashtbl.find_opt tables b with
    | Some t when offset < Array.length t.messages -> t.messages.(offset)
    | Some t ->
        Printf.sprintf "Unknown code %s %d" t.name offset
    | None ->
        if b = 0 then Printf.sprintf "Unknown error %d" c
        else Printf.sprintf "Unknown code %s %d" (error_table_name c) offset

let hook : (whoami:string -> int -> string -> unit) option ref = ref None

let com_err ~whoami code msg =
  match !hook with
  | Some f -> f ~whoami code msg
  | None ->
      if code = 0 then Printf.eprintf "%s: %s\n%!" whoami msg
      else Printf.eprintf "%s: %s %s\n%!" whoami (error_message code) msg

let set_com_err_hook f = hook := Some f
let reset_com_err_hook () = hook := None
