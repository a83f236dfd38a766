type record =
  | Unspeca of string
  | Cname of string

module Smap = Map.Make (String)

type t = record list Smap.t

let empty = Smap.empty

(* Split a line into whitespace-separated words, keeping a trailing
   quoted string intact. *)
let parse_line line =
  let line = String.trim line in
  if line = "" || line.[0] = ';' then None
  else
    match String.index_opt line '"' with
    | Some q ->
        (* name HS UNSPECA "data..." *)
        let head = String.sub line 0 q in
        let rest = String.sub line q (String.length line - q) in
        let data =
          let r = String.trim rest in
          if String.length r >= 2 && r.[0] = '"' && r.[String.length r - 1] = '"'
          then String.sub r 1 (String.length r - 2)
          else r
        in
        (match
           String.split_on_char ' ' head
           |> List.concat_map (String.split_on_char '\t')
           |> List.filter (fun w -> w <> "")
         with
        | [ name; "HS"; "UNSPECA" ] -> Some (name, Unspeca data)
        | _ -> None)
    | None -> (
        match
          String.split_on_char ' ' line
          |> List.concat_map (String.split_on_char '\t')
          |> List.filter (fun w -> w <> "")
        with
        | [ name; "HS"; "CNAME"; target ] -> Some (name, Cname target)
        | [ name; "HS"; "UNSPECA"; data ] -> Some (name, Unspeca data)
        | _ -> None)

let lookup t key = Option.value (Smap.find_opt key t) ~default:[]

(* Fold [f] over the records of [s]'s bytes [pos, pos + len), in file
   order. *)
let fold_records ?parsed s ~pos ~len f init =
  Option.iter (fun n -> n := !n + len) parsed;
  let range = if pos = 0 && len = String.length s then s else String.sub s pos len in
  List.fold_left
    (fun acc line ->
      match parse_line line with Some (key, r) -> f acc key r | None -> acc)
    init
    (String.split_on_char '\n' range)

let add t key r = Smap.add key (lookup t key @ [ r ]) t

(* Unboxed 8-byte loads, so the scans below allocate nothing. *)
external get64 : string -> int -> int64 = "%caml_string_get64"

let common_prefix a b =
  let n = min (String.length a) (String.length b) in
  let i = ref 0 in
  while !i + 8 <= n && (get64 a !i : int64) = get64 b !i do
    i := !i + 8
  done;
  while !i < n && a.[!i] = b.[!i] do
    incr i
  done;
  !i

(* The longest common suffix of [a] and [b], at most [limit] bytes. *)
let common_suffix a b ~limit =
  let la = String.length a and lb = String.length b in
  let i = ref 0 in
  while
    !i + 8 <= limit && (get64 a (la - !i - 8) : int64) = get64 b (lb - !i - 8)
  do
    i := !i + 8
  done;
  while !i < limit && a.[la - !i - 1] = b.[lb - !i - 1] do
    incr i
  done;
  !i

let starts_line s i = i = 0 || s.[i - 1] = '\n'

(* [old] and [contents] split into a common prefix and suffix, both on
   line boundaries, around one changed range each.  Only the changed
   lines are parsed: the old ones name the keys to drop, the new ones
   carry the records to add.  A key's records keep file order, so the
   splice holds only while no touched key has records outside the
   changed range; otherwise, or when the changed ranges together
   outweigh the new file (edits spread across it), the whole file is
   parsed - which is this same function from the empty file. *)
let rec update ?parsed db ~old contents =
  if String.equal old contents then db
  else
    let ol = String.length old and nl = String.length contents in
    let p =
      let i = common_prefix old contents in
      match String.rindex_from_opt old (i - 1) '\n' with
      | Some j -> j + 1
      | None -> 0
    in
    let q =
      let q0 = ol - common_suffix old contents ~limit:(min ol nl - p) in
      if starts_line old q0 && starts_line contents (q0 + nl - ol) then q0
      else
        match String.index_from_opt old q0 '\n' with
        | Some j -> j + 1
        | None -> ol
    in
    let old_len = q - p and new_len = q + nl - ol - p in
    let full () = update ?parsed empty ~old:"" contents in
    if old_len + new_len > nl then full ()
    else
      (* each old changed key, with its record count in the range *)
      let gone =
        fold_records ?parsed old ~pos:p ~len:old_len
          (fun m key _ ->
            Smap.add key (1 + Option.value (Smap.find_opt key m) ~default:0) m)
          Smap.empty
      in
      if Smap.exists (fun key n -> List.length (lookup db key) <> n) gone then
        full ()
      else
        let kept = Smap.fold (fun key _ t -> Smap.remove key t) gone db in
        match
          fold_records ?parsed contents ~pos:p ~len:new_len
            (fun acc key r ->
              match acc with
              | Some t when not (Smap.mem key kept) -> Some (add t key r)
              | _ -> None)
            (Some kept)
        with
        | Some t -> t
        | None -> full ()

let parse contents = update empty ~old:"" contents

(* Lookup across a stack of per-file databases, in file order: each file
   stays its own map, so a reload touches only the files that changed. *)
let lookup_stacked dbs key = List.concat_map (fun t -> lookup t key) dbs

let resolve_stacked dbs ~name ~ty =
  let rec go key depth =
    if depth > 8 then []
    else
      List.concat_map
        (function
          | Unspeca data -> [ data ]
          | Cname target -> go target (depth + 1))
        (lookup_stacked dbs key)
  in
  go (name ^ "." ^ ty) 0

let resolve t ~name ~ty = resolve_stacked [ t ] ~name ~ty

let format_unspeca ~key data = Printf.sprintf "%s HS UNSPECA \"%s\"" key data
let format_cname ~key target = Printf.sprintf "%s HS CNAME %s" key target
let size t = Smap.cardinal t
