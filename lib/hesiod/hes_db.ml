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

(* Unboxed 8-byte loads, so the walk below allocates nothing while
   lines match. *)
external get64 : string -> int -> int64 = "%caml_string_get64"

(* The lines of [old] and [contents] that the other file lacks, as
   [(pos, len)] spans of whole lines in file order, adjacent changed
   lines merged into one span; [None] once the changed bytes of both
   sides exceed [limit].  A merge walk: matching bytes are skipped 8 at
   a time, and where two lines differ the one that sorts first at the
   first differing byte (a line end sorts before any byte) is changed
   and only its side advances, so two sorted files cost one compare
   plus their changed lines.  In any order the lines left unchanged
   are common to both files, in order; only the spans' size depends on
   the order.  Two lines tie only when one ends the file without its
   newline, and then both are changed. *)
let changed_lines old contents ~limit =
  let ol = String.length old and nl = String.length contents in
  let olds = ref [] and news = ref [] and changed = ref 0 in
  let take spans a b =
    changed := !changed + b - a;
    match !spans with
    | (p, e) :: rest when e = a -> spans := (p, b) :: rest
    | l -> spans := (a, b) :: l
  in
  let line_end s n i =
    match String.index_from_opt s i '\n' with Some e -> e + 1 | None -> n
  in
  (* the byte at [p] of a line, line ends (and the end of the file) as -1 *)
  let byte s n p = if p < n && s.[p] <> '\n' then Char.code s.[p] else -1 in
  let i = ref 0 and j = ref 0 in
  while (!i < ol || !j < nl) && !changed <= limit do
    if !i = ol then (take news !j nl; j := nl)
    else if !j = nl then (take olds !i ol; i := ol)
    else
      let n = min (ol - !i) (nl - !j) in
      let k = ref 0 in
      while !k + 8 <= n && (get64 old (!i + !k) : int64) = get64 contents (!j + !k) do
        k := !k + 8
      done;
      while !k < n && old.[!i + !k] = contents.[!j + !k] do
        incr k
      done;
      if !k = n && ol - !i = nl - !j then (i := ol; j := nl)
      else
        let a = byte old ol (!i + !k) and b = byte contents nl (!j + !k) in
        (* step over the whole lines that match *)
        let d =
          match String.rindex_from_opt old (!i + !k - 1) '\n' with
          | Some e when e >= !i -> e + 1 - !i
          | _ -> 0
        in
        i := !i + d;
        j := !j + d;
        if a <= b then (
          let e = line_end old ol !i in
          take olds !i e;
          i := e);
        if b <= a then (
          let e = line_end contents nl !j in
          take news !j e;
          j := e)
  done;
  let spans l = List.rev_map (fun (a, b) -> (a, b - a)) !l in
  if !changed > limit then None else Some (spans olds, spans news)

(* Only the changed lines are parsed: the old ones name the keys to
   drop, the new ones carry the records to add.  A key's records keep
   file order, so the splice holds only while no touched key has records
   in the unchanged lines; otherwise, or when the changed lines of both
   files outweigh the new file, the whole file is parsed - which is this
   same function from the empty file, one span and one fold. *)
let rec update ?parsed db ~old contents =
  if String.equal old contents then db
  else
    let full () = update ?parsed empty ~old:"" contents in
    match changed_lines old contents ~limit:(String.length contents) with
    | None -> full ()
    | Some (olds, news) ->
        (* each old changed key, with its record count in the spans *)
        let gone =
          List.fold_left
            (fun m (pos, len) ->
              fold_records ?parsed old ~pos ~len
                (fun m key _ ->
                  Smap.add key (1 + Option.value (Smap.find_opt key m) ~default:0) m)
                m)
            Smap.empty olds
        in
        if Smap.exists (fun key n -> List.length (lookup db key) <> n) gone then
          full ()
        else
          let kept = Smap.fold (fun key _ t -> Smap.remove key t) gone db in
          match
            List.fold_left
              (fun acc (pos, len) ->
                fold_records ?parsed contents ~pos ~len
                  (fun acc key r ->
                    match acc with
                    | Some t when not (Smap.mem key kept) -> Some (add t key r)
                    | _ -> None)
                  acc)
              (Some kept) news
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
