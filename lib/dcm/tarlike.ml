(* Archives reach tens of megabytes (every HESIOD map at full
   population), so the encoder pre-sizes the buffer and writes each
   field directly: an sprintf of the member would copy the contents an
   extra time and the doubling buffer a third. *)
let pack members =
  let size =
    List.fold_left
      (fun acc (name, contents) ->
        acc + String.length name + String.length contents + 24)
      0 members
  in
  let buf = Buffer.create (max 4096 size) in
  List.iter
    (fun (name, contents) ->
      Buffer.add_string buf (string_of_int (String.length name));
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int (String.length contents));
      Buffer.add_char buf '\n';
      Buffer.add_string buf name;
      Buffer.add_string buf contents)
    members;
  Buffer.contents buf

(* The Adler-32 of [pack members], streamed member by member: the
   multi-megabyte archive string is never allocated.  This is what lets
   a delta push skip the client-side full pack (the EXEC confirm only
   needs the checksum). *)
let checksum members =
  let st = Checksum.stream_start () in
  List.iter
    (fun (name, contents) ->
      Checksum.stream_feed st (string_of_int (String.length name));
      Checksum.stream_feed st " ";
      Checksum.stream_feed st (string_of_int (String.length contents));
      Checksum.stream_feed st "\n";
      Checksum.stream_feed st name;
      Checksum.stream_feed st contents)
    members;
  Checksum.stream_value st

(* Doc-member variants: the generators hand the DCM (name, Sink.doc)
   file sets, and everything short of the wire streams over the chunks.
   [pack_docs] materializes exactly once, into bytes sized exactly by
   [packed_size_docs] — a [Buffer] would copy the archive again on the
   way out. *)

let packed_size_docs members =
  List.fold_left
    (fun acc (name, doc) ->
      let nlen = String.length name and clen = Sink.length doc in
      acc
      + String.length (string_of_int nlen)
      + String.length (string_of_int clen)
      + 2 (* ' ' and '\n' *) + nlen + clen)
    0 members

let pack_docs members =
  let out = Bytes.create (packed_size_docs members) in
  let pos = ref 0 in
  let put s =
    Bytes.blit_string s 0 out !pos (String.length s);
    pos := !pos + String.length s
  in
  List.iter
    (fun (name, doc) ->
      put (string_of_int (String.length name));
      put " ";
      put (string_of_int (Sink.length doc));
      put "\n";
      put name;
      Sink.iter doc put)
    members;
  (* [out] is complete and never escapes as bytes *)
  Bytes.unsafe_to_string out

let checksum_docs members =
  let st = Checksum.stream_start () in
  List.iter
    (fun (name, doc) ->
      Checksum.stream_feed st (string_of_int (String.length name));
      Checksum.stream_feed st " ";
      Checksum.stream_feed st (string_of_int (Sink.length doc));
      Checksum.stream_feed st "\n";
      Checksum.stream_feed st name;
      (* absorb, don't feed: a member whose doc already carries a
         memoized checksum folds in via [Checksum.combine] in O(1), so
         re-checksumming an archive where one member changed costs one
         member scan, not the archive *)
      Checksum.stream_absorb_doc st doc)
    members;
  Checksum.stream_value st

(* The members as (name, offset, length) spans of their contents in
   [archive]: a consumer that slices the contents itself pays no copy
   here. *)
let spans archive =
  let n = String.length archive in
  let rec go pos acc =
    if pos >= n then Ok (List.rev acc)
    else
      match String.index_from_opt archive pos '\n' with
      | None -> Error "tar: truncated header"
      | Some nl -> (
          let header = String.sub archive pos (nl - pos) in
          match String.split_on_char ' ' header with
          | [ nlen; clen ] -> (
              match (int_of_string_opt nlen, int_of_string_opt clen) with
              | Some nlen, Some clen ->
                  if nlen < 0 || clen < 0 || nl + 1 + nlen + clen > n then
                    Error "tar: member overruns archive"
                  else
                    go (nl + 1 + nlen + clen)
                      ((String.sub archive (nl + 1) nlen, nl + 1 + nlen, clen)
                      :: acc)
              | _ -> Error "tar: bad header numbers")
          | _ -> Error "tar: bad header")
  in
  go 0 []

let unpack archive =
  Result.map
    (List.map (fun (name, off, len) -> (name, String.sub archive off len)))
    (spans archive)

let member archive name =
  match unpack archive with
  | Ok members -> List.assoc_opt name members
  | Error _ -> None
