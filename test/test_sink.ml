(* The streaming document layer behind generator output: chunked docs
   must be byte-indistinguishable from the whole-string path they
   replaced, for every consumer — packer, checksummer, patch trims. *)

(* Build the same bytes two ways: one single-chunk doc, and one
   many-chunk doc assembled by sharing each piece's chunk (concat copies
   nothing, so every piece boundary becomes a chunk boundary).  All the
   chunk-walking code paths get exercised by the second form. *)
let chunky pieces = Dcm.Sink.concat (List.map Dcm.Sink.of_string pieces)

let gen_pieces =
  QCheck.(list_of_size (Gen.int_range 0 12) (string_of_size (Gen.int_range 0 9)))

let prop_doc_matches_string =
  QCheck.Test.make ~name:"sink: chunked doc behaves as the flat string"
    ~count:300 gen_pieces (fun pieces ->
      let s = String.concat "" pieces in
      let d = chunky pieces in
      Dcm.Sink.length d = String.length s
      && Dcm.Sink.to_string d = s
      && Dcm.Sink.equal d (Dcm.Sink.of_string s)
      && (s = ""
         || Dcm.Sink.get d (String.length s - 1) = s.[String.length s - 1])
      && Dcm.Sink.sub d 0 (String.length s) = s
      && (String.length s < 2
         || Dcm.Sink.sub d 1 (String.length s - 2)
            = String.sub s 1 (String.length s - 2)))

(* Two piece lists over one pool of strings, so the docs built from
   them share heap chunks, as a spliced doc shares the unchanged chunks
   of its base.  [b] is either more picks from the pool, or [a]'s bytes
   cut again at other places (so long equal runs meet at every
   alignment) with one byte perhaps changed, or [a]'s own chunks behind
   a copy of its first chunk's head or ahead of a copy of its last
   chunk's tail (so one shared chunk is met at two different offsets).
   Pieces run past 8 bytes so the word-wise compares run. *)
let gen_shared_pieces =
  QCheck.Gen.(
    let piece n = string_size ~gen:(char_range 'a' 'd') (int_range 0 n) in
    list_size (int_range 1 6) (piece 40) >>= fun pool ->
    let pool = Array.of_list pool in
    let pick =
      frequency
        [ (3, map (fun i -> pool.(i)) (int_bound (Array.length pool - 1))); (1, piece 20) ]
    in
    list_size (int_range 1 8) pick >>= fun pa ->
    let a = String.concat "" pa in
    let recut =
      list_size (int_range 0 6) (int_bound (String.length a)) >>= fun cuts ->
      int_bound (String.length a) >>= fun at ->
      bool >|= fun edit ->
      let a = if edit && a <> "" then String.mapi (fun i c -> if i = at mod String.length a then 'z' else c) a else a in
      let cuts = List.sort_uniq compare (0 :: String.length a :: cuts) in
      let rec pieces = function
        | x :: (y :: _ as rest) -> String.sub a x (y - x) :: pieces rest
        | _ -> []
      in
      pieces cuts
    in
    let first = List.hd pa and last = List.nth pa (List.length pa - 1) in
    let shifted =
      int_bound (String.length first) >>= fun k ->
      int_bound (String.length last) >|= fun j ->
      [ String.sub first 0 k ]
      @ pa
      @ [ String.sub last (String.length last - j) j ]
    in
    frequency
      [ (2, list_size (int_range 0 8) pick); (2, recut); (1, shifted) ]
    >|= fun pb -> (pa, pb))

let prop_prefix_suffix =
  QCheck.Test.make ~name:"sink: common prefix/suffix match naive string scan"
    ~count:600
    (QCheck.make
       ~print:QCheck.Print.(pair (list string) (list string))
       QCheck.Gen.(
         oneof [ pair (QCheck.gen gen_pieces) (QCheck.gen gen_pieces); gen_shared_pieces ]))
    (fun (pa, pb) ->
      let a = String.concat "" pa and b = String.concat "" pb in
      let da = chunky pa and db = chunky pb in
      let naive_prefix =
        let n = min (String.length a) (String.length b) in
        let i = ref 0 in
        while !i < n && a.[!i] = b.[!i] do incr i done;
        !i
      in
      let p = Dcm.Sink.common_prefix da db in
      let limit = min (String.length a) (String.length b) - p in
      let naive_suffix =
        let i = ref 0 in
        while
          !i < limit
          && a.[String.length a - 1 - !i] = b.[String.length b - 1 - !i]
        do incr i done;
        !i
      in
      p = naive_prefix
      && Dcm.Sink.common_suffix ~limit da db = naive_suffix
      && Dcm.Sink.equal da db = (a = b))

let prop_writer_matches_buffer =
  QCheck.Test.make ~name:"sink: writer output equals Buffer reference"
    ~count:200 gen_pieces (fun pieces ->
      let w = Dcm.Sink.create ~hint:8 () in
      List.iteri
        (fun i s ->
          (* alternate the writer's entry points *)
          if i mod 3 = 2 then Dcm.Sink.add_doc w (Dcm.Sink.of_string s)
          else Dcm.Sink.add_string w s;
          if i mod 2 = 0 then Dcm.Sink.add_char w ',')
        pieces;
      let reference =
        String.concat ""
          (List.mapi
             (fun i s -> if i mod 2 = 0 then s ^ "," else s)
             pieces)
      in
      Dcm.Sink.written w = String.length reference
      && Dcm.Sink.to_string (Dcm.Sink.contents w) = reference)

let test_writer_chunk_rollover () =
  (* push well past one 256 KB chunk so the flush path runs; bytes must
     come back exactly, across the chunk seams *)
  let piece = String.init 4096 (fun i -> Char.chr (33 + (i mod 90))) in
  let w = Dcm.Sink.create () in
  for _ = 1 to 80 do
    Dcm.Sink.add_string w piece
  done;
  let d = Dcm.Sink.contents w in
  Alcotest.(check int) "length" (80 * 4096) (Dcm.Sink.length d);
  let b = Buffer.create (80 * 4096) in
  for _ = 1 to 80 do
    Buffer.add_string b piece
  done;
  Alcotest.(check bool) "bytes identical across chunk seams" true
    (Dcm.Sink.to_string d = Buffer.contents b);
  Alcotest.(check bool) "doc-level compare agrees" true
    (Dcm.Sink.equal d (Dcm.Sink.of_string (Buffer.contents b)))

(* --- the archive/checksum consumers: streamed docs vs materialized
       strings must produce identical artifacts --- *)

let prop_pack_docs_identical =
  QCheck.Test.make
    ~name:"tarlike: pack_docs/checksum_docs equal the string path"
    ~count:150
    QCheck.(
      list_of_size (Gen.int_range 0 5)
        (pair (string_of_size (Gen.int_range 1 12)) gen_pieces))
    (fun members ->
      let docs = List.map (fun (n, pieces) -> (n, chunky pieces)) members in
      let strings =
        List.map (fun (n, pieces) -> (n, String.concat "" pieces)) members
      in
      let packed = Dcm.Tarlike.pack strings in
      Dcm.Tarlike.pack_docs docs = packed
      && Dcm.Tarlike.packed_size_docs docs = String.length packed
      && Dcm.Tarlike.checksum_docs docs = Dcm.Tarlike.checksum strings
      && Dcm.Tarlike.unpack (Dcm.Tarlike.pack_docs docs) = Ok strings)

let prop_checksum_stream_doc =
  QCheck.Test.make ~name:"checksum: adler32_doc equals adler32 of the bytes"
    ~count:200 gen_pieces (fun pieces ->
      Dcm.Checksum.adler32_doc (chunky pieces)
      = Dcm.Checksum.adler32 (String.concat "" pieces))

(* --- end to end: a campus's generated archives are identical whether
       the members travel as docs or as materialized strings --- *)

let test_generator_outputs_byte_identical () =
  let tb = Workload.Testbed.create () in
  Sim.Engine.advance tb.Workload.Testbed.engine (7 * 3600 * 1000);
  ignore (Dcm.Manager.run tb.Workload.Testbed.dcm);
  List.iter
    (fun service ->
      match
        Dcm.Manager.last_output tb.Workload.Testbed.dcm ~service
      with
      | None -> Alcotest.failf "%s produced no output" service
      | Some out ->
          let check_files files =
            let strings =
              List.map (fun (n, d) -> (n, Dcm.Sink.to_string d)) files
            in
            Alcotest.(check string)
              (service ^ " archive identical")
              (Dcm.Tarlike.pack strings)
              (Dcm.Tarlike.pack_docs files);
            Alcotest.(check string)
              (service ^ " archive checksum identical")
              (Dcm.Checksum.to_hex (Dcm.Tarlike.checksum strings))
              (Dcm.Checksum.to_hex (Dcm.Tarlike.checksum_docs files))
          in
          check_files out.Dcm.Gen.common;
          List.iter (fun (_, files) -> check_files files) out.Dcm.Gen.per_host)
    [ "HESIOD"; "NFS"; "MAIL"; "ZEPHYR" ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_doc_matches_string;
    QCheck_alcotest.to_alcotest prop_prefix_suffix;
    QCheck_alcotest.to_alcotest prop_writer_matches_buffer;
    Alcotest.test_case "writer chunk rollover" `Quick
      test_writer_chunk_rollover;
    QCheck_alcotest.to_alcotest prop_pack_docs_identical;
    QCheck_alcotest.to_alcotest prop_checksum_stream_doc;
    Alcotest.test_case "campus outputs byte-identical" `Quick
      test_generator_outputs_byte_identical;
  ]
