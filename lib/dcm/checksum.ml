let modulus = 65521

(* Adler-32 is a running (a, b) pair, so it streams: feeding chunks in
   order gives the same value as one pass over their concatenation.
   [Tarlike.checksum_sums] uses this to checksum an archive that is
   never materialized. *)
type stream = { mutable a : int; mutable b : int }

let stream_start () = { a = 1; b = 0 }

(* The sums are reduced once per [block] bytes, not once per byte.  With
   a, b < 65521 going into a block of at most 2^20 bytes (each <= 255),
   after k bytes a < 65521 + 255k < 2^29, and b, which gains a at every
   step, stays below 65521 + 2^20 * 65521 + 255 * 2^20 * (2^20 + 1) / 2
   < 2^48: far inside a 63-bit int.  Reducing at the end of the block
   leaves the same residues as reducing every step. *)
let block = 1 lsl 20

let feed_range st s pos len =
  let a = ref st.a and b = ref st.b and i = ref pos in
  let len = pos + len in
  while !i < len do
    let stop = min len (!i + block) in
    for j = !i to stop - 1 do
      a := !a + Char.code (String.unsafe_get s j);
      b := !b + !a
    done;
    a := !a mod modulus;
    b := !b mod modulus;
    i := stop
  done;
  st.a <- !a;
  st.b <- !b

let stream_feed st s = feed_range st s 0 (String.length s)

let stream_feed_doc st d = Sink.iter d (stream_feed st)

let stream_value st = (st.b lsl 16) lor st.a

let adler32 s =
  let st = stream_start () in
  stream_feed st s;
  stream_value st

(* The checksum of [X ^ Y] from the checksums of X and Y plus Y's
   length, in O(1).  With (a1,b1) = adler X and (a2,b2) = adler Y:
   appending Y adds Y's byte sum to [a] (a2 carries an extra initial 1,
   hence the -1), and each of Y's len2 steps adds the carried-in prefix
   contribution (a1 - 1) to [b] on top of Y's own b2:
     a' = a1 + a2 - 1              (mod 65521)
     b' = b1 + b2 + len2·(a1 - 1)  (mod 65521) *)
let combine v1 v2 len2 =
  let a1 = v1 land 0xffff and b1 = (v1 lsr 16) land 0xffff in
  let a2 = v2 land 0xffff and b2 = (v2 lsr 16) land 0xffff in
  let rem = len2 mod modulus in
  let a = (a1 + a2 + modulus - 1) mod modulus in
  let b = (b1 + b2 + (rem * ((a1 + modulus - 1) mod modulus))) mod modulus in
  (b lsl 16) lor a

(* Docs memoize their checksum (they are byte-immutable), so archives
   over mostly-shared members cost one [combine] per unchanged member
   instead of a scan.  A doc whose true checksum happens to be 0 — the
   memo's "unset" — is just recomputed each time. *)
let adler32_doc d =
  let m = Sink.checksum_memo d in
  if m <> 0 then m
  else begin
    let st = stream_start () in
    stream_feed_doc st d;
    let v = stream_value st in
    Sink.set_checksum_memo d v;
    v
  end

let stream_absorb st v ~len =
  let c = combine (stream_value st) v len in
  st.a <- c land 0xffff;
  st.b <- (c lsr 16) land 0xffff

let stream_absorb_doc st d = stream_absorb st (adler32_doc d) ~len:(Sink.length d)

let to_hex v = Printf.sprintf "%08x" v
let verify ~data ~checksum = to_hex (adler32 data) = checksum

(* Segment checksums, after rsync's checksums over pieces (Tridgell and
   Mackerras, 1996).  A string's checksum is kept as the run of its
   segments, each packed into one int as [len lsl 32 lor adler], so the
   array stays unboxed.  A scan cuts segments of [segment_size] bytes;
   a splice keeps the base's segments outside the patched region and
   merges neighbours whose lengths sum to at most [segment_size], so
   after every splice any two neighbours together exceed it: the count
   stays below [2 * len / segment_size + 1] and no segment is longer
   than [segment_size]. *)
let segment_size = 4096

type t = { len : int; value : int; segs : int array }

let seg_len g = g lsr 32
let seg_adler g = g land 0xffffffff
let seg len adler = (len lsl 32) lor adler

let of_segs segs =
  let len = ref 0 and value = ref 1 in
  Array.iter
    (fun g ->
      len := !len + seg_len g;
      value := combine !value (seg_adler g) (seg_len g))
    segs;
  { len = !len; value = !value; segs }

let value t = t.value
let length t = t.len
let count t = Array.length t.segs

(* One pass over the concatenation of the [(s, pos, len)] pieces, cut
   into full segments with a shorter last one. *)
let scan pieces =
  let out = ref [] and st = stream_start () and filled = ref 0 in
  let cut () =
    if !filled > 0 then begin
      out := seg !filled (stream_value st) :: !out;
      st.a <- 1;
      st.b <- 0;
      filled := 0
    end
  in
  List.iter
    (fun (s, pos, len) ->
      let pos = ref pos and left = ref len in
      while !left > 0 do
        let take = min !left (segment_size - !filled) in
        feed_range st s !pos take;
        pos := !pos + take;
        left := !left - take;
        filled := !filled + take;
        if !filled = segment_size then cut ()
      done)
    pieces;
  cut ();
  of_segs (Array.of_list (List.rev !out))

(* The segment-aligned span around the bytes a patch with this prefix
   and suffix replaces: [a] is the last segment boundary at or before
   [prefix], [b] the first at or after [len - suffix], and [i], [j]
   the indices of the segments starting at [a] and [b]. *)
let cover t ~prefix ~suffix =
  if prefix < 0 || suffix < 0 || prefix + suffix > t.len then
    invalid_arg "Checksum.cover";
  let stop = t.len - suffix in
  let n = Array.length t.segs in
  let rec left i off =
    if i < n && off + seg_len t.segs.(i) <= prefix then
      left (i + 1) (off + seg_len t.segs.(i))
    else (i, off)
  in
  let i, a = left 0 0 in
  let rec right j off =
    if off < stop then right (j + 1) (off + seg_len t.segs.(j)) else (j, off)
  in
  let j, b = right i a in
  (i, a, j, b)

let region t ~base ~prefix ~suffix (s, pos, len) =
  let _, a, _, b = cover t ~prefix ~suffix in
  let stop = t.len - suffix in
  scan [ (base, a, prefix - a); (s, pos, len); (base, stop, b - stop) ]

let splice t ~prefix ~suffix r =
  let i, _, j, _ = cover t ~prefix ~suffix in
  let merged = ref [] in
  let push g =
    match !merged with
    | h :: rest when seg_len h + seg_len g <= segment_size ->
        merged :=
          seg (seg_len h + seg_len g) (combine (seg_adler h) (seg_adler g) (seg_len g))
          :: rest
    | l -> merged := g :: l
  in
  for k = 0 to i - 1 do
    push t.segs.(k)
  done;
  Array.iter push r.segs;
  for k = j to Array.length t.segs - 1 do
    push t.segs.(k)
  done;
  of_segs (Array.of_list (List.rev !merged))

let encode t =
  String.concat ","
    (Array.to_list
       (Array.map (fun g -> Printf.sprintf "%d:%08x" (seg_len g) (seg_adler g)) t.segs))

let decode s =
  let one g =
    match String.split_on_char ':' g with
    | [ len; hex ] -> (
        match (int_of_string_opt len, int_of_string_opt ("0x" ^ hex)) with
        | Some len, Some adler
          when len > 0 && len <= segment_size && adler >= 0 && adler <= 0xffffffff ->
            Some (seg len adler)
        | _ -> None)
    | _ -> None
  in
  if s = "" then Some (of_segs [||])
  else
    let gs = List.map one (String.split_on_char ',' s) in
    if List.mem None gs then None
    else Some (of_segs (Array.of_list (List.filter_map Fun.id gs)))
