let modulus = 65521

(* Adler-32 is a running (a, b) pair, so it streams: feeding chunks in
   order gives the same value as one pass over their concatenation.
   [Tarlike.checksum] uses this to checksum an archive that is never
   materialized. *)
type stream = { mutable a : int; mutable b : int }

let stream_start () = { a = 1; b = 0 }

(* The sums are reduced once per [block] bytes, not once per byte.  With
   a, b < 65521 going into a block of at most 2^20 bytes (each <= 255),
   after k bytes a < 65521 + 255k < 2^29, and b, which gains a at every
   step, stays below 65521 + 2^20 * 65521 + 255 * 2^20 * (2^20 + 1) / 2
   < 2^48: far inside a 63-bit int.  Reducing at the end of the block
   leaves the same residues as reducing every step. *)
let block = 1 lsl 20

let stream_feed st s =
  let len = String.length s in
  let a = ref st.a and b = ref st.b and i = ref 0 in
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
