(* Chunked documents for generator output.

   At 64x the HESIOD maps run to tens of megabytes; building each file
   as one string means every generation allocates (and copies, via
   Buffer doubling) multi-megabyte blocks just to hand them to the
   packer, which copies them again.  A [doc] is the same bytes held as
   an ordered list of bounded chunks: generators append through a
   writer that flushes a small buffer every [chunk_size] bytes, and the
   packer / checksummer / patch encoder consume the chunks in order —
   the whole-file string exists only at the wire or spool boundary,
   where the transport demands one. *)

let chunk_size = 256 * 1024

type doc = {
  chunks : string array;  (* in order, each <= [chunk_size] except
                             singletons adopted by [of_string] *)
  len : int;  (* total byte length, = sum of chunk lengths *)
  mutable memo : int;
      (* cached whole-doc checksum, 0 = not yet computed.  The encoding
         is owned by [Checksum]; docs just carry the slot so archives
         over mostly-unchanged members checksum in O(changed), not
         O(total). *)
}

let empty = { chunks = [||]; len = 0; memo = 1 (* adler32 of "" *) }

let of_string s =
  if s = "" then empty else { chunks = [| s |]; len = String.length s; memo = 0 }

let length d = d.len
let iter d f = Array.iter f d.chunks

(* Structural concatenation: the result shares the operands' chunks, so
   prefixing a one-byte tag onto a multi-megabyte doc copies nothing. *)
let concat docs =
  {
    chunks = Array.concat (List.map (fun d -> d.chunks) docs);
    len = List.fold_left (fun acc d -> acc + d.len) 0 docs;
    memo = 0;
  }

let checksum_memo d = d.memo
let set_checksum_memo d v = d.memo <- v

let to_string d =
  match d.chunks with
  | [||] -> ""
  | [| s |] -> s
  | chunks ->
      let b = Bytes.create d.len in
      let pos = ref 0 in
      Array.iter
        (fun c ->
          Bytes.blit_string c 0 b !pos (String.length c);
          pos := !pos + String.length c)
        chunks;
      Bytes.unsafe_to_string b

(* Random access for the patch encoder.  A cursor would be faster for
   sequential scans, but prefix/suffix trims touch each byte once and
   the chunk lookup is a short linear walk kept hot by locality. *)
let get d i =
  if i < 0 || i >= d.len then invalid_arg "Sink.get";
  let rec go ci i =
    let c = d.chunks.(ci) in
    let n = String.length c in
    if i < n then c.[i] else go (ci + 1) (i - n)
  in
  go 0 i

let sub d pos len =
  if pos < 0 || len < 0 || pos + len > d.len then invalid_arg "Sink.sub";
  if len = 0 then ""
  else begin
    let b = Bytes.create len in
    let skip = ref pos and need = ref len and w = ref 0 and ci = ref 0 in
    while !need > 0 do
      let c = d.chunks.(!ci) in
      let n = String.length c in
      if !skip >= n then skip := !skip - n
      else begin
        let take = min (n - !skip) !need in
        Bytes.blit_string c !skip b !w take;
        w := !w + take;
        need := !need - take;
        skip := 0
      end;
      incr ci
    done;
    Bytes.unsafe_to_string b
  end

(* Longest common prefix/suffix of two docs, compared chunk-aware so
   identical tails of multi-megabyte files never materialize.  Both
   scans take a physical-equality shortcut: when the two walks sit at
   the same offset of the SAME heap string, the rest of that chunk
   matches by identity and is skipped in O(1).  Docs built by splicing
   share unchanged chunks with their base ([concat] copies no bytes), so
   trimming a 4 MB file whose middle changed touches only the chunks
   around the change, and those are compared 8 bytes at a time. *)

(* Unboxed 8-byte loads, so the compares allocate nothing. *)
external get64 : string -> int -> int64 = "%caml_string_get64"

(* How many of the [n] bytes from [x.[i]] and [y.[j]] on match. *)
let match_forward x i y j n =
  let k = ref 0 in
  while !k + 8 <= n && (get64 x (i + !k) : int64) = get64 y (j + !k) do
    k := !k + 8
  done;
  while !k < n && x.[i + !k] = y.[j + !k] do
    incr k
  done;
  !k

(* How many of the [n] bytes ending just before [x.[i]] and [y.[j]]
   match, counted backwards. *)
let match_backward x i y j n =
  let k = ref 0 in
  while !k + 8 <= n && (get64 x (i - !k - 8) : int64) = get64 y (j - !k - 8) do
    k := !k + 8
  done;
  while !k < n && x.[i - !k - 1] = y.[j - !k - 1] do
    incr k
  done;
  !k

(* Each walk holds a chunk index and an offset into that chunk: for the
   prefix the next byte to compare, for the suffix the end of the bytes
   still to compare. *)
let common_prefix a b =
  let limit = min a.len b.len in
  let p = ref 0 and ia = ref 0 and oa = ref 0 and ib = ref 0 and ob = ref 0 in
  let continue = ref true in
  while !continue && !p < limit do
    let ca = a.chunks.(!ia) and cb = b.chunks.(!ib) in
    let n = min (String.length ca - !oa) (String.length cb - !ob) in
    let n = min n (limit - !p) in
    let k = if ca == cb && !oa = !ob then n else match_forward ca !oa cb !ob n in
    p := !p + k;
    if k < n then continue := false
    else begin
      oa := !oa + k;
      ob := !ob + k;
      if !oa = String.length ca then (incr ia; oa := 0);
      if !ob = String.length cb then (incr ib; ob := 0)
    end
  done;
  !p

let common_suffix ~limit a b =
  let limit = min limit (min a.len b.len) in
  let s = ref 0 in
  let ia = ref (Array.length a.chunks - 1) and ib = ref (Array.length b.chunks - 1) in
  let ea = ref (if !ia < 0 then 0 else String.length a.chunks.(!ia)) in
  let eb = ref (if !ib < 0 then 0 else String.length b.chunks.(!ib)) in
  let continue = ref true in
  while !continue && !s < limit do
    let ca = a.chunks.(!ia) and cb = b.chunks.(!ib) in
    let n = min (min !ea !eb) (limit - !s) in
    let k = if ca == cb && !ea = !eb then n else match_backward ca !ea cb !eb n in
    s := !s + k;
    if k < n then continue := false
    else begin
      ea := !ea - k;
      eb := !eb - k;
      if !ea = 0 && !ia > 0 then (decr ia; ea := String.length a.chunks.(!ia));
      if !eb = 0 && !ib > 0 then (decr ib; eb := String.length b.chunks.(!ib))
    end
  done;
  !s

let equal a b = a == b || (a.len = b.len && common_prefix a b = a.len)

(* ------------------------------------------------------------------ *)
(* The writer: a small buffer flushed into the chunk list as it fills.
   Peak transient memory per file is one chunk, not the file. *)

type t = {
  buf : Buffer.t;
  mutable rev_chunks : string list;
  mutable flushed : int;  (* bytes already moved into [rev_chunks] *)
}

let create ?(hint = 4096) () =
  { buf = Buffer.create (min hint chunk_size); rev_chunks = []; flushed = 0 }

let flush w =
  if Buffer.length w.buf > 0 then begin
    w.rev_chunks <- Buffer.contents w.buf :: w.rev_chunks;
    w.flushed <- w.flushed + Buffer.length w.buf;
    Buffer.clear w.buf
  end

let add_string w s =
  Buffer.add_string w.buf s;
  if Buffer.length w.buf >= chunk_size then flush w

let add_char w c =
  Buffer.add_char w.buf c;
  if Buffer.length w.buf >= chunk_size then flush w

let add_doc w d = iter d (add_string w)
let written w = w.flushed + Buffer.length w.buf

let contents w =
  flush w;
  let chunks = Array.of_list (List.rev w.rev_chunks) in
  { chunks; len = w.flushed; memo = 0 }
