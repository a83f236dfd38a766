(* Ops ride on the GDB wire framing with conn 0; each request's first
   argument is the auth token. *)
let token = "krb"

let op_script = 33
let op_flush = 34
let op_exec = 35
let op_manifest = 36
let op_delta = 37

let op_slug op =
  if op = op_script then "script"
  else if op = op_flush then "flush"
  else if op = op_exec then "exec"
  else if op = op_manifest then "manifest"
  else if op = op_delta then "delta"
  else string_of_int op

let service_name = "moira_update"
let staged_suffix = ".moira_update"
let base_suffix = ".last.d"
let script_staging = "/tmp/moira_inst"

(* A member as EXEC resolved it: kept from the durable base
   ([fresh = None]) or new contents with their segment checksums. *)
type member = { name : string; fresh : (string * Checksum.t) option }

(* The staged file as EXEC decoded it.  The script and the base advance
   share this one decode, so an installed file and its base copy are the
   same string. *)
type staged = { path : string; target : string; members : member list }

type script = staged:staged -> (unit, string) result

type server = {
  host : Netsim.Host.t;
  obs : Obs.t;  (* span lane for this serving host *)
  scripts : (string, script) Hashtbl.t;
  (* The one memo: the segment checksums of each durable base member,
     keyed by its path and valid while the contents are equal.  Without
     it every manifest re-scans every member — all of HESIOD's maps,
     every cycle — and every patch re-scans the member it patches.  Vfs
     hands stored strings back by reference, so the check is O(1) in
     the steady state. *)
  sums : (string, string * Checksum.t) Hashtbl.t;
  scanned : Obs.Counter.counter;  (* update.server.scanned_bytes *)
}

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

(* [List.map] for a fallible [f], left to right, stopping at the first
   error. *)
let map_result f l =
  List.fold_left
    (fun acc x ->
      let* ys = acc in
      let* y = f x in
      Ok (y :: ys))
    (Ok []) l
  |> Result.map List.rev

let reply code tuples =
  Gdb.Wire.encode_reply
    { Gdb.Wire.rversion = Gdb.Wire.protocol_version; code; tuples }

let doc_cksum contents = Checksum.to_hex (Checksum.adler32_doc contents)

(* A member delta: 'K' keep the base member verbatim, 'F' full new
   contents, 'P' patch — common prefix/suffix trim against the base
   member, whose checksum is carried so a stale base is detected.  Both
   sides are chunked docs and the trims compare chunk-wise, so only the
   changed middle is ever materialized. *)
let patch_encode ~base contents =
  let lb = Sink.length base and lc = Sink.length contents in
  let p = Sink.common_prefix base contents in
  let s = Sink.common_suffix ~limit:(min lb lc - p) base contents in
  Printf.sprintf "P%d %d %s\n%s" p s (doc_cksum base)
    (Sink.sub contents p (lc - p - s))

(* The wire checksum the DCM sends with DELTA and EXEC, from the
   per-member checksums in O(members). *)
let archive_cksum members =
  Checksum.to_hex
    (Tarlike.checksum_sums
       (List.map
          (fun (name, sums) ->
            (name, Checksum.length sums, Checksum.value sums))
          members))

(* A member as DELTA stages it: kept, its full bytes, or the patch as
   it came on the wire (without its tag) with the segments of the
   region it rewrites — so neither staging nor EXEC copies a patched
   member more than once. *)
type entry = Keep | Full of string | Patch of Checksum.t * string

(* The staged file is a [Tarlike] archive whose first entry lists every
   member in order, one "<K|F|P> <adler> <len> <name>" line each,
   followed by one body per F or P member in list order: a segment list
   on one line, then the member's bytes (F) or its patch (P, the
   segments being the rewritten region's).  EXEC decodes it once for the
   install script and the base advance. *)
let encode_staged entries =
  let line (name, sums, e) =
    Printf.sprintf "%c %08x %d %s\n"
      (match e with Keep -> 'K' | Full _ -> 'F' | Patch _ -> 'P')
      (Checksum.value sums) (Checksum.length sums) name
  in
  let body segs payload =
    Sink.concat [ Sink.of_string (Checksum.encode segs ^ "\n"); Sink.of_string payload ]
  in
  Tarlike.pack_docs
    (("", Sink.of_string (String.concat "" (List.map line entries)))
    :: List.filter_map
         (fun (name, sums, e) ->
           match e with
           | Keep -> None
           | Full c -> Some (name, body sums c)
           | Patch (region, patch) -> Some (name, body region patch))
         entries)

(* The durable base: [<target>.last.d/] holds one file per installed
   member plus an [_index] naming them in order. *)
let base_dir target = target ^ base_suffix

let index_names fs dir =
  match Netsim.Vfs.read fs ~path:(dir ^ "/_index") with
  | None -> None
  | Some index ->
      Some (List.filter (fun s -> s <> "") (String.split_on_char '\n' index))

(* Every byte the server checksums is scanned by [Checksum.scan] or
   [Checksum.region] and counted here. *)
let counted t sums =
  Obs.Counter.add t.scanned (Checksum.length sums);
  sums

let base_sums t path contents =
  match Hashtbl.find_opt t.sums path with
  | Some (c, sums) when String.equal c contents -> sums
  | _ ->
      let sums = counted t (Checksum.scan [ (contents, 0, String.length contents) ]) in
      Hashtbl.replace t.sums path (contents, sums);
      sums

(* The base as (name, contents, sums), read from disk each time so the
   manifest reports what is actually there; [None] when absent or torn
   (a name in [_index] with no file). *)
let read_base t fs target =
  let dir = base_dir target in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | n :: rest -> (
        let path = dir ^ "/" ^ n in
        match Netsim.Vfs.read fs ~path with
        | None -> None
        | Some c -> go ((n, c, base_sums t path c) :: acc) rest)
  in
  Option.bind (index_names fs dir) (go [])

(* The first line of the [len] bytes at [off] in [s] and the span after
   it. *)
let split_header s off len =
  match String.index_from_opt s off '\n' with
  | Some nl when nl < off + len ->
      Some (String.sub s off (nl - off), nl + 1, off + len - nl - 1)
  | _ -> None

(* A patch without its tag, "<prefix> <suffix> <base checksum>\n<middle>",
   at [off] in [s]: the trims, the base checksum and the middle's span. *)
let parse_patch s off len =
  match split_header s off len with
  | Some (header, mpos, mlen) -> (
      match String.split_on_char ' ' header with
      | [ p; sfx; bck ] -> (
          match (int_of_string_opt p, int_of_string_opt sfx) with
          | Some p, Some sfx when p >= 0 && sfx >= 0 -> Some (p, sfx, bck, mpos, mlen)
          | _ -> None)
      | _ -> None)
  | None -> None

(* Does the patch apply to a base of [bsums]? *)
let fits bsums ~prefix ~suffix bck =
  prefix + suffix <= Checksum.length bsums
  && String.equal (Checksum.to_hex (Checksum.value bsums)) bck

(* Resolve every delta entry once against the base into the staged
   entries and the new members' checksums: kept members take the
   base's known segments, a full member is scanned once, and a patch
   scans only its middle and the base's edge pieces around it. *)
let resolve t fs target blob =
  let* entries = Tarlike.spans blob in
  let base = Option.value (read_base t fs target) ~default:[] in
  let from_base name =
    match List.find_opt (fun (n, _, _) -> String.equal n name) base with
    | Some (_, c, sums) -> Ok (c, sums)
    | None -> Error ("no base member " ^ name)
  in
  let entry (name, off, len) =
    if len = 0 then Error ("empty delta entry " ^ name)
    else
      match blob.[off] with
      | 'K' ->
          let* _, sums = from_base name in
          Ok (name, sums, Keep)
      | 'F' ->
          let sums = counted t (Checksum.scan [ (blob, off + 1, len - 1) ]) in
          Ok (name, sums, Full (String.sub blob (off + 1) (len - 1)))
      | 'P' -> (
          let* b, bsums = from_base name in
          match parse_patch blob (off + 1) (len - 1) with
          | Some (prefix, suffix, bck, mpos, mlen) when fits bsums ~prefix ~suffix bck ->
              let region =
                counted t
                  (Checksum.region bsums ~base:b ~prefix ~suffix (blob, mpos, mlen))
              in
              Ok
                ( name,
                  Checksum.splice bsums ~prefix ~suffix region,
                  Patch (region, String.sub blob (off + 1) (len - 1)) )
          | Some _ -> Error ("patch base mismatch for " ^ name)
          | None -> Error ("malformed patch for " ^ name))
      | _ -> Error ("bad delta entry " ^ name)
  in
  map_result entry entries

(* EXEC's one decode of the staged file.  A patch is applied to the base
   exactly once, after its base is checked against the patch's base
   checksum and the patched member's checksum — the base's segments
   spliced with the staged region's — against the staged one; no byte
   is scanned again.  A disagreement is a checksum error, which the DCM
   answers by resending; a malformed file is a script error. *)
let decode_staged t fs target data =
  let malformed what = Error (Moira.Mr_err.update_script, "bad staged entry " ^ what) in
  let mismatch name =
    Error (Moira.Mr_err.update_checksum, "staged checksum mismatch for " ^ name)
  in
  (* the member an F body holds, or the base with a P body's patch
     applied; either body starts with a segment list *)
  let fresh tag name adler len (_, off, blen) =
    match split_header data off blen with
    | None -> malformed name
    | Some (segs, pos, n) -> (
        match (tag, Checksum.decode segs) with
        | _, None -> malformed name
        | "F", Some sums ->
            if n = len && Checksum.length sums = len && Checksum.value sums = adler
            then Ok { name; fresh = Some (String.sub data pos n, sums) }
            else mismatch name
        | _, Some region -> (
            match parse_patch data pos n with
            | None -> malformed name
            | Some (prefix, suffix, bck, mpos, mlen) -> (
                let path = base_dir target ^ "/" ^ name in
                match Netsim.Vfs.read fs ~path with
                | None -> mismatch name
                | Some b ->
                    let bsums = base_sums t path b in
                    if not (fits bsums ~prefix ~suffix bck) then mismatch name
                    else
                      let sums = Checksum.splice bsums ~prefix ~suffix region in
                      if
                        Checksum.length sums <> len
                        || Checksum.value sums <> adler
                        || prefix + mlen + suffix <> len
                      then mismatch name
                      else begin
                        let out = Bytes.create len in
                        Bytes.blit_string b 0 out 0 prefix;
                        Bytes.blit_string data mpos out prefix mlen;
                        Bytes.blit_string b (String.length b - suffix) out
                          (prefix + mlen) suffix;
                        Ok { name; fresh = Some (Bytes.unsafe_to_string out, sums) }
                      end)))
  in
  let rec go acc bodies lines =
    match (lines, bodies) with
    | [], [] -> Ok (List.rev acc)
    | [], _ :: _ -> malformed "(member bytes left over)"
    | line :: lines, _ -> (
        match String.split_on_char ' ' line with
        | tag :: hex :: len :: name -> (
            let name = String.concat " " name in
            let next m bodies =
              let* m = m in
              go (m :: acc) bodies lines
            in
            match (tag, int_of_string_opt ("0x" ^ hex), int_of_string_opt len, bodies) with
            | "K", Some _, Some _, _ -> next (Ok { name; fresh = None }) bodies
            | ("F" | "P"), Some adler, Some len, ((n, _, _) as body) :: bodies
              when n = name ->
                next (fresh tag name adler len body) bodies
            | _ -> malformed line)
        | _ -> malformed line)
  in
  match Tarlike.spans data with
  | Ok (("", off, len) :: bodies) ->
      go [] bodies
        (List.filter (fun l -> l <> "") (String.split_on_char '\n' (String.sub data off len)))
  | Ok _ -> malformed "(no member list)"
  | Error e -> malformed e

(* Advance the durable base to the staged members: write the new ones
   (recording their known segments), drop members that disappeared,
   refresh [_index].  Kept members are already on disk. *)
let advance_base t fs target members =
  let dir = base_dir target in
  List.iter
    (fun m ->
      match m.fresh with
      | None -> ()
      | Some (c, sums) ->
          let path = dir ^ "/" ^ m.name in
          Netsim.Vfs.write fs ~path c;
          Hashtbl.replace t.sums path (c, sums))
    members;
  let names = List.map (fun m -> m.name) members in
  List.iter
    (fun n ->
      if not (List.mem n names) then begin
        let path = dir ^ "/" ^ n in
        Netsim.Vfs.remove fs ~path;
        Hashtbl.remove t.sums path
      end)
    (Option.value (index_names fs dir) ~default:[]);
  Netsim.Vfs.write fs ~path:(dir ^ "/_index") (String.concat "\n" names)

let handle t payload =
  match Gdb.Wire.decode_request payload with
  | Error _ -> reply Gdb.Gdb_err.bad_frame []
  | Ok req -> (
      match req.Gdb.Wire.args with
      | tok :: args when tok = token ->
          (* Install-side span, parented on the DCM's push span when the
             request carries a context — the serving-host end of the
             commit-to-serving trace. *)
          Obs.with_span t.obs
            ?parent_ctx:(Obs.ctx_of_string req.Gdb.Wire.ctx)
            ~attrs:[ ("op", op_slug req.Gdb.Wire.op) ]
            ("update." ^ op_slug req.Gdb.Wire.op)
          @@ fun () ->
          let fs = Netsim.Host.fs t.host in
          if req.op = op_manifest then begin
            (* per-member checksums of the durable base, so the DCM can
               send only what changed *)
            match args with
            | [ target ] ->
                reply 0
                  (List.map
                     (fun (name, _, sums) ->
                       [ name; Checksum.to_hex (Checksum.value sums) ])
                     (Option.value (read_base t fs target) ~default:[]))
            | _ -> reply Moira.Mr_err.args []
          end
          else if req.op = op_delta then begin
            (* resolve the entries against the base, verify the
               whole-archive checksum, and stage the resolved members *)
            match args with
            | [ target; blob; cksum ] -> (
                match resolve t fs target blob with
                | Error e -> reply Moira.Mr_err.update_checksum [ [ e ] ]
                | Ok entries ->
                    if
                      archive_cksum (List.map (fun (n, sums, _) -> (n, sums)) entries)
                      <> cksum
                    then reply Moira.Mr_err.update_checksum []
                    else begin
                      Netsim.Vfs.write fs
                        ~path:(target ^ staged_suffix)
                        (encode_staged entries);
                      Netsim.Host.maybe_crash t.host ~point:"xfer";
                      reply 0 []
                    end)
            | _ -> reply Moira.Mr_err.args []
          end
          else if req.op = op_script then begin
            match args with
            | [ name ] ->
                Netsim.Vfs.write fs ~path:script_staging name;
                reply 0 []
            | _ -> reply Moira.Mr_err.args []
          end
          else if req.op = op_flush then begin
            Netsim.Vfs.flush fs;
            reply 0 []
          end
          else if req.op = op_exec then begin
            let run target expected =
              Netsim.Host.maybe_crash t.host ~point:"before_exec";
              let script_name =
                Option.value
                  (Netsim.Vfs.read fs ~path:script_staging)
                  ~default:""
              in
              let path = target ^ staged_suffix in
              let staged = Netsim.Vfs.read fs ~path in
              let already_installed =
                (* A repeated exec whose predecessor ran but whose reply
                   was lost: the staged file is gone and the durable
                   base already matches the archive checksum the DCM is
                   confirming — acknowledge instead of re-running. *)
                Option.is_none staged
                && (match (expected, read_base t fs target) with
                   | Some cksum, Some base ->
                       archive_cksum (List.map (fun (n, _, sums) -> (n, sums)) base)
                       = cksum
                   | _ -> false)
              in
              if already_installed then reply 0 []
              else
                match Hashtbl.find_opt t.scripts script_name with
                | None ->
                    reply Moira.Mr_err.update_script
                      [ [ "unknown script " ^ script_name ] ]
                | Some script -> (
                    let result =
                      let* members =
                        match staged with
                        | None ->
                            Error
                              (Moira.Mr_err.update_script, "no staged archive at " ^ path)
                        | Some data -> decode_staged t fs target data
                      in
                      let* () =
                        script ~staged:{ path; target; members }
                        |> Result.map_error (fun msg -> (Moira.Mr_err.update_script, msg))
                      in
                      Ok members
                    in
                    match result with
                    | Ok members ->
                        (* record what is now installed, durably, as the
                           base for future manifest/delta exchanges *)
                        advance_base t fs target members;
                        Netsim.Vfs.flush fs;
                        Netsim.Host.maybe_crash t.host ~point:"after_exec";
                        reply 0 []
                    | Error (code, msg) -> reply code [ [ msg ] ])
            in
            match args with
            | [ target ] -> run target None
            | [ target; cksum ] -> run target (Some cksum)
            | _ -> reply Moira.Mr_err.args []
          end
          else reply Moira.Mr_err.no_handle []
      | _ :: _ -> reply Moira.Mr_err.perm []
      | [] -> reply Moira.Mr_err.args [])

let serve ?(obs = Obs.default) host =
  let t =
    {
      host;
      obs;
      scripts = Hashtbl.create 7;
      sums = Hashtbl.create 16;
      scanned = Obs.Counter.make obs "update.server.scanned_bytes";
    }
  in
  Netsim.Host.serve host ~service:service_name (fun ~src:_ payload ->
      handle t payload);
  t

let register_script t ~name script = Hashtbl.replace t.scripts name script

let install_files host ~dir ?(after = fun () -> ()) () ~staged =
  let fs = Netsim.Host.fs host in
  (* Extract and swap one member at a time; renames are atomic and
     same-partition, per the execution-phase rules.  A kept member's
     bytes are the base's; a member whose live file already holds its
     bytes is left alone, so the install is O(changed members). *)
  List.iter
    (fun m ->
      let live = dir ^ "/" ^ m.name in
      let old = Netsim.Vfs.read fs ~path:live in
      let contents =
        match m.fresh with
        | Some (c, _) -> Some c
        | None ->
            Netsim.Vfs.read fs ~path:(base_dir staged.target ^ "/" ^ m.name)
      in
      match (contents, old) with
      | None, _ -> () (* a kept member with no base copy: nothing to install *)
      | Some c, Some o when String.equal c o -> ()
      | Some c, old ->
          (* keep the previous version for the revert instruction *)
          (match old with
          | Some old -> Netsim.Vfs.write fs ~path:(live ^ ".moira_old") old
          | None -> ());
          let tmp = live ^ staged_suffix in
          Netsim.Vfs.write fs ~path:tmp c;
          Netsim.Vfs.flush fs;
          ignore (Netsim.Vfs.rename fs ~src:tmp ~dst:live);
          Netsim.Host.maybe_crash host ~point:"mid_install")
    staged.members;
  Netsim.Vfs.remove fs ~path:staged.path;
  Netsim.Vfs.flush fs;
  Netsim.Host.maybe_crash host ~point:"before_restart";
  after ();
  Ok ()

let revert_files host ~dir ?(after = fun () -> ()) () ~staged =
  let fs = Netsim.Host.fs host in
  List.iter
    (fun m ->
      let live = dir ^ "/" ^ m.name in
      ignore (Netsim.Vfs.rename fs ~src:(live ^ ".moira_old") ~dst:live))
    staged.members;
  Netsim.Vfs.flush fs;
  after ();
  Ok ()

type failure =
  | Soft of int * string
  | Hard of int * string

type push_stats = {
  wire_bytes : int;
  archive_bytes : int;
  members_full : int;
  members_patched : int;
  members_kept : int;
  delta : bool;
  op_retries : int;
}

let push net ~src ~dst ?(token = token) ?(base = []) ?(attempts = 1)
    ?parent_ctx ~target ~files ~script () =
  let wire = ref 0 and retries = ref 0 in
  (* Protocol-op accounting on the net's registry.  The invariant the
     chaos tests cross-check: every op sent is accounted exactly once —
     sent = ok + retried + failed.<kind>. *)
  let obs = Netsim.Net.obs net in
  let c_sent = Obs.Counter.make obs "update.ops.sent" in
  let c_ok = Obs.Counter.make obs "update.ops.ok" in
  let c_retried = Obs.Counter.make obs "update.ops.retried" in
  let c_failed f =
    Obs.Counter.make obs ("update.ops.failed." ^ Netsim.Net.failure_slug f)
  in
  let call op args =
    let slug = op_slug op in
    let payload =
      Gdb.Wire.encode_request
        {
          Gdb.Wire.version = Gdb.Wire.protocol_version;
          conn = 0;
          op;
          args = token :: args;
          (* ops carry the push span's context so the serving host's
             install spans join the same trace *)
          ctx =
            (match Obs.current_ctx obs with
            | Some c -> Obs.ctx_to_string c
            | None -> "");
        }
    in
    (* Every op is safe to re-send: delta/script overwrite their
       staging files, manifest and flush are read-only/idempotent, and
       exec carries the archive checksum so a re-sent confirm of an
       already-applied install is acknowledged without re-running.
       Each attempt is its own child span under dcm.push, so retries
       are visible in the trace. *)
    let rec go attempt =
      let sp =
        Obs.span_begin obs
          ~attrs:[ ("op", slug); ("host", dst); ("attempt", string_of_int attempt) ]
          "update.op"
      in
      wire := !wire + String.length payload;
      Obs.Counter.incr c_sent;
      match Netsim.Net.call net ~src ~dst ~service:service_name payload with
      | Error f when attempt < attempts ->
          incr retries;
          Obs.Counter.incr c_retried;
          Obs.span_end obs
            ~attrs:[ ("outcome", "retry:" ^ Netsim.Net.failure_slug f) ]
            sp;
          go (attempt + 1)
      | Error f ->
          Obs.Counter.incr (c_failed f);
          Obs.span_end obs ~attrs:[ ("outcome", Netsim.Net.failure_slug f) ] sp;
          Error
            (Soft
               ( (match f with
                 | Netsim.Net.Host_down | Netsim.Net.No_host ->
                     Moira.Mr_err.host_unreachable
                 | _ -> Moira.Mr_err.update_timeout),
                 Netsim.Net.failure_to_string f ))
      | Ok raw ->
          Obs.Counter.incr c_ok;
          wire := !wire + String.length raw;
          let res =
            match Gdb.Wire.decode_reply raw with
            | Error e -> Error (Soft (Moira.Mr_err.aborted, e))
            | Ok reply ->
                if reply.Gdb.Wire.code = 0 then Ok reply.Gdb.Wire.tuples
                else if reply.Gdb.Wire.code = Moira.Mr_err.update_checksum then begin
                  Obs.Counter.incr (Obs.Counter.make obs "update.proto.soft");
                  Error (Soft (reply.Gdb.Wire.code, "checksum mismatch"))
                end
                else if reply.Gdb.Wire.code = Moira.Mr_err.perm then begin
                  Obs.Counter.incr (Obs.Counter.make obs "update.proto.hard");
                  Error (Hard (reply.Gdb.Wire.code, "authentication rejected"))
                end
                else begin
                  Obs.Counter.incr (Obs.Counter.make obs "update.proto.hard");
                  let detail =
                    match reply.Gdb.Wire.tuples with
                    | [ [ msg ] ] -> msg
                    | _ -> Comerr.Com_err.error_message reply.Gdb.Wire.code
                  in
                  Error (Hard (reply.Gdb.Wire.code, detail))
                end
          in
          Obs.span_end obs
            ~attrs:
              [
                ( "outcome",
                  match res with
                  | Ok _ -> "ok"
                  | Error (Soft _) -> "soft"
                  | Error (Hard _) -> "hard" );
              ]
            sp;
          res
    in
    go 1
  in
  Obs.with_span obs ?parent_ctx "dcm.push"
    ~attrs:[ ("host", dst); ("target", target) ]
  @@ fun () ->
  (* The checksum and size stream over the member docs, so a push never
     allocates the multi-megabyte archive; only the entries' bytes are
     packed.  [update.client.full_packs] counts the packs whose entries
     are all F — every member's bytes materialized. *)
  let cksum = Checksum.to_hex (Tarlike.checksum_docs files) in
  let archive_bytes = Tarlike.packed_size_docs files in
  let c_full_packs = Obs.Counter.make obs "update.client.full_packs" in
  let nfiles = List.length files in
  (* One data op.  [manifest] is the host's base, member name to
     checksum; an empty one — first push, unreadable base, or the
     fallback after a checksum mismatch — makes every entry F. *)
  let rec send manifest =
    let nfull = ref 0 and npatch = ref 0 and nkeep = ref 0 in
    let full_entry contents =
      (* shares the doc's chunks behind a one-byte tag *)
      incr nfull;
      Sink.concat [ Sink.of_string "F"; contents ]
    in
    let entries =
      List.map
        (fun (name, contents) ->
          match List.assoc_opt name manifest with
          | Some m when m = doc_cksum contents ->
              incr nkeep;
              (name, Sink.of_string "K")
          | Some m -> (
              match List.assoc_opt name base with
              | Some b when doc_cksum b = m ->
                  incr npatch;
                  (name, Sink.of_string (patch_encode ~base:b contents))
              | _ -> (name, full_entry contents))
          | None -> (name, full_entry contents))
        files
    in
    if !nfull = nfiles then Obs.Counter.incr c_full_packs;
    match call op_delta [ target; Tarlike.pack_docs entries; cksum ] with
    | Ok _ -> Ok (!nfull, !npatch, !nkeep)
    | Error (Soft (code, _))
      when code = Moira.Mr_err.update_checksum && !nfull < nfiles ->
        (* the host's base disagrees with its manifest (or a patch did
           not apply): ship every member in full *)
        send []
    | Error e -> Error e
  in
  (* A manifest failure is never final: the authoritative outcome comes
     from the all-F transfer it falls back to (an unreachable host fails
     that op the same way). *)
  let manifest =
    match call op_manifest [ target ] with
    | Error _ -> []
    | Ok tuples ->
        List.filter_map (function [ n; c ] -> Some (n, c) | _ -> None) tuples
  in
  let* full_members, patched, kept = send manifest in
  let* _ = call op_script [ script ] in
  let* _ = call op_flush [] in
  let* _ = call op_exec [ target; cksum ] in
  Ok
    {
      wire_bytes = !wire;
      archive_bytes;
      members_full = full_members;
      members_patched = patched;
      members_kept = kept;
      delta = kept + patched > 0;
      op_retries = !retries;
    }
