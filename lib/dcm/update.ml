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

(* A resolved member: kept from the durable base ([bytes = None]) or
   new contents.  Its Adler-32 and length are always known, so the
   whole-archive checksum never needs the kept bytes. *)
type member = { name : string; adler : int; len : int; bytes : string option }

(* The staged file as EXEC decoded it.  The script and the base advance
   share this one decode, so an installed file and its base copy are the
   same string. *)
type staged = { path : string; target : string; members : member list }

type script = staged:staged -> (unit, string) result

type server = {
  host : Netsim.Host.t;
  obs : Obs.t;  (* span lane for this serving host *)
  scripts : (string, script) Hashtbl.t;
  (* The one memo: the Adler-32 of each durable base member, keyed by
     its path and valid while the contents are equal.  Without it every
     manifest re-scans every member — all of HESIOD's maps, every cycle.
     Vfs hands stored strings back by reference, so the check is O(1)
     in the steady state. *)
  adlers : (string, string * int) Hashtbl.t;
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

(* [base_adler] is the base member's known checksum: the patch is
   checked against it, never by re-scanning the base.  The result is
   assembled with one copy. *)
let patch_apply ~base ~base_adler enc =
  match String.index_opt enc '\n' with
  | None -> Error "malformed patch"
  | Some nl -> (
      match String.split_on_char ' ' (String.sub enc 1 (nl - 1)) with
      | [ p; s; bck ] -> (
          match (int_of_string_opt p, int_of_string_opt s) with
          | Some p, Some s
            when p >= 0 && s >= 0
                 && p + s <= String.length base
                 && String.equal (Checksum.to_hex base_adler) bck ->
              let m = String.length enc - nl - 1 in
              let out = Bytes.create (p + m + s) in
              Bytes.blit_string base 0 out 0 p;
              Bytes.blit_string enc (nl + 1) out p m;
              Bytes.blit_string base (String.length base - s) out (p + m) s;
              Ok (Bytes.unsafe_to_string out)
          | _ -> Error "patch base mismatch")
      | _ -> Error "malformed patch")

(* The adler of the archive [Tarlike.pack] would produce for these
   members, streamed from the per-member checksums — the wire checksum
   the DCM sends with DELTA and EXEC, computed in O(members). *)
let archive_cksum members =
  let st = Checksum.stream_start () in
  List.iter
    (fun m ->
      Checksum.stream_feed st (string_of_int (String.length m.name));
      Checksum.stream_feed st " ";
      Checksum.stream_feed st (string_of_int m.len);
      Checksum.stream_feed st "\n";
      Checksum.stream_feed st m.name;
      Checksum.stream_absorb st m.adler ~len:m.len)
    members;
  Checksum.to_hex (Checksum.stream_value st)

(* The staged file is self-contained: a [Tarlike] archive whose first
   entry lists every member in order, one "<K|F> <adler> <len> <name>"
   line each, followed by the full bytes of each [F] member — every
   member not kept from the base — in list order.  EXEC decodes it once
   for the install script and the base advance. *)
let encode_staged members =
  let line m =
    Printf.sprintf "%c %08x %d %s\n"
      (if Option.is_some m.bytes then 'F' else 'K')
      m.adler m.len m.name
  in
  Tarlike.pack_docs
    (("", Sink.of_string (String.concat "" (List.map line members)))
    :: List.filter_map
         (fun m -> Option.map (fun c -> (m.name, Sink.of_string c)) m.bytes)
         members)

let decode_staged data =
  let rec go acc bodies lines =
    match (lines, bodies) with
    | [], [] -> Ok (List.rev acc)
    | [], _ :: _ -> Error "staged: member bytes left over"
    | line :: lines, _ -> (
        let bad = Error ("bad staged entry " ^ line) in
        match String.split_on_char ' ' line with
        | tag :: hex :: len :: name -> (
            let name = String.concat " " name in
            let adler = int_of_string_opt ("0x" ^ hex) in
            match (tag, adler, int_of_string_opt len, bodies) with
            | "K", Some adler, Some len, _ ->
                go ({ name; adler; len; bytes = None } :: acc) bodies lines
            | "F", Some adler, Some len, (n, c) :: bodies
              when n = name && String.length c = len ->
                go ({ name; adler; len; bytes = Some c } :: acc) bodies lines
            | _ -> bad)
        | _ -> bad)
  in
  match Tarlike.unpack data with
  | Ok (("", index) :: bodies) ->
      go [] bodies
        (List.filter (fun l -> l <> "") (String.split_on_char '\n' index))
  | Ok _ -> Error "staged: no member list"
  | Error e -> Error e

(* The durable base: [<target>.last.d/] holds one file per installed
   member plus an [_index] naming them in order. *)
let base_dir target = target ^ base_suffix

let index_names fs dir =
  match Netsim.Vfs.read fs ~path:(dir ^ "/_index") with
  | None -> None
  | Some index ->
      Some (List.filter (fun s -> s <> "") (String.split_on_char '\n' index))

(* Every byte the server checksums goes through here. *)
let scan t contents =
  Obs.Counter.add t.scanned (String.length contents);
  Checksum.adler32 contents

let base_adler t path contents =
  match Hashtbl.find_opt t.adlers path with
  | Some (c, ck) when String.equal c contents -> ck
  | _ ->
      let ck = scan t contents in
      Hashtbl.replace t.adlers path (contents, ck);
      ck

(* The base as (name, contents, adler), read from disk each time so the
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
        | Some c -> go ((n, c, base_adler t path c) :: acc) rest)
  in
  Option.bind (index_names fs dir) (go [])

(* Resolve every delta entry once against the base: kept members take
   the base's known checksum, and each new member — full or patched —
   is scanned exactly once. *)
let resolve t fs target blob =
  let* entries = Tarlike.spans blob in
  let base = Option.value (read_base t fs target) ~default:[] in
  let from_base name =
    match List.find_opt (fun (n, _, _) -> String.equal n name) base with
    | Some (_, c, ck) -> Ok (c, ck)
    | None -> Error ("no base member " ^ name)
  in
  let fresh name c =
    Ok { name; adler = scan t c; len = String.length c; bytes = Some c }
  in
  let entry (name, off, len) =
    if len = 0 then Error ("empty delta entry " ^ name)
    else
      match blob.[off] with
      | 'K' ->
          let* c, ck = from_base name in
          Ok { name; adler = ck; len = String.length c; bytes = None }
      | 'F' -> fresh name (String.sub blob (off + 1) (len - 1))
      | 'P' -> (
          let* b, ck = from_base name in
          let enc = String.sub blob off len in
          match patch_apply ~base:b ~base_adler:ck enc with
          | Ok c -> fresh name c
          | Error e -> Error (e ^ " for " ^ name))
      | _ -> Error ("bad delta entry " ^ name)
  in
  map_result entry entries

(* Advance the durable base to the staged members: write the new ones
   (recording their known checksums), drop members that disappeared,
   refresh [_index].  Kept members are already on disk. *)
let advance_base t fs target members =
  let dir = base_dir target in
  List.iter
    (fun m ->
      match m.bytes with
      | None -> ()
      | Some c ->
          let path = dir ^ "/" ^ m.name in
          Netsim.Vfs.write fs ~path c;
          Hashtbl.replace t.adlers path (c, m.adler))
    members;
  let names = List.map (fun m -> m.name) members in
  List.iter
    (fun n ->
      if not (List.mem n names) then begin
        let path = dir ^ "/" ^ n in
        Netsim.Vfs.remove fs ~path;
        Hashtbl.remove t.adlers path
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
                     (fun (name, _, ck) -> [ name; Checksum.to_hex ck ])
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
                | Ok members ->
                    if archive_cksum members <> cksum then
                      reply Moira.Mr_err.update_checksum []
                    else begin
                      Netsim.Vfs.write fs
                        ~path:(target ^ staged_suffix)
                        (encode_staged members);
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
                       let kept (name, c, adler) =
                         { name; adler; len = String.length c; bytes = None }
                       in
                       archive_cksum (List.map kept base) = cksum
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
                        | None -> Error ("no staged archive at " ^ path)
                        | Some data -> decode_staged data
                      in
                      let* () = script ~staged:{ path; target; members } in
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
                    | Error msg ->
                        reply Moira.Mr_err.update_script [ [ msg ] ])
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
      adlers = Hashtbl.create 16;
      scanned = Obs.Counter.make obs "update.server.scanned_bytes";
    }
  in
  let register h =
    Netsim.Host.register h ~service:service_name (fun ~src:_ payload ->
        handle t payload)
  in
  register host;
  (* survive a crash/reboot cycle: the boot sequence brings the update
     service back like any other daemon started from rc *)
  Netsim.Host.on_boot host register;
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
        match m.bytes with
        | Some c -> Some c
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
  members_total : int;
  members_full : int;
  members_patched : int;
  members_kept : int;
  delta : bool;
  op_retries : int;
  wasted_bytes : int;
}

let push net ~src ~dst ?(token = token) ?(base = []) ?(attempts = 1)
    ?parent_ctx ~target ~files ~script () =
  let wire = ref 0 and retries = ref 0 and wasted = ref 0 in
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
          wasted := !wasted + String.length payload;
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
      members_total = nfiles;
      members_full = full_members;
      members_patched = patched;
      members_kept = kept;
      delta = kept + patched > 0;
      op_retries = !retries;
      wasted_bytes = !wasted;
    }
