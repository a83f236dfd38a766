(* The Moira-to-server update protocol (section 5.9): checksummed
   transfer, staged install, atomic swap, crash windows, recovery. *)

let setup () =
  let engine = Sim.Engine.create () in
  let net = Netsim.Net.create engine in
  let srv = Netsim.Net.add_host net "SRV" in
  ignore (Netsim.Net.add_host net "MOIRA");
  let up = Dcm.Update.serve srv in
  Dcm.Update.register_script up ~name:"install.sh"
    (Dcm.Update.install_files srv ~dir:"/etc/data" ());
  (engine, net, srv, up)

(* Update.push now takes streaming docs; tests keep authoring plain
   strings and wrap at the call boundary. *)
let docs = List.map (fun (n, c) -> (n, Dcm.Sink.of_string c))

let push ?(files = [ ("a.db", "alpha\n"); ("b.db", "beta\n") ]) net =
  Dcm.Update.push net ~src:"MOIRA" ~dst:"SRV" ~target:"/tmp/out"
    ~files:(docs files) ~script:"install.sh" ()

let test_successful_update () =
  let _, net, srv, _ = setup () in
  (match push net with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "update failed");
  let fs = Netsim.Host.fs srv in
  Alcotest.(check (option string)) "a installed" (Some "alpha\n")
    (Netsim.Vfs.read fs ~path:"/etc/data/a.db");
  Alcotest.(check (option string)) "b installed" (Some "beta\n")
    (Netsim.Vfs.read fs ~path:"/etc/data/b.db");
  (* staged archive removed after install *)
  Alcotest.(check bool) "staged cleaned" false
    (Netsim.Vfs.exists fs ~path:"/tmp/out.moira_update")

let test_install_survives_crash_after_install () =
  let _, net, srv, _ = setup () in
  ignore (push net);
  Netsim.Host.crash srv;
  let fs = Netsim.Host.fs srv in
  Alcotest.(check (option string)) "files survive reboot" (Some "alpha\n")
    (Netsim.Vfs.read fs ~path:"/etc/data/a.db")

let test_bad_auth_token () =
  let _, net, _, _ = setup () in
  match
    Dcm.Update.push net ~src:"MOIRA" ~dst:"SRV" ~token:"stolen"
      ~target:"/tmp/out" ~files:(docs [ ("a", "x") ]) ~script:"install.sh" ()
  with
  | Error (Dcm.Update.Hard (code, _)) when code = Moira.Mr_err.perm -> ()
  | _ -> Alcotest.fail "bad token accepted"

let test_unknown_script_is_hard_error () =
  let _, net, _, _ = setup () in
  match
    Dcm.Update.push net ~src:"MOIRA" ~dst:"SRV" ~target:"/tmp/out"
      ~files:(docs [ ("a", "x") ]) ~script:"nosuch.sh" ()
  with
  | Error (Dcm.Update.Hard (code, _))
    when code = Moira.Mr_err.update_script -> ()
  | _ -> Alcotest.fail "unknown script not a hard error"

let test_host_down_is_soft () =
  let _, net, srv, _ = setup () in
  Netsim.Host.crash srv;
  match push net with
  | Error (Dcm.Update.Soft (code, _))
    when code = Moira.Mr_err.host_unreachable -> ()
  | _ -> Alcotest.fail "down host not a soft failure"

let test_crash_during_transfer () =
  let _, net, srv, _ = setup () in
  Netsim.Host.arm_crash srv ~point:"xfer";
  (match push net with
  | Error (Dcm.Update.Soft _) -> ()
  | _ -> Alcotest.fail "crash mid-transfer not soft");
  (* the staged write was never flushed: lost with the crash *)
  Netsim.Host.boot srv;
  let fs = Netsim.Host.fs srv in
  Alcotest.(check bool) "no staged file" false
    (Netsim.Vfs.exists fs ~path:"/tmp/out.moira_update");
  Alcotest.(check bool) "no data installed" false
    (Netsim.Vfs.exists fs ~path:"/etc/data/a.db");
  (* the retry succeeds *)
  match push net with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "retry failed"

let test_crash_before_exec () =
  (* Transfer completed and was flushed; the crash hits before the
     install command.  After reboot the staged file is present but not
     installed; the next update overwrites it and installs. *)
  let _, net, srv, _ = setup () in
  Netsim.Host.arm_crash srv ~point:"before_exec";
  (match push net with
  | Error (Dcm.Update.Soft _) -> ()
  | _ -> Alcotest.fail "crash before exec not soft");
  Netsim.Host.boot srv;
  let fs = Netsim.Host.fs srv in
  Alcotest.(check bool) "staged file survived (was flushed)" true
    (Netsim.Vfs.exists fs ~path:"/tmp/out.moira_update");
  Alcotest.(check bool) "not installed" false
    (Netsim.Vfs.exists fs ~path:"/etc/data/a.db");
  (match push net with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "retry failed");
  Alcotest.(check (option string)) "installed after retry" (Some "alpha\n")
    (Netsim.Vfs.read fs ~path:"/etc/data/a.db")

let test_crash_mid_install_leaves_consistent_files () =
  (* The swap is per-file atomic: a crash between member installs leaves
     each file either fully old or fully new, never mixed. *)
  let _, net, srv, _ = setup () in
  (* install v1 of both files *)
  ignore (push ~files:[ ("a.db", "a-v1"); ("b.db", "b-v1") ] net);
  Netsim.Host.arm_crash srv ~point:"mid_install";
  (match push ~files:[ ("a.db", "a-v2"); ("b.db", "b-v2") ] net with
  | Error (Dcm.Update.Soft _) -> ()
  | _ -> Alcotest.fail "mid-install crash not soft");
  Netsim.Host.boot srv;
  let fs = Netsim.Host.fs srv in
  let a = Netsim.Vfs.read fs ~path:"/etc/data/a.db" in
  let b = Netsim.Vfs.read fs ~path:"/etc/data/b.db" in
  Alcotest.(check bool) "a is v1 or v2, complete" true
    (a = Some "a-v1" || a = Some "a-v2");
  Alcotest.(check bool) "b is v1 or v2, complete" true
    (b = Some "b-v1" || b = Some "b-v2");
  (* first member already swapped in, second not yet *)
  Alcotest.(check (option string)) "a got v2 before crash" (Some "a-v2") a;
  Alcotest.(check (option string)) "b still v1" (Some "b-v1") b;
  (* retry completes the update — extra installations are not harmful *)
  (match push ~files:[ ("a.db", "a-v2"); ("b.db", "b-v2") ] net with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "retry failed");
  Alcotest.(check (option string)) "b now v2" (Some "b-v2")
    (Netsim.Vfs.read fs ~path:"/etc/data/b.db")

let test_crash_after_exec_repeat_harmless () =
  (* Install succeeded but the confirmation was lost: the DCM will
     repeat the update; repeating is harmless. *)
  let _, net, srv, _ = setup () in
  Netsim.Host.arm_crash srv ~point:"after_exec";
  (match push net with
  | Error (Dcm.Update.Soft _) -> ()
  | _ -> Alcotest.fail "lost confirmation not soft");
  Netsim.Host.boot srv;
  let fs = Netsim.Host.fs srv in
  (* files were installed even though the DCM saw a failure *)
  Alcotest.(check (option string)) "already installed" (Some "alpha\n")
    (Netsim.Vfs.read fs ~path:"/etc/data/a.db");
  (* the repeat is a no-op functionally *)
  (match push net with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "repeat failed");
  Alcotest.(check (option string)) "still installed" (Some "alpha\n")
    (Netsim.Vfs.read fs ~path:"/etc/data/a.db")

let test_checksum_detects_corruption () =
  (* Corrupt data with a valid-looking frame: serve a hostile
     man-in-the-middle by calling the update service directly with a
     DELTA whose whole-archive checksum is wrong. *)
  let _, net, _, _ = setup () in
  let blob = Dcm.Tarlike.pack [ ("a", "Fdata") ] in
  let payload =
    Gdb.Wire.encode_request
      {
        Gdb.Wire.version = Gdb.Wire.protocol_version;
        conn = 0;
        op = Dcm.Update.op_delta;
        args = [ "krb"; "/tmp/out"; blob; "00000000" ];
        ctx = "";
      }
  in
  match Netsim.Net.call net ~src:"MOIRA" ~dst:"SRV" ~service:"moira_update" payload with
  | Ok raw -> (
      match Gdb.Wire.decode_reply raw with
      | Ok reply ->
          Alcotest.(check int) "checksum error" Moira.Mr_err.update_checksum
            reply.Gdb.Wire.code
      | Error e -> Alcotest.fail e)
  | Error _ -> Alcotest.fail "call failed"

(* Execution-phase instruction 3: revert puts the previous version back
   after an erroneous installation. *)
let test_revert_instruction () =
  let _, net, srv, up = setup () in
  Dcm.Update.register_script up ~name:"revert.sh"
    (Dcm.Update.revert_files srv ~dir:"/etc/data" ());
  ignore (push ~files:[ ("a.db", "good-v1") ] net);
  ignore (push ~files:[ ("a.db", "broken-v2") ] net);
  let fs = Netsim.Host.fs srv in
  Alcotest.(check (option string)) "v2 live" (Some "broken-v2")
    (Netsim.Vfs.read fs ~path:"/etc/data/a.db");
  Alcotest.(check (option string)) "v1 saved aside" (Some "good-v1")
    (Netsim.Vfs.read fs ~path:"/etc/data/a.db.moira_old");
  (* the operator pushes the same archive with the revert script *)
  (match
     Dcm.Update.push net ~src:"MOIRA" ~dst:"SRV" ~target:"/tmp/out"
       ~files:(docs [ ("a.db", "broken-v2") ]) ~script:"revert.sh" ()
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "revert push failed");
  Alcotest.(check (option string)) "v1 back in place" (Some "good-v1")
    (Netsim.Vfs.read fs ~path:"/etc/data/a.db")

let test_tarlike_roundtrip () =
  let members = [ ("a", "aaa"); ("b/with/slash", ""); ("c", "c:c\nc") ] in
  (match Dcm.Tarlike.unpack (Dcm.Tarlike.pack members) with
  | Ok m -> Alcotest.(check bool) "roundtrip" true (m = members)
  | Error e -> Alcotest.fail e);
  Alcotest.(check (option string)) "member extraction" (Some "aaa")
    (Dcm.Tarlike.member (Dcm.Tarlike.pack members) "a");
  match Dcm.Tarlike.unpack "garbage with no header" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage unpacked"

let test_checksum_function () =
  Alcotest.(check bool) "differs" true
    (Dcm.Checksum.adler32 "abc" <> Dcm.Checksum.adler32 "abd");
  Alcotest.(check bool) "verify ok" true
    (Dcm.Checksum.verify ~data:"hello"
       ~checksum:(Dcm.Checksum.to_hex (Dcm.Checksum.adler32 "hello")));
  Alcotest.(check bool) "verify corrupt" false
    (Dcm.Checksum.verify ~data:"hellp"
       ~checksum:(Dcm.Checksum.to_hex (Dcm.Checksum.adler32 "hello")))

(* The checksum by its definition, one byte and two reductions at a
   time: the reference the block kernel must agree with. *)
let adler32_bytewise s =
  let a = ref 1 and b = ref 0 in
  String.iter
    (fun c ->
      a := (!a + Char.code c) mod 65521;
      b := (!b + !a) mod 65521)
    s;
  (!b lsl 16) lor !a

let prop_checksum_block_kernel =
  let block = 1 lsl 20 in
  QCheck.Test.make ~name:"checksum: block kernel = bytewise reference"
    ~count:120
    QCheck.(
      string_gen_of_size
        Gen.(
          frequency
            [ (20, int_range 0 300); (1, oneofl [ block - 1; block; block + 1 ]) ])
        Gen.char)
    (fun s -> Dcm.Checksum.adler32 s = adler32_bytewise s)

(* 3 MB of the largest byte: every block runs its sums to their highest
   before the reduction, the kernel's overflow worst case. *)
let test_checksum_block_worst_case () =
  let s = String.make (3 * 1024 * 1024) '\255' in
  Alcotest.(check int) "all 0xff" (adler32_bytewise s) (Dcm.Checksum.adler32 s)

let prop_checksum_stream_split =
  QCheck.Test.make ~name:"checksum: stream over a random split = one pass"
    ~count:300
    QCheck.(pair (string_of_size (Gen.int_range 0 400)) (small_list small_nat))
    (fun (s, cuts) ->
      let cuts =
        List.sort_uniq compare (List.map (fun c -> c mod (String.length s + 1)) cuts)
      in
      let st = Dcm.Checksum.stream_start () in
      let last =
        List.fold_left
          (fun from cut ->
            Dcm.Checksum.stream_feed st (String.sub s from (cut - from));
            cut)
          0 cuts
      in
      Dcm.Checksum.stream_feed st
        (String.sub s last (String.length s - last));
      Dcm.Checksum.stream_value st = Dcm.Checksum.adler32 s)

(* Delta pushes (against [target^".last.d/"]).  The first push of a target
   must go full; a repeat with mostly-unchanged members must ride the
   manifest exchange, keeping unchanged members off the wire. *)

let big_files ~version =
  List.init 20 (fun i ->
      let body = String.make 2048 (Char.chr (Char.code 'a' + (i mod 26))) in
      (Printf.sprintf "m%02d.db" i, body ^ version ^ "\n"))

let test_second_push_is_delta () =
  let _, net, srv, _ = setup () in
  let v1 = big_files ~version:"v1" in
  let s1 =
    match push ~files:v1 net with
    | Ok s -> s
    | Error _ -> Alcotest.fail "first push failed"
  in
  Alcotest.(check bool) "first push is full" false s1.Dcm.Update.delta;
  (* change one member out of twenty *)
  let v2 =
    List.map
      (fun (n, c) -> (n, if n = "m03.db" then c ^ "edit\n" else c))
      v1
  in
  let s2 =
    match
      Dcm.Update.push net ~src:"MOIRA" ~dst:"SRV" ~base:(docs v1)
        ~target:"/tmp/out" ~files:(docs v2) ~script:"install.sh" ()
    with
    | Ok s -> s
    | Error _ -> Alcotest.fail "delta push failed"
  in
  Alcotest.(check bool) "second push is delta" true s2.Dcm.Update.delta;
  Alcotest.(check int) "19 members kept" 19 s2.Dcm.Update.members_kept;
  Alcotest.(check bool) "changed member shipped" true
    (s2.Dcm.Update.members_patched + s2.Dcm.Update.members_full = 1);
  Alcotest.(check bool)
    (Printf.sprintf "wire %d < 10%% of archive %d" s2.Dcm.Update.wire_bytes
       s2.Dcm.Update.archive_bytes)
    true
    (s2.Dcm.Update.wire_bytes * 10 < s2.Dcm.Update.archive_bytes);
  let fs = Netsim.Host.fs srv in
  Alcotest.(check (option string)) "edited member installed"
    (List.assoc_opt "m03.db" v2)
    (Netsim.Vfs.read fs ~path:"/etc/data/m03.db");
  Alcotest.(check (option string)) "kept member installed"
    (List.assoc_opt "m07.db" v2)
    (Netsim.Vfs.read fs ~path:"/etc/data/m07.db")

let test_delta_push_crash_mid_install () =
  (* The delta path stages a self-contained file before execution, so
     section 5.9's mid-install analysis is unchanged: a
     crash between member swaps leaves every file fully old or fully
     new, and the retry completes. *)
  let _, net, srv, _ = setup () in
  ignore (push ~files:[ ("a.db", "a-v1"); ("b.db", "b-v1") ] net);
  Netsim.Host.arm_crash srv ~point:"mid_install";
  let v2 = [ ("a.db", "a-v2"); ("b.db", "b-v2") ] in
  let delta_push () =
    Dcm.Update.push net ~src:"MOIRA" ~dst:"SRV"
      ~base:(docs [ ("a.db", "a-v1"); ("b.db", "b-v1") ]) ~target:"/tmp/out"
      ~files:(docs v2) ~script:"install.sh" ()
  in
  (match delta_push () with
  | Error (Dcm.Update.Soft _) -> ()
  | _ -> Alcotest.fail "mid-install crash not soft");
  Netsim.Host.boot srv;
  let fs = Netsim.Host.fs srv in
  let a = Netsim.Vfs.read fs ~path:"/etc/data/a.db" in
  let b = Netsim.Vfs.read fs ~path:"/etc/data/b.db" in
  Alcotest.(check bool) "a complete" true (a = Some "a-v1" || a = Some "a-v2");
  Alcotest.(check bool) "b complete" true (b = Some "b-v1" || b = Some "b-v2");
  (match delta_push () with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "retry failed");
  Alcotest.(check (option string)) "a v2 after retry" (Some "a-v2")
    (Netsim.Vfs.read fs ~path:"/etc/data/a.db");
  Alcotest.(check (option string)) "b v2 after retry" (Some "b-v2")
    (Netsim.Vfs.read fs ~path:"/etc/data/b.db")

(* A corrupt server-side base must not poison the push: the push still
   installs exactly the pushed bytes. *)
let test_garbage_base_index_falls_back () =
  let _, net, srv, _ = setup () in
  ignore (push ~files:[ ("a.db", "a-v1") ] net);
  let fs = Netsim.Host.fs srv in
  Netsim.Vfs.write fs ~path:"/tmp/out.last.d/_index" "garbage, not a member";
  let s =
    match
      Dcm.Update.push net ~src:"MOIRA" ~dst:"SRV"
        ~base:(docs [ ("a.db", "a-v1") ]) ~target:"/tmp/out"
        ~files:(docs [ ("a.db", "a-v2") ]) ~script:"install.sh" ()
    with
    | Ok s -> s
    | Error _ -> Alcotest.fail "push with garbage base failed"
  in
  Alcotest.(check bool) "fell back to full" false s.Dcm.Update.delta;
  Alcotest.(check (option string)) "installed despite garbage base"
    (Some "a-v2")
    (Netsim.Vfs.read fs ~path:"/etc/data/a.db")

let test_tampered_base_member_falls_back () =
  (* Same length, different bytes: the manifest must report what is on
     disk, not a remembered checksum — else the unchanged member would be
     "kept" and the tampered base bytes installed. *)
  let _, net, srv, _ = setup () in
  let v1 = [ ("a.db", "a-v1\n"); ("b.db", "b-v1\n") ] in
  ignore (push ~files:v1 net);
  let fs = Netsim.Host.fs srv in
  Netsim.Vfs.write fs ~path:"/tmp/out.last.d/a.db" "a-XX\n";
  (match
     Dcm.Update.push net ~src:"MOIRA" ~dst:"SRV" ~base:(docs v1)
       ~target:"/tmp/out"
       ~files:(docs [ ("a.db", "a-v1\n"); ("b.db", "b-v2\n") ])
       ~script:"install.sh" ()
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "push with tampered base failed");
  Alcotest.(check (option string)) "a installed as pushed" (Some "a-v1\n")
    (Netsim.Vfs.read fs ~path:"/etc/data/a.db");
  Alcotest.(check (option string)) "b installed as pushed" (Some "b-v2\n")
    (Netsim.Vfs.read fs ~path:"/etc/data/b.db");
  Alcotest.(check (option string)) "base repaired" (Some "a-v1\n")
    (Netsim.Vfs.read fs ~path:"/tmp/out.last.d/a.db")

let test_stale_base_on_client_still_correct () =
  (* The DCM's kept base can be wrong (e.g. after a restart it guesses):
     patches carry their base checksum, so a stale client base degrades
     to full members, never to corrupt installs. *)
  let _, net, srv, _ = setup () in
  ignore (push ~files:[ ("a.db", "a-v1"); ("b.db", "b-v1") ] net);
  (match
     Dcm.Update.push net ~src:"MOIRA" ~dst:"SRV"
       ~base:(docs [ ("a.db", "WRONG"); ("b.db", "b-v1") ]) ~target:"/tmp/out"
       ~files:(docs [ ("a.db", "a-v2"); ("b.db", "b-v2") ])
       ~script:"install.sh" ()
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "push with stale client base failed");
  let fs = Netsim.Host.fs srv in
  Alcotest.(check (option string)) "a correct" (Some "a-v2")
    (Netsim.Vfs.read fs ~path:"/etc/data/a.db");
  Alcotest.(check (option string)) "b correct" (Some "b-v2")
    (Netsim.Vfs.read fs ~path:"/etc/data/b.db")

(* Every durable file on the host except in-flight staging — the state
   that must match a clean push after a reply-loss retry. *)
let state_of srv =
  let fs = Netsim.Host.fs srv in
  Netsim.Vfs.list fs
  |> List.filter (fun p -> not (Filename.check_suffix p ".moira_update"))
  |> List.sort compare
  |> List.map (fun p ->
         (p, Option.value (Netsim.Vfs.read fs ~path:p) ~default:""))

(* Reply loss is the idempotence hazard: the server executed the
   operation, but the DCM saw Timeout and re-sends it.  Drop the reply
   of each operation of the protocol in turn and check the retried push
   converges to exactly the clean-push state. *)
let full_push_ops = [ "manifest"; "delta"; "script"; "flush"; "exec" ]
let delta_push_ops = [ "manifest"; "delta"; "script"; "flush"; "exec" ]

let test_reply_loss_idempotent_full_push () =
  let _, cnet, csrv, _ = setup () in
  (match push cnet with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "clean reference push failed");
  let want = state_of csrv in
  List.iteri
    (fun i op ->
      let _, net, srv, _ = setup () in
      Netsim.Net.arm_reply_drop net ~dst:"SRV" ~skip:i 1;
      (match
         Dcm.Update.push net ~src:"MOIRA" ~dst:"SRV" ~attempts:2
           ~target:"/tmp/out"
           ~files:(docs [ ("a.db", "alpha\n"); ("b.db", "beta\n") ])
           ~script:"install.sh" ()
       with
      | Ok s ->
          Alcotest.(check bool)
            (op ^ " reply lost: op was re-sent")
            true
            (s.Dcm.Update.op_retries >= 1)
      | Error _ -> Alcotest.fail (op ^ " reply lost: push failed"));
      Alcotest.(check bool)
        (op ^ " reply lost: state equals clean push")
        true
        (state_of srv = want))
    full_push_ops

let test_reply_loss_idempotent_delta_push () =
  let v1 = [ ("a.db", "a-v1\n"); ("b.db", "b-v1\n") ] in
  let v2 = [ ("a.db", "a-v2\n"); ("b.db", "b-v1\n") ] in
  let delta_push net =
    Dcm.Update.push net ~src:"MOIRA" ~dst:"SRV" ~base:(docs v1) ~attempts:2
      ~target:"/tmp/out" ~files:(docs v2) ~script:"install.sh" ()
  in
  let _, cnet, csrv, _ = setup () in
  ignore (push ~files:v1 cnet);
  (match delta_push cnet with
  | Ok s ->
      Alcotest.(check bool) "reference push is a delta" true
        s.Dcm.Update.delta
  | Error _ -> Alcotest.fail "clean reference delta push failed");
  let want = state_of csrv in
  List.iteri
    (fun i op ->
      let _, net, srv, _ = setup () in
      ignore (push ~files:v1 net);
      Netsim.Net.arm_reply_drop net ~dst:"SRV" ~skip:i 1;
      (match delta_push net with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail (op ^ " reply lost: delta push failed"));
      Alcotest.(check bool)
        (op ^ " reply lost: state equals clean push")
        true
        (state_of srv = want))
    delta_push_ops

let test_reply_loss_exec_runs_script_once () =
  (* The exec confirm carries the archive checksum: a server that
     already installed it must acknowledge the repeat, not run the
     script twice. *)
  let engine = Sim.Engine.create () in
  let net = Netsim.Net.create engine in
  let srv = Netsim.Net.add_host net "SRV" in
  ignore (Netsim.Net.add_host net "MOIRA");
  let up = Dcm.Update.serve srv in
  let runs = ref 0 in
  Dcm.Update.register_script up ~name:"install.sh" (fun ~staged ->
      incr runs;
      Dcm.Update.install_files srv ~dir:"/etc/data" () ~staged);
  (* the exec op is the 5th (index 4) of a full push *)
  Netsim.Net.arm_reply_drop net ~dst:"SRV" ~skip:4 1;
  (match
     Dcm.Update.push net ~src:"MOIRA" ~dst:"SRV" ~attempts:2
       ~target:"/tmp/out"
       ~files:(docs [ ("a.db", "alpha\n") ])
       ~script:"install.sh" ()
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "push failed");
  Alcotest.(check int) "script ran exactly once" 1 !runs;
  Alcotest.(check (option string)) "file installed" (Some "alpha\n")
    (Netsim.Vfs.read (Netsim.Host.fs srv) ~path:"/etc/data/a.db")

(* The bytes a prefix/suffix patch from [a] to [b] replaces: [b]
   without the longest common prefix and the longest common suffix
   that does not overlap it. *)
let middle_len a b =
  let la = String.length a and lb = String.length b in
  let p = ref 0 in
  while !p < min la lb && a.[!p] = b.[!p] do incr p done;
  let s = ref 0 in
  while !s < min la lb - !p && a.[la - 1 - !s] = b.[lb - 1 - !s] do incr s done;
  lb - !p - !s

(* Each entry is resolved once: the server checksums a new member's
   bytes exactly once, never re-scans kept or patched-against base
   members, and for a patched member scans at most the middle plus one
   segment of base bytes on each side of it. *)
let test_scanned_bytes () =
  let engine = Sim.Engine.create () in
  let net = Netsim.Net.create engine in
  let srv = Netsim.Net.add_host net "SRV" in
  ignore (Netsim.Net.add_host net "MOIRA");
  let obs = Obs.create () in
  let up = Dcm.Update.serve ~obs srv in
  Dcm.Update.register_script up ~name:"install.sh"
    (Dcm.Update.install_files srv ~dir:"/etc/data" ());
  let scanned () =
    Option.value ~default:0 (Obs.find_counter obs "update.server.scanned_bytes")
  in
  let push_scan ?base files =
    let before = scanned () in
    (match
       Dcm.Update.push net ~src:"MOIRA" ~dst:"SRV" ?base ~target:"/tmp/out"
         ~files:(docs files) ~script:"install.sh" ()
     with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "push failed");
    scanned () - before
  in
  let within_bound label ~base ~next =
    let bound = middle_len base next + (2 * Dcm.Checksum.segment_size) in
    fun got ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: scanned %d <= middle + two segments = %d" label got bound)
        true (got <= bound)
  in
  let v1 = big_files ~version:"v1" in
  let total = List.fold_left (fun n (_, c) -> n + String.length c) 0 v1 in
  Alcotest.(check int) "first push scans every member once" total
    (push_scan v1);
  let m03 = List.assoc "m03.db" v1 ^ "edit\n" in
  let v2 = List.map (fun (n, c) -> (n, if n = "m03.db" then m03 else c)) v1 in
  within_bound "patched push" ~base:(List.assoc "m03.db" v1) ~next:m03
    (push_scan ~base:(docs v1) v2);
  Alcotest.(check int) "identical push scans nothing" 0
    (push_scan ~base:(docs v2) v2);
  Alcotest.(check (option string)) "patched member installed" (Some m03)
    (Netsim.Vfs.read (Netsim.Host.fs srv) ~path:"/etc/data/m03.db");
  (* a one-line edit in the middle of a 3 MB member *)
  let line i = Printf.sprintf "user%07d.passwd HS UNSPECA \"user%07d:*:%d:101::/bin/sh\"\n" i i i in
  let big = String.concat "" (List.init 50_000 line) in
  Alcotest.(check bool) "member is 3 MB" true (String.length big >= 3_000_000);
  let mid = String.length big / 2 in
  let edited =
    let at = String.index_from big mid '\n' + 1 in
    let stop = String.index_from big at '\n' in
    String.sub big 0 at ^ "edited.passwd HS UNSPECA \"edited:*:1:101::/bin/zsh\""
    ^ String.sub big stop (String.length big - stop)
  in
  ignore (push_scan ~base:(docs v2) (("big.db", big) :: v2));
  within_bound "one-line edit of a 3 MB member" ~base:big ~next:edited
    (push_scan ~base:(docs (("big.db", big) :: v2)) (("big.db", edited) :: v2));
  Alcotest.(check bool) "edited 3 MB member installed" true
    (Netsim.Vfs.read (Netsim.Host.fs srv) ~path:"/etc/data/big.db" = Some edited)

(* The server's segment checksums against the definition: a chain of
   patches, each one's checksum derived as the server derives it (the
   region scanned, encoded into the staged file and decoded, spliced
   into the base's segments), always equals the Adler-32 of the
   materialised member; the segment count stays below
   [2 * length / segment_size + 1]; and each patch scans at most its
   middle plus one segment on each side. *)
let prop_segment_checksums =
  let seg = Dcm.Checksum.segment_size in
  let gen_patch =
    QCheck.Gen.(
      quad (float_bound_inclusive 1.) (float_bound_inclusive 1.)
        (frequency
           [
             (3, int_range 1 40);
             (2, oneofl [ seg - 1; seg; seg + 1 ]);
             (1, int_range seg (3 * seg));
           ])
        (int_bound 5))
  in
  let gen =
    QCheck.Gen.(
      pair
        (string_size ~gen:char (frequency [ (1, int_range 0 50); (3, int_range 0 (5 * seg)) ]))
        (list_size (int_range 1 20) gen_patch))
  in
  QCheck.Test.make ~name:"checksum: spliced segment checksums = adler32 of the member"
    ~count:150
    (QCheck.make
       ~print:(fun (b, ps) -> Printf.sprintf "base %d bytes, %d patches" (String.length b) (List.length ps))
       gen)
    (fun (base, patches) ->
      let ok cur sums =
        let len = String.length cur in
        Dcm.Checksum.value sums = Dcm.Checksum.adler32 cur
        && Dcm.Checksum.length sums = len
        && Dcm.Checksum.count sums * seg < (2 * len) + seg
      in
      let step (cur, sums, good) (fp, fs, mlen, mode) =
        let len = String.length cur in
        (* mode 0: prefix 0; 1: suffix 0; 2: whole-member replacement;
           3: empty middle; otherwise both edges random *)
        let prefix = if mode = 0 || mode = 2 then 0 else int_of_float (fp *. float len) in
        let suffix =
          if mode = 1 || mode = 2 then 0 else int_of_float (fs *. float (len - prefix))
        in
        let mlen = if mode = 3 then 0 else mlen in
        let middle = String.init mlen (fun i -> Char.chr ((i * 31 + len) land 255)) in
        let region =
          Dcm.Checksum.region sums ~base:cur ~prefix ~suffix (middle, 0, mlen)
        in
        let next =
          String.sub cur 0 prefix ^ middle ^ String.sub cur (len - suffix) suffix
        in
        let staged = Dcm.Checksum.decode (Dcm.Checksum.encode region) in
        match staged with
        | None -> (next, sums, false)
        | Some region' ->
            let sums' = Dcm.Checksum.splice sums ~prefix ~suffix region' in
            ( next,
              sums',
              good && ok next sums'
              && Dcm.Checksum.length region <= mlen + (2 * seg) - 2 )
      in
      let sums = Dcm.Checksum.scan [ (base, 0, String.length base) ] in
      let _, _, good = List.fold_left step (base, sums, ok base sums) patches in
      good)

(* A patched member is staged as its patch; a crash before EXEC leaves
   that staged file flushed.  Returns the net, the host and the pushed
   files, with the host rebooted. *)
let staged_patch_then_crash () =
  let _, net, srv, _ = setup () in
  let v1 = big_files ~version:"v1" in
  ignore (push ~files:v1 net);
  let v2 =
    List.map (fun (n, c) -> (n, if n = "m03.db" then "head\n" ^ c ^ "tail\n" else c)) v1
  in
  Netsim.Host.arm_crash srv ~point:"before_exec";
  (match
     Dcm.Update.push net ~src:"MOIRA" ~dst:"SRV" ~base:(docs v1)
       ~target:"/tmp/out" ~files:(docs v2) ~script:"install.sh" ()
   with
  | Error (Dcm.Update.Soft _) -> ()
  | _ -> Alcotest.fail "crash before exec not soft");
  Netsim.Host.boot srv;
  let staged =
    Option.get (Netsim.Vfs.read (Netsim.Host.fs srv) ~path:"/tmp/out.moira_update")
  in
  (match Dcm.Tarlike.unpack staged with
  | Ok (("", index) :: _) ->
      Alcotest.(check bool) "m03 staged as a patch" true
        (List.exists
           (fun l -> String.starts_with ~prefix:"P " l && Filename.check_suffix l " m03.db")
           (String.split_on_char '\n' index))
  | _ -> Alcotest.fail "staged file unreadable");
  (net, srv, v1, v2)

(* EXEC re-sent by hand, as the DCM's retry of the same push would. *)
let exec net files =
  let payload =
    Gdb.Wire.encode_request
      {
        Gdb.Wire.version = Gdb.Wire.protocol_version;
        conn = 0;
        op = Dcm.Update.op_exec;
        args =
          [ "krb"; "/tmp/out"; Dcm.Checksum.to_hex (Dcm.Tarlike.checksum files) ];
        ctx = "";
      }
  in
  match Netsim.Net.call net ~src:"MOIRA" ~dst:"SRV" ~service:"moira_update" payload with
  | Ok raw -> (
      match Gdb.Wire.decode_reply raw with
      | Ok r -> r.Gdb.Wire.code
      | Error e -> Alcotest.fail e)
  | Error _ -> Alcotest.fail "exec call failed"

let installed srv files =
  let fs = Netsim.Host.fs srv in
  List.for_all
    (fun (n, c) -> Netsim.Vfs.read fs ~path:("/etc/data/" ^ n) = Some c)
    files

let test_crash_before_exec_patch_staged () =
  let net, srv, _, v2 = staged_patch_then_crash () in
  Alcotest.(check int) "retried exec succeeds" 0 (exec net v2);
  Alcotest.(check bool) "patched bytes installed" true (installed srv v2);
  Alcotest.(check (option string)) "base advanced to the patched member"
    (List.assoc_opt "m03.db" v2)
    (Netsim.Vfs.read (Netsim.Host.fs srv) ~path:"/tmp/out.last.d/m03.db")

(* A patch that shares no prefix or suffix with its base rewrites the
   whole member: its staged region covers all of it. *)
let test_whole_member_patch () =
  let _, net, srv, _ = setup () in
  let v1 = [ ("a.db", String.make 5000 'x'); ("b.db", "b\n") ] in
  let v2 = [ ("a.db", String.make 9000 'y'); ("b.db", "b\n") ] in
  ignore (push ~files:v1 net);
  (match
     Dcm.Update.push net ~src:"MOIRA" ~dst:"SRV" ~base:(docs v1)
       ~target:"/tmp/out" ~files:(docs v2) ~script:"install.sh" ()
   with
  | Ok s -> Alcotest.(check int) "sent as a patch" 1 s.Dcm.Update.members_patched
  | Error _ -> Alcotest.fail "push failed");
  Alcotest.(check bool) "replaced member installed" true (installed srv v2)

let test_exec_refuses_changed_base () =
  let net, srv, v1, v2 = staged_patch_then_crash () in
  let fs = Netsim.Host.fs srv in
  Netsim.Vfs.write fs ~path:"/tmp/out.last.d/m03.db" "tampered base\n";
  Alcotest.(check int) "exec answers a checksum error" Moira.Mr_err.update_checksum
    (exec net v2);
  Alcotest.(check bool) "nothing installed" true (installed srv v1);
  (match
     Dcm.Update.push net ~src:"MOIRA" ~dst:"SRV" ~base:(docs v1)
       ~target:"/tmp/out" ~files:(docs v2) ~script:"install.sh" ()
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "next push failed");
  Alcotest.(check bool) "next push installs the pushed bytes" true (installed srv v2)

let prop_tarlike_roundtrip =
  QCheck.Test.make ~name:"tarlike: pack/unpack roundtrip" ~count:200
    QCheck.(
      list_of_size (Gen.int_range 0 5)
        (pair (string_of_size (Gen.int_range 1 20))
           (string_of_size (Gen.int_range 0 50))))
    (fun members -> Dcm.Tarlike.unpack (Dcm.Tarlike.pack members) = Ok members)

let suite =
  [
    Alcotest.test_case "successful update" `Quick test_successful_update;
    Alcotest.test_case "install survives reboot" `Quick
      test_install_survives_crash_after_install;
    Alcotest.test_case "bad auth token" `Quick test_bad_auth_token;
    Alcotest.test_case "unknown script hard" `Quick
      test_unknown_script_is_hard_error;
    Alcotest.test_case "host down soft" `Quick test_host_down_is_soft;
    Alcotest.test_case "crash during transfer" `Quick
      test_crash_during_transfer;
    Alcotest.test_case "crash before exec" `Quick test_crash_before_exec;
    Alcotest.test_case "crash mid-install atomicity" `Quick
      test_crash_mid_install_leaves_consistent_files;
    Alcotest.test_case "lost confirmation" `Quick
      test_crash_after_exec_repeat_harmless;
    Alcotest.test_case "checksum detects corruption" `Quick
      test_checksum_detects_corruption;
    Alcotest.test_case "revert instruction" `Quick test_revert_instruction;
    Alcotest.test_case "second push is delta" `Quick test_second_push_is_delta;
    Alcotest.test_case "delta push crash mid-install" `Quick
      test_delta_push_crash_mid_install;
    Alcotest.test_case "garbage base _index falls back" `Quick
      test_garbage_base_index_falls_back;
    Alcotest.test_case "tampered base member falls back" `Quick
      test_tampered_base_member_falls_back;
    Alcotest.test_case "stale client base still correct" `Quick
      test_stale_base_on_client_still_correct;
    Alcotest.test_case "reply loss idempotent (full push, every op)" `Quick
      test_reply_loss_idempotent_full_push;
    Alcotest.test_case "reply loss idempotent (delta push, every op)" `Quick
      test_reply_loss_idempotent_delta_push;
    Alcotest.test_case "reply loss: exec runs script once" `Quick
      test_reply_loss_exec_runs_script_once;
    Alcotest.test_case "scanned bytes: one pass per entry" `Quick
      test_scanned_bytes;
    QCheck_alcotest.to_alcotest prop_segment_checksums;
    Alcotest.test_case "crash before exec, patch staged" `Quick
      test_crash_before_exec_patch_staged;
    Alcotest.test_case "exec refuses a changed base" `Quick
      test_exec_refuses_changed_base;
    Alcotest.test_case "patch replacing a whole member" `Quick
      test_whole_member_patch;
    Alcotest.test_case "tarlike roundtrip" `Quick test_tarlike_roundtrip;
    Alcotest.test_case "checksum function" `Quick test_checksum_function;
    QCheck_alcotest.to_alcotest prop_checksum_block_kernel;
    Alcotest.test_case "checksum block worst case" `Quick
      test_checksum_block_worst_case;
    QCheck_alcotest.to_alcotest prop_checksum_stream_split;
    QCheck_alcotest.to_alcotest prop_tarlike_roundtrip;
  ]
